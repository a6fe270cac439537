//! Experiment E7 — Figure 7: `HΣ` in `HSS[∅]` (Theorem 6).
//!
//! Claims reproduced: liveness locks in on the first step after the last
//! crash; the quorum-label universe is one label per alive-set epoch
//! (plus partial-delivery variants in crash steps); safety holds across
//! all of them.

use crate::fig7_h_sigma;

pub fn main() {
    println!("## E7 — HΣ in HSS (Figure 7)\n");
    println!("| n | ℓ | crashes | steps | liveness by step | labels | IDENT msgs |");
    println!("|---|---|---------|-------|------------------|--------|------------|");
    for &(n, l) in &[(4usize, 2usize), (6, 3), (8, 2), (12, 4)] {
        for crashes in [0usize, 1, n / 3] {
            let r = fig7_h_sigma(n, l, crashes, 10, 3 + n as u64);
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                r.n, l, r.crashes, r.steps, r.liveness_by, r.labels, r.broadcasts
            );
        }
    }
}
