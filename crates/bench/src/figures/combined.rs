//! Experiments E12 and E13 — the implementability boundary and the second
//! combined result.
//!
//! * **E12.** `AP` is implementable in anonymous *synchronous* systems
//!   (the windowed-count estimator is class-valid on every seed) but not
//!   under partial synchrony (pre-GST delays break its perpetual safety
//!   bound) — which is why the paper's `HΩ`, implementable in `HPS`
//!   (Figure 6), matters.
//! * **E13.** Figure 7 (`HΣ`, step-paced) + Figure 6 (`HΩ`) + Figure 9
//!   consensus, all real message-passing processes stacked per node,
//!   solve consensus in synchronous homonymous systems with **any**
//!   number of crashes, without knowing `t` or the membership.

use crate::{ap_realism, combined_synchronous};

pub fn main() {
    println!("## E12 — AP implementability boundary\n");
    println!("windowed-count AP estimator, n=5 anonymous, 1 crash, 12 seeds\n");
    println!("| network | class-valid | safety violations |");
    println!("|---------|-------------|-------------------|");
    for synchronous in [true, false] {
        let r = ap_realism(synchronous, 12);
        println!(
            "| {} | {}/{} | {}/{} |",
            r.network, r.valid, r.seeds, r.safety_violations, r.seeds
        );
    }
    println!("\nSynchrony: always valid. Eventually-timely links: safety breaks");
    println!("pre-GST — AP is not realistic there, HΩ (Figure 6) is.");

    println!("\n## E13 — combined result: Fig 7 + Fig 6 + Fig 9 in HSS, any t\n");
    println!("triple-stacked real detectors, synchronous network\n");
    println!("| n | ℓ | crashes | decided | last decision | broadcasts |");
    println!("|---|---|---------|---------|---------------|------------|");
    for &(n, l, crashes) in &[
        (4usize, 2usize, 0usize),
        (4, 2, 3),
        (6, 2, 3),
        (6, 3, 5),
        (8, 4, 6),
    ] {
        let r = combined_synchronous(n, l, crashes, 3 + n as u64);
        println!(
            "| {} | {} | {} | {} | t{} | {} |",
            r.n, r.l, r.crashes, r.decided, r.last_decision, r.broadcasts
        );
    }
    println!("\nEvery row decides — including crashed majorities — with neither");
    println!("t nor n nor the membership known to any process.");
}
