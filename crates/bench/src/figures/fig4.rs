//! Experiment E4 — Figure 4: HΣ → Σ using class `E` (Theorem 2).
//!
//! Claim reproduced: the produced `trusted_p` sets satisfy `Σ` safety and
//! converge into `I(Correct)`; convergence trails the `HΣ` oracle's
//! stabilization and the `LABELS` exchange.

use crate::fig4_hsigma_to_sigma;

pub fn main() {
    println!("## E4 — HΣ → Σ via class E (Figure 4, Theorem 2)\n");
    println!("| n | crashes | Σ liveness by | LABELS msgs |");
    println!("|---|---------|---------------|-------------|");
    for &n in &[3usize, 4, 6, 8, 10] {
        for crashes in [0usize, 1, (n - 1) / 2] {
            let r = fig4_hsigma_to_sigma(n, crashes, 11 + n as u64);
            println!(
                "| {} | {} | t{} | {} |",
                r.n, r.crashes, r.liveness_by, r.broadcasts
            );
        }
    }
}
