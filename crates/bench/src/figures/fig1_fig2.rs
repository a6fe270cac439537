//! Experiment E1/E2 — Figures 1-2: Σ → HΣ transformations (Theorem 1).
//!
//! Claim reproduced: both variants emit class-valid `HΣ` output; Figure 1
//! does so with **zero** communication, Figure 2 pays `IDENT` traffic to
//! learn the membership; label universes match `2^(n-1)` per process.

use crate::fig12_sigma_to_hsigma;

pub fn main() {
    println!("## E1/E2 — Σ → HΣ (Figures 1-2, Theorem 1)\n");
    println!("| n | crashes | membership | liveness by | labels | IDENT msgs |");
    println!("|---|---------|------------|-------------|--------|------------|");
    for &(n, crashes) in &[(3usize, 0usize), (4, 1), (5, 2), (6, 2), (8, 3)] {
        for known in [true, false] {
            let r = fig12_sigma_to_hsigma(n, crashes, known, 42 + n as u64);
            println!(
                "| {} | {} | {} | t{} | {} | {} |",
                r.n,
                crashes,
                if r.membership_known {
                    "known (Fig 1)"
                } else {
                    "learned (Fig 2)"
                },
                r.liveness_by,
                r.labels,
                r.broadcasts,
            );
        }
    }
    println!("\nFig 1 rows must show 0 IDENT msgs (communication-free).");
}
