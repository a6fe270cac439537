//! Experiment E6 — Figure 6: `◇HP`/`HΩ` in `HPS[∅]` (Theorem 5, Cor. 2).
//!
//! Claims reproduced:
//! * convergence happens shortly after GST and scales with δ;
//! * the adaptive timeout settles (stops growing) once the network is
//!   timely;
//! * replies are deduplicated per *identifier*, so `P_REPLY ≈ ℓ × POLLING`
//!   instead of `n × POLLING`.

use crate::{fig6_evt_hp, maybe_dump};

pub fn main() {
    println!("## E6 — ◇HP / HΩ in HPS (Figure 6)\n");
    println!("### GST sweep (n=5, ℓ=2, δ=3, 1 crash)\n");
    println!("| GST | ◇HP stab | HΩ stab | final timeout | POLLING | P_REPLY |");
    println!("|-----|----------|---------|---------------|---------|---------|");
    let mut rows = Vec::new();
    for &gst in &[0u64, 30, 100, 300] {
        let r = fig6_evt_hp(5, 2, gst, 3, 1, 5 + gst);
        println!(
            "| {} | t{} | t{} | {} | {} | {} |",
            r.gst,
            r.evt_hp_stabilization,
            r.h_omega_stabilization,
            r.final_timeout,
            r.polling,
            r.replies
        );
        rows.push(r);
    }
    maybe_dump("fig6_gst_sweep", &rows);
    println!("\n### δ sweep (n=5, ℓ=2, GST=50, 1 crash)\n");
    println!("| δ | ◇HP stab | final timeout |");
    println!("|---|----------|---------------|");
    for &delta in &[1u64, 2, 4, 8, 16] {
        let r = fig6_evt_hp(5, 2, 50, delta, 1, 90 + delta);
        println!(
            "| {} | t{} | {} |",
            r.delta, r.evt_hp_stabilization, r.final_timeout
        );
    }
    println!("\n### homonymy sweep (n=6, GST=40, δ=3, 1 crash)\n");
    println!("| ℓ | ◇HP stab | POLLING | P_REPLY | reply ratio |");
    println!("|---|----------|---------|---------|-------------|");
    for &l in &[1usize, 2, 3, 6] {
        let r = fig6_evt_hp(6, l, 40, 3, 1, 13 + l as u64);
        println!(
            "| {} | t{} | {} | {} | {:.2} |",
            r.l,
            r.evt_hp_stabilization,
            r.polling,
            r.replies,
            r.replies as f64 / r.polling.max(1) as f64
        );
    }
    println!("\nThe reply ratio tracks ℓ (identifier-level dedup), not n.");
}
