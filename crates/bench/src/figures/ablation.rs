//! Ablation experiments: the paper's two load-bearing mechanisms.
//!
//! * **Leaders' Coordination Phase** (Figure 8 / Lemma 7): removing it
//!   leaves safety intact but breaks (or badly delays) termination as
//!   soon as homonymous co-leaders hold divergent estimates.
//! * **Timeout adaptation** (Figure 6, lines 33-34 / Lemma 5): freezing
//!   `timeout_p` below the unknown round trip prevents `◇HP` from ever
//!   converging.

use crate::{ablate_coordination_phase, ablate_timeout_adaptation};

pub fn main() {
    println!("## Ablation A — Leaders' Coordination Phase (Figure 8, Lemma 7)\n");
    println!("n=6, failure-free, divergent proposals, 12 seeds, deadline t4000\n");
    println!("| ℓ | with LC: decided | rounds (mean) | without LC: decided | rounds (mean) |");
    println!("|---|------------------|---------------|---------------------|----------------|");
    for &l in &[1usize, 2, 3, 6] {
        let r = ablate_coordination_phase(6, l, 12);
        println!(
            "| {} | {}/{} | {:.1} | {}/{} | {:.1} |",
            r.l,
            r.with_lc_decided,
            r.seeds,
            r.with_lc_rounds,
            r.without_lc_decided,
            r.seeds,
            r.without_lc_rounds
        );
    }
    println!("\nWithout the phase, homonymous co-leaders (ℓ < n) limp along on");
    println!("Phase 2's {{v,⊥}} adoption (≈10× the rounds at ℓ=1, degrading as ℓ→1);");
    println!("at ℓ = n there is a single leader and the phase is redundant — exactly Lemma 7.");

    println!("\n## Ablation B — Figure 6 timeout adaptation (Lemma 5)\n");
    println!("n=4, ℓ=2, GST=40, lossy pre-GST, horizon t6000\n");
    println!("| δ | adaptive: ◇HP stab | frozen timeout=1: ◇HP stab |");
    println!("|---|--------------------|-----------------------------|");
    for &delta in &[1u64, 2, 4, 8] {
        let r = ablate_timeout_adaptation(delta, 17 + delta);
        let a = r.adaptive.map_or("never".into(), |t| format!("t{t}"));
        let f = r.frozen.map_or("never".into(), |t| format!("t{t}"));
        println!("| {} | {} | {} |", r.delta, a, f);
    }
    println!("\nThe frozen variant never converges (its 1-tick rounds end before");
    println!("any covering reply arrives); adaptation is what buys convergence for unknown δ.");
}
