//! Ablation experiments: the paper's two load-bearing mechanisms.
//!
//! * **Leaders' Coordination Phase** (Figure 8 / Lemma 7): removing it
//!   leaves safety intact but breaks (or badly delays) termination as
//!   soon as homonymous co-leaders hold divergent estimates.
//! * **Timeout adaptation** (Figure 6, lines 33-34 / Lemma 5): freezing
//!   `timeout_p` below the unknown round trip prevents `◇HP` from ever
//!   converging.

use homonym_consensus::{HOmegaPolicy, UncoordinatedHOmegaPolicy};
use homonym_core::prelude::*;
use homonym_detectors::evt_hp::{split_snapshots, EvtHpProcess};
use homonym_detectors::oracle::{OracleWorld, PreStability};
use homonym_sim::prelude::*;

use super::{hps_lossy, majority};

/// Ablates the Leaders' Coordination Phase: Figure 8 vs the same skeleton
/// with the phase removed (a naive port of the anonymous algorithm),
/// under homonymous leaders with *divergent* proposals, over `seeds`
/// seeds. For the coordinated variant and then the uncoordinated one:
/// the seeds whose run decided by `t4000`, and their mean rounds.
///
/// # Panics
///
/// Panics if either variant violates validity or agreement.
fn coordination_phase(n: usize, l: usize, seeds: usize) -> [(usize, f64); 2] {
    let deadline = Time::from_ticks(4_000);
    // The topology is seed-independent: build it once and let every
    // parallel run borrow it (clones inside are refcount bumps).
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = FailureSchedule::none(n);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
    let per_seed = parallel_seed_sweep(seeds, |seed| {
        let run = |coordinated: bool| {
            let (assign, proposals) = (assign.clone(), proposals.clone());
            let r = if coordinated {
                majority(assign, &sched, proposals, deadline, true, seed, |p| {
                    HOmegaPolicy(w.h_omega_for(p, PreStability::Truthful))
                })
            } else {
                majority(assign, &sched, proposals, deadline, true, seed, |p| {
                    UncoordinatedHOmegaPolicy(w.h_omega_for(p, PreStability::Truthful))
                })
            };
            r.decided_by.map(|_| r.rounds)
        };
        [run(true), run(false)]
    });
    [0, 1].map(|variant| {
        let rounds: Vec<u64> = per_seed.iter().filter_map(|r| r[variant]).collect();
        let decided = rounds.len();
        (decided, rounds.iter().sum::<u64>() as f64 / decided.max(1) as f64)
    })
}

/// Ablates the Figure 6 timeout adaptation (lines 33-34): when an
/// adaptive run converged, and when one with `timeout_p` frozen at 1 tick
/// did, at the given `δ`. With a frozen timeout below the round trip,
/// the detector's rounds end before any covering reply arrives and `◇HP`
/// never converges.
fn timeout_adaptation(delta: u64, seed: u64) -> [Option<u64>; 2] {
    [true, false].map(|adaptive| {
        let n = 4;
        let assign = IdentityAssignment::round_robin(n, 2);
        let sched = FailureSchedule::none(n).with_crash(3, Time::from_ticks(20));
        let cfg =
            SimConfig::new(assign.clone(), sched.clone(), hps_lossy(40, delta)).with_seed(seed);
        let mut engine = Engine::new(cfg, |_, _| {
            if adaptive {
                EvtHpProcess::new()
            } else {
                EvtHpProcess::new().with_fixed_timeout(1)
            }
        });
        engine.run_until(Time::from_ticks(6_000));
        let evt: Vec<_> = engine
            .histories()
            .iter()
            .map(|h| split_snapshots(h).0)
            .collect();
        check_evt_hp(&evt, &sched, &assign)
            .ok()
            .map(|r| r.stabilization.ticks())
    })
}

pub fn main() {
    println!("## Ablation A — Leaders' Coordination Phase (Figure 8, Lemma 7)\n");
    println!("n=6, failure-free, divergent proposals, 12 seeds, deadline t4000\n");
    println!("| ℓ | with LC: decided | rounds (mean) | without LC: decided | rounds (mean) |");
    println!("|---|------------------|---------------|---------------------|----------------|");
    let seeds = 12;
    for &l in &[1usize, 2, 3, 6] {
        let [(with, with_rounds), (without, without_rounds)] = coordination_phase(6, l, seeds);
        println!(
            "| {l} | {with}/{seeds} | {with_rounds:.1} | {without}/{seeds} | {without_rounds:.1} |"
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
        let [a, f] = timeout_adaptation(delta, 17 + delta)
            .map(|stab| stab.map_or("never".into(), |t| format!("t{t}")));
        println!("| {delta} | {a} | {f} |");
    }
    println!("\nThe frozen variant never converges (its 1-tick rounds end before");
    println!("any covering reply arrives); adaptation is what buys convergence for unknown δ.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runners_smoke() {
        let [(with_lc_decided, _), _] = coordination_phase(4, 2, 2);
        assert_eq!(with_lc_decided, 2, "coordinated variant always decides");
        let [adaptive, frozen] = timeout_adaptation(2, 12);
        assert!(adaptive.is_some(), "adaptive variant converges");
        assert!(frozen.is_none(), "frozen variant must not converge");
    }
}
