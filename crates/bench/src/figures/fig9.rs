//! Experiment E9 — Figure 9: consensus in `HAS[HΩ, HΣ]` (Theorem 8).
//!
//! Claims reproduced:
//! * terminates for **any** number of crashes, including a crashed
//!   majority, where Figure 8 provably blocks (its `n − t` waits starve);
//! * neither `n` nor `t` is supplied to the processes;
//! * every decision is checker-verified.

use homonym_consensus::{HOmegaPolicy, QuorumConsensus};
use homonym_core::prelude::*;
use homonym_detectors::oracle::{OracleWorld, PreStability};
use homonym_sim::prelude::*;

use super::{async_net, decided_by, majority, max_round, staggered_crashes, Consensus};

/// Runs Figure 9 with oracle detectors; tolerates any number of crashes.
///
/// # Panics
///
/// Panics on any consensus property violation, termination included.
fn fig9(n: usize, l: usize, crashes: usize, stabilize: u64, seed: u64) -> Consensus {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, stabilize.max(20));
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let cfg = SimConfig::new(assign, sched.clone(), async_net(1, 5)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        QuorumConsensus::new(
            proposals[p],
            w.h_omega_for(p, PreStability::Chaotic),
            w.h_sigma_for(p, PreStability::Truthful),
        )
    });
    engine.run_until_all_correct_decided(Time::from_ticks(60 * stabilize.max(20) + 30_000));
    Consensus {
        decided_by: decided_by(&engine.outcome(proposals), &sched, false),
        rounds: max_round(engine.histories()),
        broadcasts: engine.metrics().broadcasts,
    }
}

/// Whether Figure 8 decides by `t30000` under `crashes ≥ n/2` crashes.
/// They land at `t = 1`, before any quorum can form, so blocking is
/// guaranteed rather than a race between round latency and the crash
/// schedule.
///
/// # Panics
///
/// Panics if safety breaks.
fn fig8_decides_beyond_majority(n: usize, crashes: usize, seed: u64) -> bool {
    assert!(2 * crashes >= n, "this experiment needs a crashed majority");
    let assign = IdentityAssignment::round_robin(n, 2.min(n));
    let mut sched = FailureSchedule::none(n);
    for k in 0..crashes.min(n - 1) {
        sched.set_crash(n - 1 - k, Time::from_ticks(1));
    }
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(10));
    let proposals = (0..n as u64).map(|i| i * 10).collect();
    let deadline = Time::from_ticks(30_000);
    let r = majority(assign, &sched, proposals, deadline, true, seed, |p| {
        HOmegaPolicy(w.h_omega_for(p, PreStability::Chaotic))
    });
    r.decided_by.is_some()
}

pub fn main() {
    println!("## E9 — consensus with (HΩ, HΣ), any t (Figure 9)\n");
    println!("### crash sweep at n=6, ℓ=2 (stabilize t=40)\n");
    println!("| crashes | Fig 9 decided | Fig 9 last decision | Fig 9 rounds | Fig 8 decided |");
    println!("|---------|---------------|---------------------|--------------|----------------|");
    for crashes in 0usize..=5 {
        let r9 = fig9(6, 2, crashes, 40, 51 + crashes as u64);
        let fig8 = if 2 * crashes >= 6 {
            assert!(!fig8_decides_beyond_majority(
                6,
                crashes,
                51 + crashes as u64
            ));
            "blocks (as predicted)"
        } else {
            "decides"
        };
        println!(
            "| {crashes} | {} | t{} | {} | {fig8} |",
            r9.decided_by.is_some(),
            r9.decided_by.unwrap_or(0),
            r9.rounds
        );
    }

    println!("\n### homonymy sweep (n=6, 3 crashes — beyond majority)\n");
    println!("| ℓ | decided | last decision | broadcasts |");
    println!("|---|---------|---------------|------------|");
    for &l in &[1usize, 2, 3, 6] {
        let r = fig9(6, l, 3, 40, 61 + l as u64);
        println!(
            "| {l} | {} | t{} | {} |",
            r.decided_by.is_some(),
            r.decided_by.unwrap_or(0),
            r.broadcasts
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_runner_smoke_beyond_majority() {
        let r = fig9(4, 2, 3, 20, 9);
        assert!(r.decided_by.is_some(), "Figure 9 must tolerate any t");
        assert!(!fig8_decides_beyond_majority(4, 2, 9));
    }
}
