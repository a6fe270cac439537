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

use homonym_consensus::QuorumConsensus;
use homonym_core::prelude::*;
use homonym_detectors::ap_estimator::ApEstimatorProcess;
use homonym_detectors::evt_hp::EvtHpProcess;
use homonym_detectors::h_sigma_step::HSigmaStepProcess;
use homonym_sim::prelude::*;

use super::{decided_by, staggered_crashes};

/// Runs the windowed-count `AP` estimator under the synchronous model or
/// under `HPS` with pre-GST delays over `seeds` seeds: how many runs
/// satisfied the full `AP` class. The others violated its perpetual
/// safety bound.
///
/// # Panics
///
/// Panics if a violation is anything but `AP` safety.
fn ap_realism(synchronous: bool, seeds: usize) -> usize {
    let n = 5;
    // Seed-independent setup, shared by every parallel run.
    let assign = IdentityAssignment::anonymous(n);
    let sched = staggered_crashes(n, 1, 20);
    let network = if synchronous {
        NetworkModel::Synchronous
    } else {
        NetworkModel::PartialSync {
            gst: Time::from_ticks(60),
            delta: Span::TICK,
            pre_gst: PreGstBehavior::DelayOnly {
                max_delay: Span::from_ticks(30),
            },
        }
    };
    let verdicts = parallel_seed_sweep(seeds, |seed| {
        let mut cfg =
            SimConfig::new(assign.clone(), sched.clone(), network.clone()).with_seed(seed);
        cfg.partial_broadcast_on_crash = false;
        let mut engine = Engine::new(cfg, |_, _| ApEstimatorProcess::new(Span::from_ticks(2)));
        engine.run_until(Time::from_ticks(250));
        match check_ap(engine.histories(), &sched) {
            Ok(_) => true,
            Err(e) => {
                assert_eq!(e.property, "safety", "unexpected violation: {e}");
                false
            }
        }
    });
    verdicts.iter().filter(|&&ok| ok).count()
}

/// Runs the triple stack (step-paced Figure 7 `HΣ`, Figure 6 `HΩ`,
/// Figure 9 consensus) over the synchronous model with `crashes`
/// crashes: the tick by which every correct process decided, and the
/// broadcasts of all three layers.
///
/// # Panics
///
/// Panics on any consensus property violation, termination included.
fn synchronous(n: usize, l: usize, crashes: usize, seed: u64) -> (Option<u64>, u64) {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, 40);
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 5 + 2).collect();
    let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::Synchronous).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        let omega = HOmegaOutput::new(Identity::BOTTOM, 1);
        let consensus = QuorumConsensus::new(proposals[p], omega, HSigmaOutput::new())
            .with_tick(Span::from_ticks(2));
        let h_sigma = HSigmaStepProcess::new(Span::from_ticks(2));
        Stacked::new(h_sigma, Stacked::new(EvtHpProcess::new(), consensus))
    });
    engine.run_until_all_correct_decided(Time::from_ticks(300_000));
    (
        decided_by(&engine.outcome(proposals), &sched, false),
        engine.metrics().broadcasts,
    )
}

pub fn main() {
    println!("## E12 — AP implementability boundary\n");
    println!("windowed-count AP estimator, n=5 anonymous, 1 crash, 12 seeds\n");
    println!("| network | class-valid | safety violations |");
    println!("|---------|-------------|-------------------|");
    let seeds = 12;
    for (synchronous, network) in [(true, "synchronous"), (false, "HPS (pre-GST delays)")] {
        let valid = ap_realism(synchronous, seeds);
        println!(
            "| {network} | {valid}/{seeds} | {}/{seeds} |",
            seeds - valid
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
        let (decided_by, broadcasts) = synchronous(n, l, crashes, 3 + n as u64);
        println!(
            "| {n} | {l} | {crashes} | {} | t{} | {broadcasts} |",
            decided_by.is_some(),
            decided_by.unwrap_or(0)
        );
    }
    println!("\nEvery row decides — including crashed majorities — with neither");
    println!("t nor n nor the membership known to any process.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ap_realism_smoke() {
        assert_eq!(ap_realism(true, 3), 3);
        let violations = 3 - ap_realism(false, 3);
        assert!(violations > 0);
    }

    #[test]
    fn combined_synchronous_smoke() {
        let (decided_by, _) = synchronous(4, 2, 3, 13);
        assert!(decided_by.is_some());
    }
}
