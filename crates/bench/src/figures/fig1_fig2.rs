//! Experiment E1/E2 — Figures 1-2: Σ → HΣ transformations (Theorem 1).
//!
//! Claim reproduced: both variants emit class-valid `HΣ` output; Figure 1
//! does so with **zero** communication, Figure 2 pays `IDENT` traffic to
//! learn the membership; label universes match `2^(n-1)` per process.

use homonym_core::prelude::*;
use homonym_detectors::oracle::OracleWorld;
use homonym_reductions::SigmaToHSigmaProcess;
use homonym_sim::prelude::*;

use super::{async_net, latest, staggered_crashes};

/// Runs Figure 1 (`membership_known`) or Figure 2 over `n`
/// unique-identifier processes with `crashes` staggered crashes: when
/// the `HΣ` liveness predicate had locked in at every correct process,
/// the labels observed and the `IDENT` broadcasts (0 for Figure 1).
///
/// # Panics
///
/// Panics if the output violates the `HΣ` class properties.
pub(super) fn sigma_to_h_sigma(
    n: usize,
    crashes: usize,
    membership_known: bool,
    seed: u64,
) -> (u64, usize, u64) {
    let assign = IdentityAssignment::unique(n);
    let sched = staggered_crashes(n, crashes, 30);
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let cfg = SimConfig::new(assign.clone(), sched.clone(), async_net(1, 4)).with_seed(seed);
    let membership = assign.multiset().to_set();
    let mut engine = Engine::new(cfg, move |_, _| {
        let sigma = world.sigma(Span::from_ticks(8));
        if membership_known {
            SigmaToHSigmaProcess::with_known_membership(
                sigma,
                membership.clone(),
                Span::from_ticks(3),
            )
        } else {
            SigmaToHSigmaProcess::learning_membership(sigma, Span::from_ticks(3))
        }
    });
    engine.run_until(Time::from_ticks(150));
    let rep = check_h_sigma(engine.histories(), &sched, &assign).expect("HΣ class valid");
    (
        latest(&rep.liveness_from),
        rep.labels_observed,
        engine.metrics().broadcasts,
    )
}

pub fn main() {
    println!("## E1/E2 — Σ → HΣ (Figures 1-2, Theorem 1)\n");
    println!("| n | crashes | membership | liveness by | labels | IDENT msgs |");
    println!("|---|---------|------------|-------------|--------|------------|");
    for &(n, crashes) in &[(3usize, 0usize), (4, 1), (5, 2), (6, 2), (8, 3)] {
        for known in [true, false] {
            let (liveness_by, labels, broadcasts) =
                sigma_to_h_sigma(n, crashes, known, 42 + n as u64);
            println!(
                "| {n} | {crashes} | {} | t{liveness_by} | {labels} | {broadcasts} |",
                if known {
                    "known (Fig 1)"
                } else {
                    "learned (Fig 2)"
                },
            );
        }
    }
    println!("\nFig 1 rows must show 0 IDENT msgs (communication-free).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_runners_smoke() {
        let (_, labels1, broadcasts1) = sigma_to_h_sigma(3, 1, true, 1);
        assert_eq!(broadcasts1, 0, "Figure 1 must be silent");
        let (_, labels2, broadcasts2) = sigma_to_h_sigma(3, 1, false, 1);
        assert!(broadcasts2 > 0);
        assert_eq!(labels1, labels2);
    }
}
