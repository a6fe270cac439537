//! Experiment E7 — Figure 7: `HΣ` in `HSS[∅]` (Theorem 6).
//!
//! Claims reproduced: liveness locks in on the first step after the last
//! crash; the quorum-label universe is one label per alive-set epoch
//! (plus partial-delivery variants in crash steps); safety holds across
//! all of them.

use homonym_chaos::SessionBuilder;
use homonym_core::prelude::*;

use super::{latest, staggered_crashes};

/// Runs Figure 7 for `steps` lock-step rounds: the step by which the
/// liveness predicate had locked in, the distinct quorum labels observed
/// (≈ alive-set epochs + crash-step variants) and the `IDENT`
/// broadcasts.
///
/// # Panics
///
/// Panics if the run violates the `HΣ` class properties.
fn h_sigma(n: usize, l: usize, crashes: usize, steps: u64, seed: u64) -> (u64, usize, u64) {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, steps.saturating_sub(2).max(1));
    let mut session = SessionBuilder::new(n, l)
        .with_seed(seed)
        .with_schedule(sched.clone())
        .with_deadline_ticks(steps)
        .sync_hsigma();
    session.run();
    let engine = session.engine();
    let rep = check_h_sigma(engine.histories(), &sched, &assign).expect("HΣ class valid");
    (
        latest(&rep.liveness_from),
        rep.labels_observed,
        engine.metrics().broadcasts,
    )
}

pub fn main() {
    println!("## E7 — HΣ in HSS (Figure 7)\n");
    println!("| n | ℓ | crashes | steps | liveness by step | labels | IDENT msgs |");
    println!("|---|---|---------|-------|------------------|--------|------------|");
    for &(n, l) in &[(4usize, 2usize), (6, 3), (8, 2), (12, 4)] {
        for crashes in [0usize, 1, n / 3] {
            let (liveness_by, labels, broadcasts) = h_sigma(n, l, crashes, 10, 3 + n as u64);
            println!("| {n} | {l} | {crashes} | 10 | {liveness_by} | {labels} | {broadcasts} |");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_runner_smoke() {
        let (liveness_by, labels, _) = h_sigma(5, 2, 1, 8, 6);
        assert!(labels >= 2);
        assert!(liveness_by <= 8);
    }
}
