//! Experiment E11 — the "price of anonymity" round-complexity gap
//! (context claim cited from \[5\] in §1).
//!
//! Claim reproduced: classical flooding with `P` decides in `t + 1`
//! rounds; anonymous flooding with `AP` needs `2t + 1` — a 2× gap that
//! both variants' checkers confirm is not paid in correctness.

use homonym_consensus::{AnonFloodingConsensus, PFloodingConsensus};
use homonym_core::prelude::*;
use homonym_detectors::oracle::OracleWorld;
use homonym_sim::prelude::*;

use super::{async_net, max_round, staggered_crashes};

/// Runs one flooding variant over `assign` until every correct process
/// decided: its rounds and broadcasts. Process `p` proposes
/// `proposals[p]` through `node(world, proposal)`.
///
/// # Panics
///
/// Panics on any consensus property violation.
fn flood<P: Process<Output = u64>>(
    assign: IdentityAssignment,
    sched: &FailureSchedule,
    proposals: &[u64],
    seed: u64,
    node: impl Fn(&OracleWorld, u64) -> P,
) -> (u64, u64) {
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let cfg = SimConfig::new(assign, sched.clone(), async_net(1, 4)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| node(&w, proposals[p]));
    engine.run_until_all_correct_decided(Time::from_ticks(100_000));
    check_consensus(&engine.outcome(proposals.to_vec()), sched).expect("flooding holds");
    (max_round(engine.histories()), engine.metrics().broadcasts)
}

/// Runs both flooding baselines at `n = 2t + 1` with `f` actual crashes:
/// the rounds and broadcasts of the `P` variant, then of the `AP`
/// variant.
fn flooding(t: usize, f: usize, seed: u64) -> [(u64, u64); 2] {
    let n = 2 * t + 1;
    let sched = staggered_crashes(n, f.min(t), 25);
    let proposals: Vec<u64> = (0..n as u64).map(|i| 7 * i + 3).collect();
    [
        flood(IdentityAssignment::unique(n), &sched, &proposals, seed, |w, v| {
            PFloodingConsensus::new(v, t, w.sigma(Span::ZERO))
        }),
        flood(IdentityAssignment::anonymous(n), &sched, &proposals, seed, |w, v| {
            AnonFloodingConsensus::new(v, t, w.ap(Span::from_ticks(4)))
        }),
    ]
}

pub fn main() {
    println!("## E11 — price of anonymity: P (t+1) vs AP (2t+1)\n");
    println!("| t | n | P rounds | AP rounds | P msgs | AP msgs |");
    println!("|---|---|----------|-----------|--------|---------|");
    for t in 1usize..=5 {
        let [(p_rounds, p_msgs), (ap_rounds, ap_msgs)] = flooding(t, t, 91 + t as u64);
        println!(
            "| {t} | {} | {p_rounds} | {ap_rounds} | {p_msgs} | {ap_msgs} |",
            2 * t + 1
        );
        assert_eq!(p_rounds, t as u64 + 1);
        assert_eq!(ap_rounds, 2 * t as u64 + 1);
    }
    println!("\nThe AP variant always needs 2t+1 rounds — twice the identifier-aware bound.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_runner_smoke() {
        let [(p_rounds, _), (ap_rounds, _)] = flooding(1, 1, 11);
        assert_eq!(p_rounds, 2);
        assert_eq!(ap_rounds, 3);
    }
}
