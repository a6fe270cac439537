//! The paper's second combined result (§1): Figure 7 (`HΣ`) + Figure 6
//! (`HΩ` via `◇HP`) + Figure 9 consensus, composed, solve consensus in
//! **synchronous homonymous systems with any number of crash failures**,
//! without initial knowledge of `t` or of the membership.
//!
//! Here all three layers run as real message-passing processes inside one
//! simulated process (a triple stack) over the synchronous network model —
//! no oracles anywhere in the data path.

use homonym::consensus::QuorumConsensus;
use homonym::detectors::evt_hp::EvtHpProcess;
use homonym::detectors::h_sigma_step::HSigmaStepProcess;
use homonym::prelude::*;

type Node =
    Stacked<HSigmaStepProcess, Stacked<EvtHpProcess, QuorumConsensus<HOmegaOutput, HSigmaOutput>>>;

fn node(proposal: u64) -> Node {
    let omega = HOmegaOutput::new(Identity::BOTTOM, 1);
    let consensus =
        QuorumConsensus::new(proposal, omega, HSigmaOutput::new()).with_tick(Span::from_ticks(2));
    let h_sigma = HSigmaStepProcess::new(Span::from_ticks(2));
    Stacked::new(h_sigma, Stacked::new(EvtHpProcess::new(), consensus))
}

fn run_combined(
    assign: IdentityAssignment,
    sched: FailureSchedule,
    proposals: Vec<u64>,
    seed: u64,
) -> Result<u64, homonym::core::properties::PropertyViolation> {
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::Synchronous).with_seed(seed);
    let mut engine: Engine<Node> = Engine::new(cfg, |p, _| node(props[p]));
    engine.run_until_all_correct_decided(Time::from_ticks(300_000));
    check_consensus(&engine.outcome(proposals), &sched).map(|r| r.value)
}

#[test]
fn synchronous_any_t_consensus_with_real_detectors() {
    // 5 of 6 processes crash — far beyond any majority.
    let n = 6;
    let assign = IdentityAssignment::round_robin(n, 2);
    let sched = FailureSchedule::none(n)
        .with_crash(0, Time::from_ticks(11))
        .with_crash(1, Time::from_ticks(19))
        .with_crash(2, Time::from_ticks(27))
        .with_crash(4, Time::from_ticks(35))
        .with_crash(5, Time::from_ticks(43));
    let v = run_combined(assign, sched, vec![16, 25, 34, 43, 52, 61], 2)
        .expect("consensus holds with t = n - 1");
    assert!([16, 25, 34, 43, 52, 61].contains(&v));
}

#[test]
fn works_at_every_homonymy_degree() {
    for l in 1..=4usize {
        let n = 4;
        let assign = IdentityAssignment::round_robin(n, l);
        let sched = FailureSchedule::none(n)
            .with_crash(1, Time::from_ticks(13))
            .with_crash(2, Time::from_ticks(23));
        run_combined(assign, sched, vec![4, 3, 2, 1], 10 + l as u64)
            .unwrap_or_else(|e| panic!("l={l}: {e}"));
    }
}

#[test]
fn failure_free_run_decides_quickly() {
    let n = 5;
    let assign = IdentityAssignment::round_robin(n, 2);
    let sched = FailureSchedule::none(n);
    let proposals = vec![50, 10, 40, 20, 30];
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::Synchronous).with_seed(5);
    let mut engine: Engine<Node> = Engine::new(cfg, |p, _| node(props[p]));
    engine.run_until_all_correct_decided(Time::from_ticks(300_000));
    let rep = check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    assert!(
        rep.last_decision < Time::from_ticks(500),
        "failure-free synchronous run should decide fast, took {}",
        rep.last_decision
    );
}

/// The failure-free triple stack, pinned: the decided value, the instant
/// of the last decision and the broadcasts it took. Both detectors feed
/// the consensus half, so a reading that reaches it late (or never)
/// moves one of the three.
#[test]
fn the_failure_free_triple_stack_is_pinned() {
    let n = 5;
    let sched = FailureSchedule::none(n);
    let proposals = vec![50, 10, 40, 20, 30];
    let props = proposals.clone();
    let cfg = SimConfig::new(
        IdentityAssignment::round_robin(n, 2),
        sched.clone(),
        NetworkModel::Synchronous,
    )
    .with_seed(5);
    let mut engine: Engine<Node> = Engine::new(cfg, |p, _| node(props[p]));
    engine.run_until_all_correct_decided(Time::from_ticks(300_000));
    let rep = check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    assert_eq!(
        (rep.value, rep.last_decision, engine.metrics().broadcasts),
        (50, Time::from_ticks(11), 160)
    );
}

#[test]
fn many_seeds_stay_correct() {
    for seed in 0..6 {
        let n = 5;
        let assign = IdentityAssignment::round_robin(n, 3);
        let sched = FailureSchedule::none(n)
            .with_crash((seed % 5) as usize, Time::from_ticks(9 + seed))
            .with_crash(((seed + 2) % 5) as usize, Time::from_ticks(21 + seed))
            .with_crash(((seed + 4) % 5) as usize, Time::from_ticks(33 + seed));
        run_combined(
            assign,
            sched,
            vec![seed, seed + 10, seed + 20, seed + 30, seed + 40],
            seed,
        )
        .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
    }
}
