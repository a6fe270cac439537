//! Unit-level checks of protocol details: message classification, state
//! accessors, and buffer hygiene of the consensus processes.

use homonym_consensus::{
    classify_byz, classify_fig8, classify_fig9, classify_flood, mutate_byz_msg, ByzMsg,
    ByzQuorumConsensus, Fig8Msg, Fig9Msg, FloodMsg, HOmegaPolicy, MajorityConsensus,
    QuorumConsensus, QuorumMsg,
};
use homonym_core::prelude::*;
use homonym_detectors::oracle::{OracleWorld, PreStability};
use homonym_sim::prelude::*;
use std::collections::BTreeSet;

#[test]
fn fig8_message_classes_cover_all_variants() {
    let msgs = [
        (
            Fig8Msg::Coord {
                id: Identity::new(0),
                round: 1,
                est: 2,
            },
            "COORD",
        ),
        (Fig8Msg::Ph0 { round: 1, est: 2 }, "PH0"),
        (Fig8Msg::Ph1 { round: 1, est: 2 }, "PH1"),
        (
            Fig8Msg::Ph2 {
                round: 1,
                est2: None,
            },
            "PH2",
        ),
        (Fig8Msg::Decide { value: 2 }, "DECIDE"),
    ];
    for (m, want) in msgs {
        assert_eq!(classify_fig8(&m), want);
    }
}

#[test]
fn fig9_message_classes_cover_all_variants() {
    let q = QuorumMsg {
        id: Identity::new(0),
        round: 1,
        sr: 1,
        labels: BTreeSet::new(),
        est: Some(3),
    };
    let msgs = [
        (
            Fig9Msg::Coord {
                id: Identity::new(0),
                round: 1,
                est: 2,
            },
            "COORD",
        ),
        (Fig9Msg::Ph0 { round: 1, est: 2 }, "PH0"),
        (Fig9Msg::Ph1(q.clone()), "PH1"),
        (Fig9Msg::Ph2(q), "PH2"),
        (Fig9Msg::Decide { value: 2 }, "DECIDE"),
    ];
    for (m, want) in msgs {
        assert_eq!(classify_fig9(&m), want);
    }
    assert_eq!(
        classify_flood(&FloodMsg {
            round: 1,
            id: None,
            est: 0
        }),
        "EST"
    );
}

#[test]
fn accessors_report_progress() {
    let sched = FailureSchedule::none(3);
    let assign = IdentityAssignment::unique(3);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let cfg = SimConfig::new(assign, sched, NetworkModel::reliable(Span::TICK));
    let mut engine = Engine::new(cfg, |p, _| {
        MajorityConsensus::new(
            p as u64,
            3,
            1,
            HOmegaPolicy(w.h_omega_for(p, PreStability::Truthful)),
        )
    });
    assert_eq!(engine.process(0).round(), 0, "not started yet");
    assert!(!engine.process(0).has_decided());
    engine.run_until_all_correct_decided(Time::from_ticks(10_000));
    assert!(engine.process(0).has_decided());
    assert!(engine.process(0).round() >= 1);
}

#[test]
fn fig9_accessors_report_progress() {
    let sched = FailureSchedule::none(2);
    let assign = IdentityAssignment::anonymous(2);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let cfg = SimConfig::new(assign, sched, NetworkModel::reliable(Span::TICK));
    let mut engine = Engine::new(cfg, |p, _| {
        QuorumConsensus::new(
            10 + p as u64,
            w.h_omega_for(p, PreStability::Truthful),
            w.h_sigma_for(p, PreStability::Truthful),
        )
    });
    engine.run_until_all_correct_decided(Time::from_ticks(10_000));
    assert!(engine.process(0).has_decided());
    assert!(engine.process(1).round() >= 1);
}

/// Decisions must be identical no matter how extreme the message
/// reordering is — stress with the heaviest tail the network model
/// offers, many seeds.
#[test]
fn reordering_does_not_change_safety() {
    for seed in 0..15 {
        let n = 5;
        let assign = IdentityAssignment::round_robin(n, 2);
        let sched = FailureSchedule::none(n).with_crash(4, Time::from_ticks(9));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(40));
        let proposals: Vec<u64> = vec![5, 4, 3, 2, 1];
        let props = proposals.clone();
        let cfg = SimConfig::new(
            assign,
            sched.clone(),
            NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
                base: Span::TICK,
                tail: Span::from_ticks(60),
                slow_percent: 35,
            }),
        )
        .with_seed(seed);
        let mut engine = Engine::new(cfg, |p, _| {
            MajorityConsensus::new(
                props[p],
                n,
                2,
                HOmegaPolicy(w.h_omega_for(p, PreStability::Chaotic)),
            )
        });
        engine.run_until_all_correct_decided(Time::from_ticks(300_000));
        check_consensus(&engine.outcome(proposals), &sched)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A late joiner to a round (started after everyone else finished it)
/// still catches up through buffered future-round messages.
#[test]
fn slow_process_catches_up_through_buffered_rounds() {
    // One process's messages crawl (per-copy sampling means *its* links
    // are as slow as anyone's), yet agreement and termination hold.
    let n = 4;
    let assign = IdentityAssignment::round_robin(n, 2);
    let sched = FailureSchedule::none(n);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(100));
    let proposals = vec![9, 8, 7, 6];
    let props = proposals.clone();
    let cfg = SimConfig::new(
        assign,
        sched.clone(),
        NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
            base: Span::TICK,
            tail: Span::from_ticks(120),
            slow_percent: 20,
        }),
    )
    .with_seed(77);
    let mut engine = Engine::new(cfg, |p, _| {
        MajorityConsensus::new(
            props[p],
            n,
            1,
            HOmegaPolicy(w.h_omega_for(p, PreStability::Paralyzing)),
        )
    });
    let reason = engine.run_until_all_correct_decided(Time::from_ticks(500_000));
    assert_eq!(reason, StopReason::ConditionMet);
    check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
}

/// Message buffers must stay bounded even when rounds churn for a long
/// time (paralyzed detector forces many rounds of {⊥} skipping... here we
/// instead check after a normal long-ish run that pruning kept buffers at
/// round-local sizes).
#[test]
fn buffers_stay_bounded_across_rounds() {
    let n = 6;
    let assign = IdentityAssignment::round_robin(n, 2);
    let sched = FailureSchedule::none(n);
    // Stabilize very late so the run burns through many rounds first.
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(1_500));
    let proposals: Vec<u64> = (0..n as u64).collect();
    let props = proposals.clone();
    let cfg =
        SimConfig::new(assign, sched.clone(), NetworkModel::reliable(Span::TICK)).with_seed(3);
    let mut engine = Engine::new(cfg, |p, _| {
        MajorityConsensus::new(
            props[p],
            n,
            2,
            HOmegaPolicy(w.h_omega_for(p, PreStability::Chaotic)),
        )
    });
    // Probe buffer sizes mid-run, well before stabilization.
    engine.run_until(Time::from_ticks(1_000));
    for p in 0..n {
        let proc_ = engine.process(p);
        if proc_.has_decided() {
            continue;
        }
        let buffered = proc_.buffered_messages();
        // A round holds at most ~4 message kinds × n senders (+ stragglers
        // from the immediately following round); anything near
        // rounds × n would mean pruning is broken.
        assert!(
            buffered <= 12 * n,
            "process {p} buffers {buffered} messages after {} rounds",
            proc_.round()
        );
        assert!(proc_.round() > 20, "expected many rounds of churn");
    }
    engine.run_until_all_correct_decided(Time::from_ticks(500_000));
    check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
}

/// Every link delay of the coordination tests below, in ticks.
const DELAY: u64 = 2;
/// `ByzQuorumConsensus`'s wait for a silent coordinator carrier.
const PHASE_GRACE: u64 = 10;

/// Runs the tolerant stack over eight processes proposing
/// [`PROPOSALS`] under `l` labels, on links of exactly [`DELAY`] ticks;
/// returns each process's `(tick, value)`.
fn byz_decisions(l: usize, sched: FailureSchedule) -> Vec<Option<(Time, u64)>> {
    let assign = IdentityAssignment::round_robin(8, l);
    let a = assign.clone();
    let cfg = SimConfig::new(
        assign,
        sched,
        NetworkModel::reliable(Span::from_ticks(DELAY)),
    );
    let mut e = Engine::new(cfg, move |p, _| ByzQuorumConsensus::new(PROPOSALS[p], &a));
    e.run_until_all_correct_decided(Time::from_ticks(1_000));
    e.decisions().to_vec()
}

/// Round 0 belongs to label 0. With ℓ = 4 its carriers are p0 and p4,
/// with ℓ = 2 they are p0, p2, p4 and p6; neither set holds the globally
/// smallest proposal, so the decided value shows who coordinated.
const PROPOSALS: [u64; 8] = [50, 3, 45, 5, 40, 6, 60, 8];

#[test]
fn a_clean_round_decides_the_coordinators_minimum_in_three_delays() {
    for (l, want) in [(4, 40), (2, 40)] {
        let decisions = byz_decisions(l, FailureSchedule::none(8));
        // COORD, VOTE, COMMIT: round 0 cannot be left undecided before
        // the grace, so a decision at three delays is a round-0 one.
        let at = Time::from_ticks(3 * DELAY);
        assert_eq!(decisions, vec![Some((at, want)); 8], "l = {l}");
    }
}

#[test]
fn a_crashed_coordinator_carrier_costs_one_grace() {
    // p4 never speaks: the other carriers' minimum wins, one grace (the
    // wait for p4's COORD) plus VOTE and COMMIT after the start.
    for (l, want) in [(4, 50), (2, 45)] {
        let sched = FailureSchedule::none(8).with_crash(4, Time::ZERO);
        let decisions = byz_decisions(l, sched);
        let at = Time::from_ticks(PHASE_GRACE + 2 * DELAY);
        for (p, d) in decisions.iter().enumerate() {
            let expected = (p != 4).then_some((at, want));
            assert_eq!(*d, expected, "l = {l}, process {p}");
        }
    }
}

#[test]
fn byz_coord_classifies_round_trips_and_mutates_like_a_vote() {
    let msg = ByzMsg::Coord {
        id: Identity::new(3),
        round: 7,
        est: 41,
        locked: true,
    };
    assert_eq!(classify_byz(&msg), "COORD");
    let bytes = homonym_core::wire::to_bytes(&msg);
    let back: ByzMsg = homonym_core::wire::from_bytes(&bytes).expect("decodes");
    assert_eq!(back, msg);
    for entropy in 0..16 {
        let ByzMsg::Coord {
            id,
            round,
            est,
            locked,
        } = mutate_byz_msg(&msg, entropy)
        else {
            panic!("a forged COORD is still a COORD");
        };
        assert_eq!((id, round), (Identity::new(3), 7), "the forgery hides");
        assert_ne!(est, 41, "the estimate is what gets forged");
        assert_eq!(locked, entropy % 2 == 0, "and the lock claim re-rolled");
    }
}
