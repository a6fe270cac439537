//! Cross-crate integration: full consensus pipelines with real detector
//! implementations underneath, driven through the session lifecycle API.

use homonym::chaos::session::SessionBuilder;
use homonym::consensus::{HOmegaPolicy, MajorityConsensus, QuorumConsensus};
use homonym::detectors::oracle::{OracleWorld, PreStability};
use homonym::prelude::*;
use homonym::reductions::{APToEvtHP, APToHSigmaProcess, EvtHPToHOmega};

fn hps_delay_only(gst: u64, delta: u64) -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::from_ticks(gst),
        delta: Span::from_ticks(delta),
        pre_gst: PreGstBehavior::DelayOnly {
            max_delay: Span::from_ticks(gst.max(10)),
        },
    }
}

/// The paper's combined §1 result: Figure 6 (real `HΩ` implementation,
/// partially synchronous homonymous system, unknown membership) under
/// Figure 8 consensus, across several GSTs and homonymy degrees.
#[test]
fn fig6_plus_fig8_solves_consensus_in_hps() {
    for (gst, l, seed) in [(0u64, 2usize, 1u64), (60, 1, 2), (60, 3, 3), (150, 2, 4)] {
        let n = 5;
        let sched = FailureSchedule::none(n).with_crash(4, Time::from_ticks(gst / 2 + 5));
        let proposals: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
        let mut session = SessionBuilder::new(n, l)
            .with_seed(seed)
            .with_network(hps_delay_only(gst, 3))
            .with_schedule(sched.clone())
            .with_proposals(proposals.clone())
            .with_deadline_ticks(500_000)
            .fig8();
        session.run();
        check_consensus(&session.engine().outcome(proposals), &sched)
            .unwrap_or_else(|e| panic!("gst={gst} l={l}: {e}"));
    }
}

/// Figure 9 consensus fed exclusively from an `AP` detector through the
/// anonymous reduction pipeline (Lemmas 2-3, Observation 1, Theorem 4) —
/// the paper's "relaxed conditions for anonymous systems" corollary,
/// surviving a crashed majority.
#[test]
fn anonymous_ap_pipeline_feeds_fig9_beyond_majority() {
    let n = 6;
    let assign = IdentityAssignment::anonymous(n);
    // 4 of 6 crash: Figure 8 could never terminate here.
    let sched = FailureSchedule::none(n)
        .with_crash(0, Time::from_ticks(15))
        .with_crash(1, Time::from_ticks(30))
        .with_crash(2, Time::from_ticks(45))
        .with_crash(3, Time::from_ticks(60));
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let proposals: Vec<u64> = vec![60, 50, 40, 30, 20, 10];
    let props = proposals.clone();
    let mut session = SessionBuilder::new(n, 1)
        .with_assignment(assign)
        .with_seed(7)
        .with_network(NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::from_ticks(1),
            max: Span::from_ticks(4),
        }))
        .with_schedule(sched.clone())
        .with_deadline_ticks(300_000)
        .build(|p, _| {
            let ap = world.ap(Span::from_ticks(5));
            let h_sigma = APToHSigmaProcess::new(ap.clone(), Span::from_ticks(2));
            let h_omega = EvtHPToHOmega::new(APToEvtHP::new(ap));
            let consensus = QuorumConsensus::new(props[p], h_omega, HSigmaOutput::new())
                .with_tick(Span::from_ticks(2));
            Stacked::new(h_sigma, consensus)
        });
    session.run();
    let rep =
        check_consensus(&session.engine().outcome(proposals), &sched).expect("consensus holds");
    assert!(rep.value == 10 || rep.value == 20, "survivors' values win");
}

/// Decisions are insensitive to which correct process plays leader: with
/// paralyzing oracles nothing happens before stabilization, then the run
/// completes promptly — and safety holds throughout.
#[test]
fn paralyzed_then_stabilized_detector_is_safe_and_live() {
    for stab in [0u64, 40, 120] {
        let n = 4;
        let assign = IdentityAssignment::round_robin(n, 2);
        let sched = FailureSchedule::none(n).with_crash(1, Time::from_ticks(10));
        let world = OracleWorld::new(sched.clone(), assign, Time::from_ticks(stab));
        let proposals = vec![4, 3, 2, 1];
        let props = proposals.clone();
        let mut session = SessionBuilder::new(n, 2)
            .with_seed(stab)
            .with_network(NetworkModel::reliable(Span::TICK))
            .with_schedule(sched.clone())
            .with_deadline_ticks(100_000)
            .build(|p, _| {
                MajorityConsensus::new(
                    props[p],
                    n,
                    1,
                    HOmegaPolicy(world.h_omega_for(p, PreStability::Paralyzing)),
                )
            });
        session.run();
        let rep =
            check_consensus(&session.engine().outcome(proposals), &sched).expect("consensus holds");
        assert!(
            rep.last_decision >= Time::from_ticks(stab),
            "decided before the paralyzed detector stabilized"
        );
    }
}

/// Same seed, same pipeline ⇒ bit-identical decisions and histories; a
/// different seed reorders the run.
#[test]
fn full_pipeline_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let n = 5;
        let assign = IdentityAssignment::round_robin(n, 2);
        let sched = FailureSchedule::none(n).with_crash(0, Time::from_ticks(22));
        let world = OracleWorld::new(sched.clone(), assign, Time::from_ticks(50));
        let proposals: Vec<u64> = (0..n as u64).collect();
        let props = proposals.clone();
        let mut session = SessionBuilder::new(n, 2)
            .with_seed(seed)
            .with_network(NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                min: Span::from_ticks(1),
                max: Span::from_ticks(6),
            }))
            .with_schedule(sched)
            .with_deadline_ticks(100_000)
            .build(|p, _| {
                MajorityConsensus::new(
                    props[p],
                    n,
                    2,
                    HOmegaPolicy(world.h_omega_for(p, PreStability::Chaotic)),
                )
            });
        session.run();
        let engine = session.engine();
        (engine.decisions().to_vec(), engine.histories().to_vec())
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}
