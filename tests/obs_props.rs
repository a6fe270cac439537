//! Property tests for the observability layer's **zero-cost contract**:
//! across random seeds, network models, link-fault scripts and active
//! `ByzantineScript`s, attaching the `homonym-obs` recorder must not
//! change a single dispatched byte — same traces, same histories, same
//! metrics, same decisions — on the event engine, for the tolerant stack
//! and for Figure 7 (its step process on the synchronous network), and
//! the engine's recorder contents must equal the reference
//! interpreter's; and the recorder's own state must round-trip through
//! `EngineSnapshot` at random cut points (a restored run re-records
//! exactly the events the uninterrupted run recorded).

use homonym::chaos::session::{Goal, SessionBuilder};
use homonym::chaos::sweep::byz_tolerant_node;
use homonym::chaos::{classify_byz_stack, FaultClause, PartitionMode, Scenario};
use homonym::detectors::HSigmaStepProcess;
use homonym::prelude::*;
use homonym::sim::reference::ReferenceEngine;
use proptest::prelude::*;

fn model(kind: u8) -> NetworkModel {
    match kind % 4 {
        0 => NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::TICK,
            max: Span::from_ticks(6),
        }),
        1 => NetworkModel::Synchronous,
        2 => NetworkModel::PartialSync {
            gst: Time::from_ticks(25),
            delta: Span::from_ticks(4),
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 30,
                max_delay: Span::from_ticks(15),
            },
        },
        _ => NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
            base: Span::TICK,
            tail: Span::from_ticks(8),
            slow_percent: 25,
        }),
    }
}

/// A two-group partition plus a loss overlay plus one Byzantine clause
/// of the selected kind — link faults and the payload-mutation hook
/// both live, so the recorder sees attack firings and ledger discards.
fn scenario(n: usize, heal: u64, lose: u8, byz_kind: u8, victims: usize) -> Scenario {
    let sources = vec![0];
    let victims: Vec<usize> = (0..n).rev().take(victims.clamp(1, n)).collect();
    let start = Time::from_ticks(1);
    let until = Time::MAX;
    let byz = match byz_kind % 4 {
        0 => FaultClause::ByzantineEquivocate {
            sources,
            victims,
            start,
            until,
        },
        1 => FaultClause::ByzantineCorrupt {
            sources,
            victims,
            start,
            until,
        },
        2 => FaultClause::ByzantineReplay {
            sources,
            victims,
            start,
            until,
        },
        _ => FaultClause::ByzantineSelectiveSend {
            sources,
            victims,
            start,
            until,
        },
    };
    Scenario::new("obs-props", n)
        .with_clause(FaultClause::Partition {
            groups: vec![(0..n / 2).collect(), (n / 2..n).collect()],
            start: Time::from_ticks(2),
            heal_at: Time::from_ticks(2 + heal),
            mode: PartitionMode::QueueUntilHeal,
        })
        .with_clause(FaultClause::LinkOverlay {
            from: (0..n).collect(),
            to: (0..n).collect(),
            start: Time::ZERO,
            end: Time::from_ticks(10),
            loss_percent: lose.min(60),
            extra_delay: Span::ZERO,
        })
        .with_clause(byz)
}

/// Figure 7 as `HSigmaStepProcess` on the synchronous network, traced,
/// for `steps` lock-step steps (step `s` publishes at tick `2s + 2`).
fn fig7_builder(n: usize, seed: u64, scenario: Scenario, steps: u64) -> SessionBuilder {
    SessionBuilder::new(n, 2)
        .with_seed(seed)
        .with_network(NetworkModel::Synchronous)
        .with_scenario(scenario)
        .with_trace(100_000)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(2 * steps + 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Event engine, Byzantine-tolerant detector + consensus stack under
    /// an active attack: the run with the recorder attached dispatches
    /// the **byte-identical** schedule of the run without — same trace,
    /// same decisions, same metrics — and the attached recorder actually
    /// captures events (the zero-cost claim is about dispatch, not about
    /// recording nothing). The reference interpreter, recorder on or
    /// off, agrees with both — recorder contents included, so the
    /// observe channel rides the dispatch-equality contract too.
    #[test]
    fn recorder_attached_is_byte_identical_event_engine(
        seed in any::<u64>(),
        kind in 0u8..4,
        byz_kind in 0u8..4,
        victims in 1usize..4,
        heal in 1u64..20,
        lose in 0u8..40,
    ) {
        let n = 5;
        let builder = SessionBuilder::new(n, 2)
            .with_seed(seed)
            .with_network(model(kind))
            .with_scenario(scenario(n, heal, lose, byz_kind, victims))
            .with_trace(500_000)
            .with_goal(Goal::TickHorizon)
            .with_deadline_ticks(500);
        let run = |record: bool| {
            let mut builder = builder.clone();
            if record {
                builder = builder.with_recorder(500_000);
            }
            let mut session = builder.byz_tolerant();
            session.engine_mut().set_classifier(classify_byz_stack);
            session.run();
            let engine = session.engine();
            (
                engine.trace().expect("enabled").clone(),
                engine.decisions().to_vec(),
                engine.metrics().clone(),
                engine.recorder().map(|r| r.events().to_vec()),
            )
        };
        let run_reference = |record: bool| {
            let assign = builder.assignment();
            let mut reference = ReferenceEngine::new(builder.sim_config(), |p, _| {
                byz_tolerant_node(100 + p as u64, &assign)
            });
            reference.set_classifier(classify_byz_stack);
            reference.enable_trace(500_000);
            if record {
                reference.enable_recorder(500_000);
            }
            reference.run_until(Time::from_ticks(500));
            (
                reference.trace().expect("enabled").clone(),
                reference.decisions().to_vec(),
                reference.metrics().clone(),
                reference.recorder().map(|r| r.events().to_vec()),
            )
        };
        let (trace, decisions, metrics, none) = run(false);
        let (trace_r, decisions_r, metrics_r, recorded) = run(true);
        prop_assert_eq!(&none, &None);
        prop_assert_eq!(&trace, &trace_r, "trace diverged with the recorder attached");
        prop_assert_eq!(&decisions, &decisions_r);
        prop_assert_eq!(&metrics, &metrics_r);
        prop_assert!(
            !recorded.as_ref().expect("recorder was enabled").is_empty(),
            "the instrumented stack recorded nothing"
        );
        prop_assert_eq!(run_reference(false), (trace, decisions, metrics, none));
        prop_assert_eq!(run_reference(true), (trace_r, decisions_r, metrics_r, recorded));
    }

    /// Figure 7 `HΣ` under an active attack, as `HSigmaStepProcess` on
    /// the synchronous network (step `s` publishes at tick `2s + 2`):
    /// traces, histories and metrics are byte-identical with and without
    /// the recorder, and the recorder captures the per-step
    /// detector-epoch events.
    #[test]
    fn recorder_attached_is_byte_identical_sync_engine(
        seed in any::<u64>(),
        byz_kind in 0u8..4,
        n in 3usize..6,
        victims in 1usize..4,
        heal in 2u64..10,
        steps in 6u64..16,
    ) {
        let builder = fig7_builder(n, seed, scenario(n, heal, 0, byz_kind, victims), steps);
        let run = |record: bool| {
            let mut builder = builder.clone();
            if record {
                builder = builder.with_recorder(100_000);
            }
            let mut session = builder.build(|_, _| HSigmaStepProcess::new(Span::from_ticks(2)));
            session.run();
            let engine = session.engine_mut();
            let recorded = engine.take_recorder().map(|r| r.events().len());
            (
                engine.trace().expect("enabled").clone(),
                engine.histories().to_vec(),
                engine.metrics().clone(),
                recorded,
            )
        };
        let (trace, hist, metrics, none) = run(false);
        let (trace_r, hist_r, metrics_r, recorded) = run(true);
        prop_assert_eq!(none, None);
        prop_assert_eq!(&trace, &trace_r, "trace diverged with the recorder attached");
        prop_assert_eq!(&hist, &hist_r, "histories diverged with the recorder attached");
        prop_assert_eq!(&metrics, &metrics_r);
        // Every alive process observes one DetectorEpoch per step.
        prop_assert!(
            recorded.expect("recorder was enabled") >= n,
            "the Figure 7 recorder captured too little"
        );
    }

    /// Recorder state round-trips through `EngineSnapshot`: a run cut at
    /// a random instant, snapshotted and restored, re-records exactly
    /// the suffix — final recorder contents equal the uninterrupted
    /// run's, as do trace, decisions and metrics.
    #[test]
    fn recorder_roundtrips_through_engine_snapshot(
        seed in any::<u64>(),
        kind in 0u8..4,
        byz_kind in 0u8..4,
        heal in 1u64..20,
        cut in 1u64..120,
    ) {
        let n = 5;
        let scenario = scenario(n, heal, 0, byz_kind, 2);
        let mk = || {
            let mut session = SessionBuilder::new(n, 2)
                .with_seed(seed)
                .with_network(model(kind))
                .with_scenario(scenario.clone())
                .with_trace(500_000)
                .with_recorder(500_000)
                .byz_tolerant();
            session.engine_mut().set_classifier(classify_byz_stack);
            session.into_engine()
        };
        let horizon = Time::from_ticks(400);
        let state = |e: &mut Engine<_>| {
            (
                e.trace().expect("enabled").clone(),
                e.decisions().to_vec(),
                e.metrics().clone(),
                e.take_recorder().expect("enabled").events().to_vec(),
            )
        };

        let mut baseline = mk();
        baseline.run_until(horizon);
        let expected = state(&mut baseline);

        let mut engine = mk();
        engine.run_until(Time::from_ticks(cut));
        let snap = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&state(&mut engine), &expected);
        // `state` consumed the recorder; the snapshot restores it.
        engine.restore_from(&snap);
        engine.run_until(horizon);
        prop_assert_eq!(&state(&mut engine), &expected);
    }

    /// Recorder state round-trips through a snapshot of Figure 7's step
    /// process on the synchronous network, cut at a random step.
    #[test]
    fn recorder_roundtrips_through_sync_snapshot(
        seed in any::<u64>(),
        byz_kind in 0u8..4,
        n in 3usize..6,
        heal in 2u64..10,
        cut in 1u64..10,
        steps in 10u64..18,
    ) {
        let builder = fig7_builder(n, seed, scenario(n, heal, 0, byz_kind, 2), steps);
        let mk = || {
            (builder.clone().with_recorder(100_000))
                .build(|_, _| HSigmaStepProcess::new(Span::from_ticks(2)))
                .into_engine()
        };
        let horizon = Time::from_ticks(2 * steps + 1);
        let state = |e: &mut Engine<HSigmaStepProcess>| {
            (
                e.trace().expect("enabled").clone(),
                e.histories().to_vec(),
                e.metrics().clone(),
                e.take_recorder().expect("enabled").events().to_vec(),
            )
        };

        let mut baseline = mk();
        baseline.run_until(horizon);
        let expected = state(&mut baseline);

        let mut engine = mk();
        engine.run_until(Time::from_ticks(2 * cut.min(steps - 1) + 1));
        let snap = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&state(&mut engine), &expected);
        engine.restore_from(&snap);
        engine.run_until(horizon);
        prop_assert_eq!(&state(&mut engine), &expected);
    }
}
