//! Trace-level determinism audit of the full stacked pipeline: identical
//! seeds must reproduce the exact engine event sequence, and the trace
//! must tell a coherent story (decisions present, halts after decisions).

use homonym::consensus::{classify_fig8, Fig8Msg, HOmegaPolicy, MajorityConsensus};
use homonym::detectors::evt_hp::{EvtHpMsg, EvtHpProcess};
use homonym::prelude::*;
use homonym::sim::reference::ReferenceEngine;

type Node = Stacked<EvtHpProcess, MajorityConsensus<HOmegaPolicy<HOmegaOutput>>>;

fn classify(msg: &Either<EvtHpMsg, Fig8Msg>) -> &'static str {
    match msg {
        Either::L(_) => "detector",
        Either::R(m) => classify_fig8(m),
    }
}

fn run(seed: u64) -> (Recorder, Vec<Option<(Time, u64)>>) {
    run_on(
        seed,
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::TICK,
            max: Span::from_ticks(5),
        }),
    )
}

const DEADLINE: Time = Time::from_ticks(100_000);

fn config(seed: u64, network: NetworkModel) -> SimConfig {
    let assign = IdentityAssignment::round_robin(4, 2);
    let sched = FailureSchedule::none(4).with_crash(3, Time::from_ticks(30));
    SimConfig::new(assign, sched, network).with_seed(seed)
}

fn node(p: usize, _id: Identity) -> Node {
    let proposals: [u64; 4] = [9, 5, 7, 3];
    let reading = HOmegaOutput::new(Identity::BOTTOM, 1);
    let consensus = MajorityConsensus::new(proposals[p], 4, 1, HOmegaPolicy(reading))
        .with_tick(Span::from_ticks(2));
    Stacked::new(EvtHpProcess::new(), consensus)
}

fn run_on(seed: u64, network: NetworkModel) -> (Recorder, Vec<Option<(Time, u64)>>) {
    let mut engine: Engine<Node> = Engine::new(config(seed, network), node);
    engine.set_classifier(classify);
    engine.enable_trace(500_000);
    engine.run_until_all_correct_decided(DEADLINE);
    (
        engine.trace().expect("enabled").clone(),
        engine.decisions().to_vec(),
    )
}

/// The same run on the naive reference interpreter.
fn run_reference(seed: u64, network: NetworkModel) -> (Recorder, Vec<Option<(Time, u64)>>) {
    let mut reference: ReferenceEngine<Node> = ReferenceEngine::new(config(seed, network), node);
    reference.set_classifier(classify);
    reference.enable_trace(500_000);
    reference.run_with(DEADLINE, ReferenceEngine::all_correct_decided);
    (
        reference.trace().expect("enabled").clone(),
        reference.decisions().to_vec(),
    )
}

/// The engine (tick-drained queue, fused per-broadcast RNG sampling)
/// must dispatch the exact event sequence of the per-event reference
/// interpreter: same trace, byte for byte, for fixed seeds across all
/// network models — including the lossy pre-GST `HPS` flavor, whose
/// per-copy loss draws exercise the fused sampler's stream contract.
/// This is the guarantee that neither changes a figure output.
#[test]
fn batched_path_matches_legacy_dispatch_order() {
    let models: [NetworkModel; 4] = [
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::TICK,
            max: Span::from_ticks(5),
        }),
        NetworkModel::PartialSync {
            gst: Time::from_ticks(40),
            delta: Span::from_ticks(3),
            pre_gst: PreGstBehavior::DelayOnly {
                max_delay: Span::from_ticks(25),
            },
        },
        NetworkModel::PartialSync {
            gst: Time::from_ticks(60),
            delta: Span::from_ticks(4),
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 35,
                max_delay: Span::from_ticks(20),
            },
        },
        NetworkModel::Synchronous,
    ];
    for model in models {
        for seed in [1u64, 33, 77] {
            let (trace, decisions) = run_on(seed, model.clone());
            let (trace_ref, decisions_ref) = run_reference(seed, model.clone());
            assert_eq!(
                decisions, decisions_ref,
                "decisions diverged for seed {seed} on {model:?}"
            );
            assert_eq!(
                trace, trace_ref,
                "dispatch order diverged for seed {seed} on {model:?}"
            );
            assert!(
                !trace.events().is_empty(),
                "degenerate run for seed {seed} on {model:?}"
            );
        }
    }
}

/// The skewed-tail distribution (with its clamped straggler boundary)
/// also dispatches identically on the engine and the interpreter.
#[test]
fn batched_path_matches_legacy_on_skewed_tail() {
    let model = NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
        base: Span::from_ticks(2),
        tail: Span::from_ticks(9),
        slow_percent: 30,
    });
    for seed in [5u64, 6] {
        assert_eq!(
            run_on(seed, model.clone()),
            run_reference(seed, model.clone())
        );
    }
}

#[test]
fn identical_seed_identical_trace() {
    let (t1, d1) = run(33);
    let (t2, d2) = run(33);
    assert_eq!(d1, d2);
    assert_eq!(t1, t2, "engine event sequences diverged for equal seeds");
    assert!(t1.events().len() > 50, "trace suspiciously small");
}

#[test]
fn different_seed_different_trace() {
    let (t1, _) = run(33);
    let (t2, _) = run(34);
    assert_ne!(t1, t2);
}

#[test]
fn trace_is_coherent() {
    let (trace, decisions) = run(35);
    // Every recorded decision appears in the trace and is followed (for
    // that process) only by halt events.
    for (p, d) in decisions.iter().enumerate() {
        let Some((at, v)) = d else { continue };
        let mut seen_decide = false;
        for ev in trace.for_process(p) {
            match ev.kind {
                ObsKind::Decided { value } => {
                    assert_eq!((ev.at, value), (*at, *v));
                    seen_decide = true;
                }
                ObsKind::Broadcast { .. } if seen_decide => {
                    panic!("process {p} broadcast after deciding+halting")
                }
                _ => {}
            }
        }
        assert!(seen_decide, "decision of p{p} missing from trace");
    }
    // Timestamps are monotone in engine order.
    let times: Vec<Time> = trace.events().iter().map(|e| e.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}
