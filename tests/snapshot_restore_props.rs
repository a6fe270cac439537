//! Property tests for the snapshot/fork layer: a snapshot taken at a
//! random instant mid-run, restored and continued, must be
//! **byte-identical** to the uninterrupted run from that instant — same
//! traces, same histories, same metrics, same decisions — on the event
//! engine (Figure 7 included, as its step process on the synchronous
//! network), under all three network models, random crash times and
//! random fault scripts, **including active Byzantine scripts** (the
//! scenarios below mount a permanent equivocator and a replay attacker,
//! so the dedicated Byzantine RNG stream and the one-deep replay cache
//! must round-trip through every snapshot). The nested case (a fork of
//! a fork) must hold too: the contract is compositional, which is what
//! lets the prefix-sharing sweep executor stack snapshots along a DFS
//! path — and what makes mid-run counterexample replay sound.

use homonym::chaos::sweep::{byz_tolerant_node, fig8_node};
use homonym::chaos::{FaultClause, PartitionMode, Scenario, SessionBuilder};
use homonym::detectors::HSigmaStepProcess;
use homonym::prelude::*;
use homonym::sim::Engine;
use proptest::prelude::*;

/// Chatty process: broadcasts at start and echoes every value once, so
/// the queue holds in-flight traffic at any snapshot instant.
#[derive(Clone)]
struct Echo {
    cap: u64,
}

impl Process for Echo {
    type Msg = u64;
    type Output = u64;
    fn mutate_payload(msg: &u64, entropy: u64) -> Option<u64> {
        Some(msg.wrapping_add(1 + entropy % 5))
    }
    fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.broadcast(0);
    }
    fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.publish(m);
        if m + 1 < self.cap {
            ctx.broadcast(m + 1);
        }
    }
    fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, u64, u64>) {}
}

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

/// A two-group partition plus a probabilistic loss overlay — the script
/// shapes that drive both adversary RNG draws and deferred deliveries —
/// plus a permanent equivocator and a replay attacker, so every snapshot
/// instant finds a live Byzantine stream (per-broadcast entropy draws)
/// and a warm replay cache to round-trip.
fn scenario(n: usize, split: usize, heal: u64, lose: u8) -> Scenario {
    let k = split.clamp(1, n - 1);
    Scenario::new("snapshot-props", n)
        .with_clause(FaultClause::Partition {
            groups: vec![(0..k).collect(), (k..n).collect()],
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
        .with_clause(FaultClause::ByzantineEquivocate {
            sources: vec![0],
            victims: vec![n - 1],
            start: Time::from_ticks(3),
            until: Time::MAX,
        })
        .with_clause(FaultClause::ByzantineReplay {
            sources: vec![n - 1],
            victims: vec![0],
            start: Time::from_ticks(5),
            until: Time::MAX,
        })
}

type EventState = (
    Recorder,
    Vec<History<u64>>,
    Metrics,
    Vec<Option<(Time, u64)>>,
);

fn event_state(e: &Engine<Echo>) -> EventState {
    (
        e.trace().expect("enabled").clone(),
        e.histories().to_vec(),
        e.metrics().clone(),
        e.decisions().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// Event engine, plain process: snapshot at a random mid-run tick
    /// (all network models, random crash + fault scripts), restore, continue — byte-identical to the run that was
    /// never interrupted. Includes the fork-of-a-fork case: the restored
    /// run is snapshotted again later and that snapshot restored into a
    /// fresh arena-backed engine.
    #[test]
    fn snapshot_restore_is_byte_identical_event_engine(
        seed in any::<u64>(),
        kind in 0u8..4,
        n in 2usize..6,
        heal in 1u64..30,
        lose in 0u8..60,
        crash in proptest::option::weighted(0.4, 0u64..20),
        cut in 1u64..120,
    ) {
        // Derived knobs, to stay within the tuple-strategy arity.
        let second_cut = 1 + seed % 97;
        let split = 1 + (seed % (n as u64 - 1).max(1)) as usize;
        let scenario = scenario(n, split, heal, lose);
        let mk = || {
            let mut sched = FailureSchedule::none(n);
            if let Some(c) = crash {
                sched = sched.with_crash(n - 1, Time::from_ticks(c));
            }
            let cfg = SimConfig::new(IdentityAssignment::round_robin(n, 2), sched, model(kind))
                .with_seed(seed);
            let cfg = scenario.install(cfg).expect("valid scenario");
            let mut engine = Engine::new(cfg, |_, _| Echo { cap: 5 });
            engine.enable_trace(200_000);
            engine
        };
        let horizon = Time::from_ticks(400);

        let mut baseline = mk();
        baseline.run_until(horizon);
        let expected = event_state(&baseline);

        // Interrupt at `cut`, snapshot, run on, rewind, run again.
        let mut engine = mk();
        engine.run_until(Time::from_ticks(cut));
        let snap = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&event_state(&engine), &expected);
        engine.restore_from(&snap);
        engine.run_until(horizon);
        prop_assert_eq!(&event_state(&engine), &expected);

        // Fork of a fork: resume the first snapshot into a fresh engine,
        // snapshot that run later, and resume *that* elsewhere.
        let mut first = Engine::resume_in(mk().config().clone(), &snap, EngineArena::new());
        first.run_until(Time::from_ticks(cut + second_cut));
        let deeper = first.snapshot();
        first.run_until(horizon);
        prop_assert_eq!(&event_state(&first), &expected);
        let mut second = Engine::resume_in(mk().config().clone(), &deeper, EngineArena::new());
        second.run_until(horizon);
        prop_assert_eq!(&event_state(&second), &expected);
    }

    /// Event engine, full Figure 6 + Figure 8 stack: a fork clones the
    /// consensus half's reading of the detector with it, so the restored
    /// stack's decisions and traces match the uninterrupted run's — and keep
    /// matching after a second fork taken from the restored run.
    #[test]
    fn snapshot_restore_is_byte_identical_consensus_stack(
        seed in any::<u64>(),
        kind in 0u8..4,
        heal in 1u64..25,
        lose in 0u8..50,
        cut in 1u64..200,
    ) {
        let n = 4;
        let scenario = scenario(n, 2, heal, lose);
        let mk = || {
            let cfg = SimConfig::new(
                IdentityAssignment::round_robin(n, 2),
                FailureSchedule::none(n),
                model(kind),
            )
            .with_seed(seed);
            let cfg = scenario.install(cfg).expect("valid scenario");
            let mut engine = Engine::new(cfg, |p, _| fig8_node(100 + p as u64, n, 1));
            engine.enable_trace(500_000);
            engine
        };
        let horizon = Time::from_ticks(5_000);
        let state = |e: &Engine<homonym::chaos::Fig8Node>| {
            (
                e.trace().expect("enabled").clone(),
                e.decisions().to_vec(),
                e.metrics().clone(),
            )
        };

        let mut baseline = mk();
        baseline.run_until_all_correct_decided(horizon);
        let expected = state(&baseline);

        let mut engine = mk();
        engine.run_until_all_correct_decided(Time::from_ticks(cut));
        let snap = engine.snapshot();
        engine.run_until_all_correct_decided(horizon);
        prop_assert_eq!(&state(&engine), &expected);

        // The fork must be independent: running the restored engine
        // cannot be perturbed by (or perturb) the original's cells.
        let mut forked = Engine::resume_in(mk().config().clone(), &snap, EngineArena::new());
        let mut refork = {
            forked.run_until_all_correct_decided(Time::from_ticks(cut * 2));
            let deeper = forked.snapshot();
            Engine::resume_in(mk().config().clone(), &deeper, EngineArena::new())
        };
        forked.run_until_all_correct_decided(horizon);
        prop_assert_eq!(&state(&forked), &expected);
        refork.run_until_all_correct_decided(horizon);
        prop_assert_eq!(&state(&refork), &expected);
    }

    /// Event engine, Byzantine-tolerant quorum-certificate stack under
    /// the live equivocator + replay attacker the scenario mounts:
    /// snapshot at a random cut, restore, continue — byte-identical to
    /// the uninterrupted run, nested fork included. The tolerant stack's
    /// extra state (admission ledgers, locked-round certificates, the
    /// cumulative decision-echo ledger) must round-trip through every
    /// snapshot for mid-run survival replay to be sound.
    #[test]
    fn snapshot_restore_is_byte_identical_tolerant_stack(
        seed in any::<u64>(),
        kind in 0u8..4,
        heal in 1u64..25,
        lose in 0u8..50,
        cut in 1u64..200,
    ) {
        let n = 5;
        let assign = IdentityAssignment::round_robin(n, 2);
        let scenario = scenario(n, 2, heal, lose);
        let mk = || {
            let cfg = SimConfig::new(assign.clone(), FailureSchedule::none(n), model(kind))
                .with_seed(seed);
            let cfg = scenario.install(cfg).expect("valid scenario");
            let mut engine = Engine::new(cfg, |p, _| byz_tolerant_node(100 + p as u64, &assign));
            engine.enable_trace(500_000);
            engine
        };
        let horizon = Time::from_ticks(5_000);
        let state = |e: &Engine<homonym::chaos::ByzTolerantNode>| {
            (
                e.trace().expect("enabled").clone(),
                e.decisions().to_vec(),
                e.metrics().clone(),
            )
        };

        let mut baseline = mk();
        baseline.run_until_all_correct_decided(horizon);
        let expected = state(&baseline);

        let mut engine = mk();
        engine.run_until_all_correct_decided(Time::from_ticks(cut));
        let snap = engine.snapshot();
        engine.run_until_all_correct_decided(horizon);
        prop_assert_eq!(&state(&engine), &expected);

        let mut forked = Engine::resume_in(mk().config().clone(), &snap, EngineArena::new());
        let mut refork = {
            forked.run_until_all_correct_decided(Time::from_ticks(cut * 2));
            let deeper = forked.snapshot();
            Engine::resume_in(mk().config().clone(), &deeper, EngineArena::new())
        };
        forked.run_until_all_correct_decided(horizon);
        prop_assert_eq!(&state(&forked), &expected);
        refork.run_until_all_correct_decided(horizon);
        prop_assert_eq!(&state(&refork), &expected);
    }

    /// Figure 7 on the event engine — `HSigmaStepProcess` on the
    /// synchronous network, where step `s` publishes at tick `2s + 2`
    /// and a crash at step `c` is a crash at tick `2c + 1`: snapshot at
    /// a random step under scripts and crashes, restore, continue —
    /// identical traces, histories and metrics, including a nested fork.
    #[test]
    fn snapshot_restore_is_byte_identical_sync_engine(
        seed in any::<u64>(),
        n in 2usize..6,
        split in 1usize..5,
        heal in 2u64..12,
        lose in 0u8..60,
        crash in proptest::option::weighted(0.4, 0u64..8),
        cut in 1u64..10,
    ) {
        let scenario = scenario(n, split, heal, lose);
        let tick = |step: u64| Time::from_ticks(2 * step + 1);
        let horizon = tick(heal + 12);
        let mk = || {
            let mut sched = FailureSchedule::none(n);
            if let Some(c) = crash {
                sched = sched.with_crash(0, tick(c));
            }
            SessionBuilder::new(n, 2)
                .with_seed(seed)
                .with_network(NetworkModel::Synchronous)
                .with_schedule(sched)
                .with_scenario(scenario.clone())
                .with_trace(100_000)
                .build(|_, _| HSigmaStepProcess::new(Span::from_ticks(2)))
                .into_engine()
        };
        let state = |e: &Engine<HSigmaStepProcess>| {
            (
                e.trace().expect("enabled").clone(),
                e.histories().to_vec(),
                e.metrics().clone(),
            )
        };

        let mut baseline = mk();
        baseline.run_until(horizon);
        let expected = state(&baseline);

        let mut engine = mk();
        engine.run_until(tick(cut));
        let snap = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&state(&engine), &expected);
        engine.restore_from(&snap);

        // Nested fork: snapshot the restored run again two steps later.
        engine.run_until(tick(cut + 2));
        let deeper = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&state(&engine), &expected);

        let mut refork = Engine::resume_in(mk().config().clone(), &deeper, EngineArena::new());
        refork.run_until(horizon);
        prop_assert_eq!(&state(&refork), &expected);
    }
}
