//! Differential property tests for the event engine: across random
//! seeds, network models and fault scripts — adversarial link clauses
//! and Byzantine payload-mutation attacks — `Engine` (tick-drained queue, one `step` per
//! event, fused per-broadcast RNG sampling, shared payloads, elided
//! copies to dead destinations) must be **byte-identical** to the naive
//! per-event `ReferenceEngine` built from the same configuration and
//! factory — same traces, same histories, same metrics, same decisions,
//! same final clock, and the same stopping event under a stop condition.
//! An empty or never-activating `FaultScript` must additionally be
//! byte-identical to a run with **no** script installed at all, on both
//! interpreters. One fixed long run holds the engine's
//! cached active-clause set to the same contract: fifty partition
//! windows, then a snapshot taken inside one and resumed under a script
//! that differs after it.

use homonym::chaos::sweep::{byz_tolerant_node, fig8_node};
use homonym::chaos::{FaultClause, PartitionMode, Scenario};
use homonym::prelude::*;
use homonym::sim::reference::ReferenceEngine;
use proptest::prelude::*;

/// Chatty process: broadcasts at start and echoes every value once, so
/// one tick hands a process several deliveries it acts on.
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
/// shapes that drive both adversary RNG draws and deferred deliveries.
fn scenario(n: usize, split: usize, heal: u64, lose: u8) -> Scenario {
    let k = split.clamp(1, n - 1);
    Scenario::new("batched-props", n)
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
}

/// One Byzantine clause of the selected kind, mounted by process 0
/// against a victim prefix — combined with `scenario`'s link faults it
/// exercises both lists of the fault script at once.
fn byz_clause(n: usize, kind: u8, victims: usize) -> FaultClause {
    let attack = match kind % 4 {
        0 => Attack::Equivocate,
        1 => Attack::Corrupt,
        2 => Attack::Replay,
        _ => Attack::SelectiveSend,
    };
    FaultClause::Byzantine {
        attack,
        sources: vec![0],
        victims: (0..n).rev().take(victims.clamp(1, n)).collect(),
        start: Time::from_ticks(1),
        until: Time::MAX,
    }
}

/// Everything the reference-interpreter contract covers, read off either
/// engine type (a macro because the two share accessors, not a trait).
macro_rules! observed {
    ($e:expr) => {
        (
            $e.trace().expect("enabled").clone(),
            $e.histories().to_vec(),
            $e.decisions().to_vec(),
            $e.metrics().clone(),
            $e.now(),
        )
    };
}

/// Runs `Engine` and `ReferenceEngine`, built from the same configuration
/// and factory and both tracing, to the same fixed horizon.
fn run_both<P: Process>(
    cfg: SimConfig,
    node: impl Fn(usize, Identity) -> P,
    horizon: u64,
) -> (Engine<P>, ReferenceEngine<P>) {
    let mut engine = Engine::new(cfg.clone(), &node);
    engine.enable_trace(500_000);
    engine.run_until(Time::from_ticks(horizon));
    let mut reference = ReferenceEngine::new(cfg, &node);
    reference.enable_trace(500_000);
    reference.run_until(Time::from_ticks(horizon));
    (engine, reference)
}

/// Keeps talking for the whole run: a broadcast every three ticks.
#[derive(Clone)]
struct Ticker {
    sent: u64,
}

impl Process for Ticker {
    type Msg = u64;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.broadcast(0);
        ctx.set_timer(Span::from_ticks(3), TimerTag(0));
    }
    fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.publish(m);
    }
    fn on_timer(&mut self, t: TimerTag, ctx: &mut ActionSink<'_, u64, u64>) {
        self.sent += 1;
        ctx.broadcast(self.sent);
        ctx.set_timer(Span::from_ticks(3), t);
    }
}

/// `windows` queue-until-heal partitions, 30 ticks of every 100, cutting
/// off a rotating pair — a single process from window `turn` on — under
/// a 10 % loss overlay that spans them all.
fn rotating_partitions(n: usize, windows: usize, turn: usize) -> Scenario {
    let mut scenario =
        Scenario::new("rotating-partitions", n).with_clause(FaultClause::LinkOverlay {
            from: (0..n).collect(),
            to: (0..n).collect(),
            start: Time::ZERO,
            end: Time::from_ticks(100 * (windows as u64 + 1)),
            loss_percent: 10,
            extra_delay: Span::ZERO,
        });
    for w in 0..windows {
        let cut_off: Vec<usize> = (0..if w < turn { 2 } else { 1 })
            .map(|i| (2 * w + i) % n)
            .collect();
        let rest = (0..n).filter(|p| !cut_off.contains(p)).collect();
        let start = 100 * (w as u64 + 1);
        scenario = scenario.with_clause(FaultClause::Partition {
            groups: vec![cut_off, rest],
            start: Time::from_ticks(start),
            heal_at: Time::from_ticks(start + 30),
            mode: PartitionMode::QueueUntilHeal,
        });
    }
    scenario
}

/// The engine judges each copy against the clauses active at its send
/// time, which it keeps between copies: over fifty windows that is the
/// reference interpreter's run, byte for byte, and a snapshot taken
/// inside window 20 continues as a run under a script that agrees up to
/// that window and differs after it — in a fresh engine, and in one that
/// already ran to the horizon.
#[test]
fn fifty_partition_windows_match_the_reference_and_resume_under_another_script() {
    let (n, windows, horizon) = (6, 50, 5_200);
    let cfg = |turn| {
        rotating_partitions(n, windows, turn)
            .install(echo_config(9, 0, n, None))
            .expect("valid scenario")
    };
    let node = |_, _| Ticker { sent: 0 };
    let (engine, reference) = run_both(cfg(windows), node, horizon);
    assert_eq!(observed!(engine), observed!(reference));
    assert!(engine.metrics().copies_blocked > 1_000, "losses were drawn");

    let mut cut = Engine::new(cfg(windows), node);
    cut.enable_trace(500_000);
    cut.run_until(Time::from_ticks(100 * 21 + 15));
    let snap = cut.snapshot();
    let (mut other, _) = run_both(cfg(21), node, horizon);
    let expected = observed!(other);
    assert_ne!(expected, observed!(engine), "the scripts differ");
    let mut resumed = Engine::resume_in(cfg(21), &snap, EngineArena::new());
    resumed.run_until(Time::from_ticks(horizon));
    assert_eq!(observed!(resumed), expected);
    other.restore_from(&snap);
    other.run_until(Time::from_ticks(horizon));
    assert_eq!(observed!(other), expected);
}

/// Decides on the first message it is handed and keeps running.
struct DecidesAndStays;

impl Process for DecidesAndStays {
    type Msg = u64;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.broadcast(1);
        ctx.broadcast(2);
    }
    fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.publish(m);
        ctx.decide(m);
    }
    fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, u64, u64>) {}
}

/// A stop condition is checked after every event, not after every run of
/// same-`(time, dest)` deliveries: one process, two copies landing on it
/// at tick 1 with consecutive sequence numbers, the first of which makes
/// `all_correct_decided` true while the process stays alive. Both engines
/// stop there — start plus one delivery, the second copy still queued.
#[test]
fn a_stop_condition_met_mid_tick_stops_both_engines_at_the_same_event() {
    let cfg = SimConfig::new(
        IdentityAssignment::unique(1),
        FailureSchedule::none(1),
        NetworkModel::Synchronous,
    );
    let deadline = Time::from_ticks(100);
    let mut engine = Engine::new(cfg.clone(), |_, _| DecidesAndStays);
    engine.enable_trace(100);
    let stopped = engine.run_until_all_correct_decided(deadline);
    let mut reference = ReferenceEngine::new(cfg, |_, _| DecidesAndStays);
    reference.enable_trace(100);
    let reference_stopped = reference.run_with(deadline, ReferenceEngine::all_correct_decided);
    assert_eq!(stopped, StopReason::ConditionMet);
    assert_eq!(stopped, reference_stopped);
    assert_eq!(engine.metrics().events, 2);
    assert_eq!(observed!(engine), observed!(reference));
    // The copy left in the tick is still there for the next call.
    assert_eq!(engine.run_until(deadline), StopReason::Quiescent);
    assert_eq!(reference.run_until(deadline), StopReason::Quiescent);
    assert_eq!(engine.metrics().events, 3);
    assert_eq!(observed!(engine), observed!(reference));
}

/// An `Echo` system over `n` processes whose last one optionally crashes.
fn echo_config(seed: u64, kind: u8, n: usize, crash: Option<u64>) -> SimConfig {
    let mut sched = FailureSchedule::none(n);
    if let Some(c) = crash {
        sched = sched.with_crash(n - 1, Time::from_ticks(c));
    }
    SimConfig::new(IdentityAssignment::round_robin(n, 2), sched, model(kind)).with_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Event engine, plain process: `Engine` and the reference
    /// interpreter agree byte for byte under random models, seeds, crash
    /// times and scripts.
    #[test]
    fn batched_equals_legacy_event_engine(
        seed in any::<u64>(),
        kind in 0u8..4,
        n in 2usize..6,
        split in 1usize..5,
        heal in 1u64..30,
        lose in 0u8..60,
        crash in proptest::option::weighted(0.4, 0u64..20),
    ) {
        let cfg = scenario(n, split, heal, lose)
            .install(echo_config(seed, kind, n, crash))
            .expect("valid scenario");
        let (engine, reference) = run_both(cfg, |_, _| Echo { cap: 4 }, 400);
        prop_assert_eq!(observed!(engine), observed!(reference));
    }

    /// Event engine, full Figure 6 + Figure 8 stack (the shape the chaos
    /// sweeps drive): `Engine` and the reference interpreter agree byte
    /// for byte, with decisions included, and the all-correct-decided
    /// stop condition ends both runs at the same event.
    #[test]
    fn batched_equals_legacy_consensus_stack(
        seed in any::<u64>(),
        kind in 0u8..4,
        heal in 1u64..25,
        lose in 0u8..50,
    ) {
        let n = 4;
        let cfg = SimConfig::new(
            IdentityAssignment::round_robin(n, 2),
            FailureSchedule::none(n),
            model(kind),
        )
        .with_seed(seed);
        let cfg = scenario(n, 2, heal, lose).install(cfg).expect("valid scenario");
        let deadline = Time::from_ticks(5_000);
        let mut engine = Engine::new(cfg.clone(), |p, _| fig8_node(100 + p as u64, n, 1));
        engine.enable_trace(500_000);
        engine.run_until_all_correct_decided(deadline);
        let mut reference = ReferenceEngine::new(cfg, |p, _| fig8_node(100 + p as u64, n, 1));
        reference.enable_trace(500_000);
        reference.run_with(deadline, ReferenceEngine::all_correct_decided);
        prop_assert_eq!(observed!(engine), observed!(reference));
    }

    /// Event engine, Byzantine-tolerant quorum-certificate stack under
    /// an **active** Byzantine attack (each of the four kinds on top of
    /// the link faults): `Engine` and the reference interpreter agree
    /// byte for byte, decisions included — the tolerant stack's
    /// certificate bookkeeping (admission ledgers, echo certificates,
    /// detect-and-discard) rides the same deterministic dispatch
    /// contract as the crash stacks. The comparison runs to a fixed
    /// horizon: tolerant processes never halt on decision (decide echoes
    /// keep flowing), so the traffic after the decisions is compared too.
    #[test]
    fn batched_equals_legacy_tolerant_stack_under_attack(
        seed in any::<u64>(),
        kind in 0u8..4,
        byz_kind in 0u8..4,
        victims in 1usize..4,
        heal in 1u64..20,
    ) {
        let n = 5;
        let assign = IdentityAssignment::round_robin(n, 2);
        let cfg = SimConfig::new(assign.clone(), FailureSchedule::none(n), model(kind))
            .with_seed(seed);
        let cfg = scenario(n, 2, heal, 0)
            .with_clause(byz_clause(n, byz_kind, victims))
            .install(cfg)
            .expect("valid scenario");
        let node = |p: usize, _| byz_tolerant_node(100 + p as u64, &assign);
        let (engine, reference) = run_both(cfg, node, 800);
        prop_assert_eq!(observed!(engine), observed!(reference));
    }

    /// An **empty or never-activating** `FaultScript` is fully
    /// transparent: installing it leaves traces, histories, metrics and
    /// final clocks byte-identical to a run with no script at all — on
    /// the event engine and the reference interpreter, under every
    /// network model. This is the determinism half of the
    /// payload-mutation hook's contract.
    #[test]
    fn inactive_byzantine_script_is_transparent(
        seed in any::<u64>(),
        kind in 0u8..4,
        n in 2usize..6,
        salt in any::<u64>(),
        crash in proptest::option::weighted(0.4, 0u64..20),
    ) {
        let empty = FaultScript { salt, ..FaultScript::default() };
        // Active only long after the horizon: present, never consulted.
        let dormant = FaultScript {
            attacks: vec![ByzClause {
                from: Time::from_ticks(1_000_000),
                until: Time::MAX,
                src: ProcSet::all(n),
                victims: ProcSet::all(n),
                attack: Attack::Equivocate,
            }],
            ..empty.clone()
        };
        let config = |byz: Option<&FaultScript>| {
            let cfg = echo_config(seed, kind, n, crash);
            match byz {
                Some(b) => cfg.with_adversary(b.clone()),
                None => cfg,
            }
        };
        let run = |byz: Option<&FaultScript>| {
            let (engine, reference) = run_both(config(byz), |_, _| Echo { cap: 4 }, 400);
            (observed!(engine), observed!(reference))
        };
        let (base, base_reference) = run(None);
        prop_assert_eq!(&base_reference, &base, "reference, no script");
        prop_assert_eq!(run(Some(&empty)), (base.clone(), base.clone()), "empty script");
        prop_assert_eq!(run(Some(&dormant)), (base.clone(), base), "dormant script");
    }

    /// Event engine under an **active** Byzantine attack (all four clause
    /// kinds, on top of the link faults), with an optional crash of the
    /// **corrupt sender itself**: `Engine` and the reference interpreter
    /// still agree byte for byte — forging and suppression are accounted
    /// at routing time by both, including on the dying sender's
    /// final-step partial broadcast, whose mask draws interleave with
    /// the routing draws per copy.
    #[test]
    fn batched_equals_legacy_under_byzantine_attack(
        seed in any::<u64>(),
        kind in 0u8..4,
        byz_kind in 0u8..4,
        n in 3usize..6,
        victims in 1usize..4,
        heal in 1u64..20,
        crash in proptest::option::weighted(0.4, 2u64..20),
    ) {
        // `byz_clause` makes process 0 the corrupt sender from tick 1 on.
        let mut sched = FailureSchedule::none(n);
        if let Some(c) = crash {
            sched = sched.with_crash(0, Time::from_ticks(c));
        }
        let cfg = SimConfig::new(IdentityAssignment::round_robin(n, 2), sched, model(kind))
            .with_seed(seed);
        let cfg = scenario(n, 2, heal, 0)
            .with_clause(byz_clause(n, byz_kind, victims))
            .install(cfg)
            .expect("valid scenario");
        let (engine, reference) = run_both(cfg, |_, _| Echo { cap: 4 }, 400);
        prop_assert_eq!(observed!(engine), observed!(reference));
        // The attack must actually have touched copies for most kinds
        // (replay degenerates to pass-through before the first cached
        // broadcast, and a sender crashing early may never broadcast
        // inside the window, so only crash-free suppression/forging
        // runs are asserted).
        let metrics = engine.metrics();
        if byz_kind % 4 != 2 && crash.is_none() {
            prop_assert!(
                metrics.copies_forged + metrics.copies_suppressed > 0,
                "an active clause never fired: {:?}",
                metrics
            );
        }
    }
}
