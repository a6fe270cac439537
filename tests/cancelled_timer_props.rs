//! Differential property tests for timer cancellation: a toy process
//! that arms and cancels timers at random — a cancel for the tick being
//! dispatched and one for a timer beyond the calendar queue's 1 024-tick
//! wheel among them — runs byte-identically on `Engine` and on the naive
//! `ReferenceEngine`, whose module docs state what a cancel means: the
//! timer behaves as if it had never been armed, but arming it used up
//! its sequence number. Trace, metrics, histories and final clock must
//! agree, and so must a run cut anywhere — mid-tick included — snapshotted
//! and resumed in a fresh engine, which rebuilds its index of pending
//! timers from the queue it restores.

use homonym::prelude::*;
use homonym::sim::reference::ReferenceEngine;
use proptest::prelude::*;

/// One move of a [`Juggler`].
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Arm a timer `delay` ticks out, tagged `tag`.
    Arm { delay: u64, tag: u64 },
    /// Cancel the `pick`-th timer the script armed (modulo how many):
    /// pending, due in this very tick, or long fired.
    Cancel { pick: usize },
    /// Cancel whatever carries `tag` at the current instant.
    CancelNow { tag: u64 },
    /// Broadcast `value`.
    Say { value: u64 },
}

/// Plays its script, two moves per start or timer callback, and
/// publishes every timer it takes. On top of the script, its start arms
/// two timers for tick 5 and one past the wheel; the first of tick 5
/// cancels the second, still to come in the same tick, and the one past
/// the wheel, still in the queue's overflow.
#[derive(Clone)]
struct Juggler {
    script: Vec<Move>,
    next: usize,
    armed: Vec<(Time, TimerTag)>,
}

/// Timers the script of one process may arm in a run.
const MOST_ARMED: usize = 300;

/// Tags of the fixed timers, which the script neither arms nor cancels.
const FIRST: TimerTag = TimerTag(100);
const SECOND: TimerTag = TimerTag(101);
const FAR: TimerTag = TimerTag(102);

impl Juggler {
    fn arm(&mut self, delay: u64, tag: TimerTag, ctx: &mut ActionSink<'_, u64, u64>) {
        let delay = Span::from_ticks(delay);
        self.armed
            .push((ctx.local_now() + delay.max(Span::TICK), tag));
        ctx.set_timer(delay, tag);
    }

    fn play(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
        for _ in 0..2 {
            let Some(&step) = self.script.get(self.next % self.script.len().max(1)) else {
                return;
            };
            self.next += 1;
            match step {
                // A script of arms alone would double its timers at
                // every firing: each process arms a bounded number.
                Move::Arm { .. } if self.armed.len() >= MOST_ARMED => {}
                Move::Arm { delay, tag } => self.arm(delay, TimerTag(tag), ctx),
                Move::Cancel { pick } if !self.armed.is_empty() => {
                    let (at, tag) = self.armed[pick % self.armed.len()];
                    ctx.cancel_timer(at, tag);
                }
                Move::Cancel { .. } => {}
                Move::CancelNow { tag } => ctx.cancel_timer(ctx.local_now(), TimerTag(tag)),
                Move::Say { value } => ctx.broadcast(value),
            }
        }
    }
}

impl Process for Juggler {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.set_timer(Span::from_ticks(5), FIRST);
        ctx.set_timer(Span::from_ticks(5), SECOND);
        ctx.set_timer(Span::from_ticks(1_500), FAR);
        self.play(ctx);
    }

    fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.publish(m);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.publish(1_000 + tag.0);
        if tag == FIRST {
            ctx.cancel_timer(ctx.local_now(), SECOND);
            ctx.cancel_timer(Time::from_ticks(1_500), FAR);
        }
        self.play(ctx);
    }
}

/// Scripted moves: delays mostly short, so that timers share ticks with
/// each other and with deliveries, and now and then past the wheel.
fn moves() -> impl Strategy<Value = Vec<Move>> {
    let step = (0u8..8, 0u64..40, 0u64..4);
    let step = step.prop_map(|(kind, a, b)| match kind {
        0..=2 => Move::Arm {
            delay: if a < 36 {
                1 + a % 6
            } else {
                1_000 + 300 * (a - 36)
            },
            tag: b,
        },
        3 | 4 => Move::Cancel { pick: a as usize },
        5 => Move::CancelNow { tag: b },
        _ => Move::Say { value: a },
    });
    proptest::collection::vec(step, 1..24usize)
}

fn config(seed: u64) -> SimConfig {
    let n = 3;
    SimConfig::new(
        IdentityAssignment::unique(n),
        FailureSchedule::none(n).with_crash(2, Time::from_ticks(700)),
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::TICK,
            max: Span::from_ticks(6),
        }),
    )
    .with_seed(seed)
}

/// Everything the reference-interpreter contract covers.
macro_rules! observed {
    ($e:expr) => {
        (
            $e.trace().expect("enabled").clone(),
            $e.histories().to_vec(),
            $e.metrics().clone(),
            $e.now(),
        )
    };
}

const HORIZON: u64 = 4_000;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cancelled_timers_match_the_reference_and_survive_a_snapshot(
        scripts in proptest::collection::vec(moves(), 3..=3usize),
        seed in 0u64..1_000,
        cut_after in 1u64..400,
    ) {
        let node = |p: usize, _| Juggler { script: scripts[p].clone(), next: 0, armed: Vec::new() };
        let mut engine = Engine::new(config(seed), node);
        engine.enable_trace(1_000_000);
        engine.run_until(Time::from_ticks(HORIZON));
        let mut reference = ReferenceEngine::new(config(seed), node);
        reference.enable_trace(1_000_000);
        reference.run_until(Time::from_ticks(HORIZON));
        let expected = observed!(reference);
        prop_assert_eq!(&observed!(engine), &expected);

        // The fixed cancels withdrew the second timer of tick 5 and the
        // one past the wheel at every process: neither ever fired.
        for history in engine.histories() {
            let fired = |tag: TimerTag| history.iter().any(|&(_, v)| v == 1_000 + tag.0);
            prop_assert!(fired(FIRST) && !fired(SECOND) && !fired(FAR));
        }

        // Cut after `cut_after` events, most often mid-tick, and resume.
        let mut cut = Engine::new(config(seed), node);
        cut.enable_trace(1_000_000);
        cut.run_with(Time::from_ticks(HORIZON), |e| e.metrics().events >= cut_after);
        let snap = cut.snapshot();
        let mut resumed = Engine::resume_in(config(seed), &snap, EngineArena::new());
        resumed.run_until(Time::from_ticks(HORIZON));
        prop_assert_eq!(&observed!(resumed), &expected);
    }
}
