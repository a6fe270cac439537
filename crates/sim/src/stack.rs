//! Composition of two programs inside one simulated process.
//!
//! The paper's consensus algorithms run *on top of* a failure detector: the
//! detector is a separate distributed algorithm whose local variables the
//! consensus layer reads at will. [`Stacked`] realizes exactly that: one
//! simulated process runs a detector half `A` and a consumer half `B`,
//! multiplexing their messages over the shared broadcast primitive and
//! recording both halves' published outputs.
//!
//! # Handing the detector's output over
//!
//! The detector publishes its variables whenever they change, and the
//! stack hands each published output to the consumer half through
//! [`Consumes::consume`] as it is emitted, before the publish is passed on
//! — so before the consumer's next callback runs, and during `on_start`
//! before the consumer's own `on_start`. The consumer keeps the reading as a
//! plain value (a consensus algorithm over an `HOmegaOutput` rather than
//! over a handle to the detector), so nothing is shared between the
//! halves, and a stacked process copies with `Clone`. A consumer that
//! reads nothing takes the trait's empty default, and a stack is itself a
//! consumer that passes what it is handed to its upper half — so in
//! `Stacked<X, Stacked<Y, Z>>` both detectors' outputs reach `Z`.

use core::fmt;

use homonym_core::identity::Identity;
use homonym_core::query::Consumes;
use homonym_core::wire::Persist;

use crate::process::{Action, ActionSink, Emit, Process, TimerTag};

/// A tagged union of the two halves' messages (or outputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Either<L, R> {
    /// Belongs to the detector half `A`.
    L(L),
    /// Belongs to the consumer half `B`.
    R(R),
}

impl<L: fmt::Display, R: fmt::Display> fmt::Display for Either<L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Either::L(l) => write!(f, "L:{l}"),
            Either::R(r) => write!(f, "R:{r}"),
        }
    }
}

/// Two programs sharing one process: `A` (typically a detector
/// implementation) and `B` (typically consensus).
///
/// Timer tags are remapped (`A` on even tags, `B` on odd) so the halves can
/// use their tag spaces independently. Every output `A` publishes is handed
/// to `B` (see the module docs). A half emits into an adapter that lifts
/// each action straight into the stack's own sink: the stack holds no
/// buffer, so it copies and persists as its two halves.
#[derive(Clone)]
pub struct Stacked<A: Process, B: Process> {
    a: A,
    b: B,
}

/// The action sink a [`Stacked`] process receives from its engine.
type StackSink<'a, A, B> = ActionSink<
    'a,
    Either<<A as Process>::Msg, <B as Process>::Msg>,
    Either<<A as Process>::Output, <B as Process>::Output>,
>;

/// The lower half's emitter: lifts each action into the stack's sink on
/// `L` and even tags, handing a publish to the upper half before it is
/// forwarded.
struct Lower<'s, 'a, A: Process, B: Process> {
    outer: &'s mut StackSink<'a, A, B>,
    upper: &'s mut B,
}

impl<A: Process, B: Process + Consumes<A::Output>> Emit<A::Msg, A::Output> for Lower<'_, '_, A, B> {
    fn emit(&mut self, action: Action<A::Msg, A::Output>) {
        if let Action::Publish(o) = &action {
            self.upper.consume(o);
        }
        self.outer
            .emit(action.lift(Either::L, Either::L, |t| TimerTag(t.0 * 2)));
    }
}

/// The upper half's emitter: lifts each action into the stack's sink on
/// `R` and odd tags.
struct Upper<'s, 'a, A: Process, B: Process>(&'s mut StackSink<'a, A, B>);

impl<A: Process, B: Process> Emit<B::Msg, B::Output> for Upper<'_, '_, A, B> {
    fn emit(&mut self, action: Action<B::Msg, B::Output>) {
        self.0
            .emit(action.lift(Either::R, Either::R, |t| TimerTag(t.0 * 2 + 1)));
    }
}

impl<A: Process, B: Process + Consumes<A::Output>> Stacked<A, B> {
    /// Stacks `a` under `b`.
    pub fn new(a: A, b: B) -> Self {
        Stacked { a, b }
    }

    /// The detector half.
    pub fn lower(&self) -> &A {
        &self.a
    }

    /// The consumer half.
    pub fn upper(&self) -> &B {
        &self.b
    }

    fn run_a(
        &mut self,
        ctx: &mut StackSink<'_, A, B>,
        f: impl FnOnce(&mut A, &mut ActionSink<'_, A::Msg, A::Output>),
    ) {
        // The sub-sink inherits the outer sink's observing flag, so a
        // stacked half's `observe` hooks stay dead branches exactly when
        // the engine has no recorder attached.
        let (id, now, observing) = (ctx.my_id(), ctx.local_now(), ctx.observing());
        let mut lower = Lower::<A, B> {
            outer: ctx,
            upper: &mut self.b,
        };
        f(
            &mut self.a,
            &mut ActionSink::new(id, now, &mut lower).with_observing(observing),
        );
    }

    fn run_b(
        &mut self,
        ctx: &mut StackSink<'_, A, B>,
        f: impl FnOnce(&mut B, &mut ActionSink<'_, B::Msg, B::Output>),
    ) {
        let (id, now, observing) = (ctx.my_id(), ctx.local_now(), ctx.observing());
        let mut upper = Upper::<A, B>(ctx);
        f(
            &mut self.b,
            &mut ActionSink::new(id, now, &mut upper).with_observing(observing),
        );
    }
}

impl<A: Process, B: Process + Consumes<A::Output>> Process for Stacked<A, B> {
    type Msg = Either<A::Msg, B::Msg>;
    type Output = Either<A::Output, B::Output>;

    /// A corrupt stacked process forges whichever half's message it is
    /// broadcasting: the mutation is delegated to that half's hook, so a
    /// Byzantine Figure 8 node equivocates detector traffic *and*
    /// consensus traffic. A half without mutation semantics propagates
    /// its `None` (and the engine's loud failure) unchanged.
    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg> {
        match msg {
            Either::L(m) => A::mutate_payload(m, entropy).map(Either::L),
            Either::R(m) => B::mutate_payload(m, entropy).map(Either::R),
        }
    }

    /// A half's message is read by whoever that half says reads it: the
    /// relay adds no state, action or draw of its own to a delivery.
    fn addressee(msg: &Self::Msg) -> Option<Identity> {
        match msg {
            Either::L(m) => A::addressee(m),
            Either::R(m) => B::addressee(m),
        }
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        self.run_a(ctx, |a, sub| a.on_start(sub));
        self.run_b(ctx, |b, sub| b.on_start(sub));
    }

    fn on_message(&mut self, msg: Self::Msg, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        match msg {
            Either::L(m) => self.run_a(ctx, |a, sub| a.on_message(m, sub)),
            Either::R(m) => self.run_b(ctx, |b, sub| b.on_message(m, sub)),
        }
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        if timer.0.is_multiple_of(2) {
            let tag = TimerTag(timer.0 / 2);
            self.run_a(ctx, |a, sub| a.on_timer(tag, sub));
        } else {
            let tag = TimerTag(timer.0 / 2);
            self.run_b(ctx, |b, sub| b.on_timer(tag, sub));
        }
    }
}

/// A stack passes what it is handed to its upper half, the consumer:
/// the outer lower half of a `Stacked<X, Stacked<Y, Z>>` feeds `Z`.
impl<O, A: Process, B: Process + Consumes<O>> Consumes<O> for Stacked<A, B> {
    fn consume(&mut self, output: &O) {
        self.b.consume(output);
    }
}

/// Splits the recorded history of a [`Stacked`] run back into the two
/// halves' histories.
#[must_use]
pub fn split_history<OA: Clone, OB: Clone>(
    hist: &homonym_core::properties::History<Either<OA, OB>>,
) -> (
    homonym_core::properties::History<OA>,
    homonym_core::properties::History<OB>,
) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (t, o) in hist {
        match o {
            Either::L(a) => left.push((*t, a.clone())),
            Either::R(b) => right.push((*t, b.clone())),
        }
    }
    (left, right)
}

homonym_core::persist_enum!(impl[L: Persist, R: Persist] Either<L, R> as Either {
    L = 0 (v),
    R = 1 (v),
});

// A stack is its two halves, lower first, through one saver (so an `Arc`
// both halves hold is written once); the consumer's reading of the
// detector is part of the consumer.
homonym_core::persist_fields!(impl[A: Process + Persist, B: Process + Persist] Stacked<A, B>
    { a, b });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SimConfig};
    use crate::network::NetworkModel;
    use homonym_core::{FailureSchedule, IdentityAssignment, Span, Time};
    use homonym_obs::ObsKind;

    /// A process that does nothing: a placeholder half.
    struct Idle;

    impl Process for Idle {
        type Msg = ();
        type Output = ();
        fn on_start(&mut self, _ctx: &mut ActionSink<'_, (), ()>) {}
        fn on_message(&mut self, _msg: (), _ctx: &mut ActionSink<'_, (), ()>) {}
        fn on_timer(&mut self, _timer: TimerTag, _ctx: &mut ActionSink<'_, (), ()>) {}
    }

    impl<O> Consumes<O> for Idle {}

    /// A process that repeatedly re-arms a tick timer: periodic activity
    /// from one half.
    struct Ticker {
        period: Span,
        ticks: u64,
    }

    impl Ticker {
        /// A ticker with the given period.
        fn new(period: Span) -> Self {
            Ticker { period, ticks: 0 }
        }

        /// Number of ticks so far.
        fn ticks(&self) -> u64 {
            self.ticks
        }
    }

    impl<O> Consumes<O> for Ticker {}

    impl Process for Ticker {
        type Msg = ();
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, (), u64>) {
            ctx.set_timer(self.period, TimerTag(0));
        }

        fn on_message(&mut self, _msg: (), _ctx: &mut ActionSink<'_, (), u64>) {}

        fn on_timer(&mut self, _timer: TimerTag, ctx: &mut ActionSink<'_, (), u64>) {
            self.ticks += 1;
            ctx.publish(self.ticks);
            ctx.set_timer(self.period, TimerTag(0));
        }
    }

    /// Broadcasts a greeting at start and counts what it hears.
    #[derive(Debug)]
    struct Chatter {
        word: &'static str,
        heard: u64,
    }

    impl Process for Chatter {
        type Msg = &'static str;
        type Output = &'static str;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, &'static str, &'static str>) {
            ctx.broadcast(self.word);
        }

        fn on_message(
            &mut self,
            msg: &'static str,
            ctx: &mut ActionSink<'_, &'static str, &'static str>,
        ) {
            self.heard += 1;
            ctx.publish(msg);
        }

        fn on_timer(
            &mut self,
            _t: TimerTag,
            _ctx: &mut ActionSink<'_, &'static str, &'static str>,
        ) {
        }
    }

    impl Consumes<&'static str> for Chatter {}

    /// Publishes `1` at start, then two outputs at every timer.
    #[derive(Debug)]
    struct Speaker {
        said: u64,
    }

    impl Process for Speaker {
        type Msg = ();
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, (), u64>) {
            self.said = 1;
            ctx.publish(self.said);
            ctx.set_timer(Span::from_ticks(2), TimerTag(0));
        }

        fn on_message(&mut self, _msg: (), _ctx: &mut ActionSink<'_, (), u64>) {}

        fn on_timer(&mut self, _timer: TimerTag, ctx: &mut ActionSink<'_, (), u64>) {
            for _ in 0..2 {
                self.said += 1;
                ctx.publish(self.said);
            }
            ctx.set_timer(Span::from_ticks(2), TimerTag(0));
        }
    }

    /// Keeps every output it is handed, and publishes at each of its
    /// own callbacks how many it has been handed so far.
    #[derive(Debug, Default)]
    struct Listener {
        heard: Vec<u64>,
    }

    impl Consumes<u64> for Listener {
        fn consume(&mut self, output: &u64) {
            self.heard.push(*output);
        }
    }

    impl Consumes<()> for Listener {}

    impl Process for Listener {
        type Msg = ();
        type Output = usize;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, (), usize>) {
            ctx.publish(self.heard.len());
            ctx.set_timer(Span::from_ticks(3), TimerTag(0));
        }

        fn on_message(&mut self, _msg: (), _ctx: &mut ActionSink<'_, (), usize>) {}

        fn on_timer(&mut self, _timer: TimerTag, ctx: &mut ActionSink<'_, (), usize>) {
            ctx.publish(self.heard.len());
            ctx.set_timer(Span::from_ticks(3), TimerTag(0));
        }
    }

    /// Checks one run's history of a speaker stacked (however deep) under
    /// a listener: `said` is what the speaker published and `counts` what
    /// the listener did, in the order the engine recorded them. At each
    /// of its callbacks — its `on_start` included — the listener has been
    /// handed exactly what the speaker published before, in order.
    fn assert_handed_over_in_order(history: &[Either<u64, usize>], heard: &[u64]) {
        let said: Vec<u64> = history
            .iter()
            .filter_map(|o| match o {
                Either::L(v) => Some(*v),
                Either::R(_) => None,
            })
            .collect();
        assert_eq!(heard, &said[..heard.len()], "handed over in order");
        let mut before = 0;
        let mut counts = Vec::new();
        for o in history {
            match o {
                Either::L(_) => before += 1,
                Either::R(count) => {
                    assert_eq!(*count, before, "stale at a callback");
                    counts.push(*count);
                }
            }
        }
        assert_eq!(counts.first(), Some(&1), "on_start sees the lower on_start");
        assert!(counts.len() >= 5 && said.len() >= 10, "the run did little");
    }

    /// What the relay-order test saw, in order: an action the engine
    /// took (its `Debug` form), or an output the innermost upper half was
    /// handed.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Took(String),
        Handed(u64),
    }

    thread_local! {
        static SEEN: std::cell::RefCell<Vec<Seen>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// The engine's end of the relay-order test: logs each action it takes.
    struct Taker;

    impl<M: fmt::Debug, O: fmt::Debug> Emit<M, O> for Taker {
        fn emit(&mut self, action: Action<M, O>) {
            SEEN.with_borrow_mut(|seen| seen.push(Seen::Took(format!("{action:?}"))));
        }
    }

    /// Emits all eight action kinds, interleaved, at its start, from `v`
    /// on; logs every output it is handed.
    struct AllKinds(u64);

    impl Process for AllKinds {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
            let v = self.0;
            ctx.broadcast(v);
            ctx.publish(v + 1);
            ctx.set_timer(Span::from_ticks(2), TimerTag(1));
            ctx.observe(|| ObsKind::LockReleased { round: v });
            ctx.cancel_timer(Time::from_ticks(9), TimerTag(2));
            ctx.note_discard();
            ctx.publish(v + 2);
            ctx.decide(v + 3);
            ctx.halt();
        }

        fn on_message(&mut self, _msg: u64, _ctx: &mut ActionSink<'_, u64, u64>) {}

        fn on_timer(&mut self, _timer: TimerTag, _ctx: &mut ActionSink<'_, u64, u64>) {}
    }

    impl Consumes<u64> for AllKinds {
        fn consume(&mut self, output: &u64) {
            SEEN.with_borrow_mut(|seen| seen.push(Seen::Handed(*output)));
        }
    }

    /// Every half of a nested stack emits every action kind: the engine
    /// takes them in emission order, each timer tag lifted at both levels
    /// (`X`'s `t` on `2t`, `Y`'s on `4t + 1`, `Z`'s on `4t + 3`); `Z` is
    /// handed each lower output before its publish reaches the engine, so
    /// before the next action too; and only a recorder lets `Observe`
    /// through.
    #[test]
    fn a_nested_stack_relays_every_action_in_emission_order() {
        type Out = Either<u64, Either<u64, u64>>;
        let took = |a: Action<Out, Out>| Seen::Took(format!("{a:?}"));
        let (l, rl, rr) = (
            Either::L,
            |v| Either::R(Either::L(v)),
            |v| Either::R(Either::R(v)),
        );
        let (two, nine) = (Span::from_ticks(2), Time::from_ticks(9));
        let run = |observing: bool| {
            let mut stack = Stacked::new(AllKinds(10), Stacked::new(AllKinds(20), AllKinds(30)));
            let mut taker = Taker;
            let sink = ActionSink::new(Identity::new(0), Time::ZERO, &mut taker);
            stack.on_start(&mut sink.with_observing(observing));
            SEEN.take()
        };
        let expected = [
            took(Action::Broadcast(l(10))),
            Seen::Handed(11),
            took(Action::Publish(l(11))),
            took(Action::SetTimer(two, TimerTag(2))),
            took(Action::CancelTimer(nine, TimerTag(4))),
            took(Action::Discard),
            Seen::Handed(12),
            took(Action::Publish(l(12))),
            took(Action::Decide(13)),
            took(Action::Halt),
            took(Action::Broadcast(rl(20))),
            Seen::Handed(21),
            took(Action::Publish(rl(21))),
            took(Action::SetTimer(two, TimerTag(5))),
            took(Action::CancelTimer(nine, TimerTag(9))),
            took(Action::Discard),
            Seen::Handed(22),
            took(Action::Publish(rl(22))),
            took(Action::Decide(23)),
            took(Action::Halt),
            took(Action::Broadcast(rr(30))),
            took(Action::Publish(rr(31))),
            took(Action::SetTimer(two, TimerTag(7))),
            took(Action::CancelTimer(nine, TimerTag(11))),
            took(Action::Discard),
            took(Action::Publish(rr(32))),
            took(Action::Decide(33)),
            took(Action::Halt),
        ];
        assert_eq!(run(false), expected);
        let observed: Vec<_> = (run(true).into_iter())
            .filter(|seen| matches!(seen, Seen::Took(a) if a.starts_with("Observe")))
            .collect();
        let rounds =
            [10, 20, 30].map(|round| took(Action::Observe(ObsKind::LockReleased { round })));
        assert_eq!(observed, rounds);
    }

    fn one_process() -> SimConfig {
        SimConfig::new(
            IdentityAssignment::unique(1),
            FailureSchedule::none(1),
            NetworkModel::reliable(Span::TICK),
        )
    }

    #[test]
    fn the_upper_half_is_handed_every_output_before_its_next_callback() {
        let mut e = Engine::new(one_process(), |_, _| {
            Stacked::new(Speaker { said: 0 }, Listener::default())
        });
        e.run_until(Time::from_ticks(20));
        let history: Vec<_> = e.histories()[0].iter().map(|(_, o)| o.clone()).collect();
        assert_handed_over_in_order(&history, &e.process(0).upper().heard);
    }

    #[test]
    fn a_nested_stack_hands_the_outer_lower_half_to_the_inner_upper() {
        let mut e = Engine::new(one_process(), |_, _| {
            Stacked::new(Speaker { said: 0 }, Stacked::new(Idle, Listener::default()))
        });
        e.run_until(Time::from_ticks(20));
        let history: Vec<_> = e.histories()[0]
            .iter()
            .filter_map(|(_, o)| match o {
                Either::L(v) => Some(Either::L(*v)),
                Either::R(Either::R(count)) => Some(Either::R(*count)),
                Either::R(Either::L(())) => None,
            })
            .collect();
        assert_handed_over_in_order(&history, &e.process(0).upper().upper().heard);
    }

    #[test]
    fn both_halves_run_and_messages_do_not_cross() {
        let cfg = SimConfig::new(
            IdentityAssignment::unique(2),
            FailureSchedule::none(2),
            NetworkModel::reliable(Span::TICK),
        );
        let mut e = Engine::new(cfg, |_, _| {
            Stacked::new(
                Chatter {
                    word: "lower",
                    heard: 0,
                },
                Chatter {
                    word: "upper",
                    heard: 0,
                },
            )
        });
        e.run_until(Time::from_ticks(50));
        for p in 0..2 {
            // Each half hears exactly its own protocol: 2 copies each.
            assert_eq!(e.process(p).lower().heard, 2);
            assert_eq!(e.process(p).upper().heard, 2);
            let (lo, hi) = split_history(&e.histories()[p]);
            assert!(lo.iter().all(|(_, w)| *w == "lower"));
            assert!(hi.iter().all(|(_, w)| *w == "upper"));
        }
    }

    #[test]
    fn timer_tags_are_demultiplexed() {
        let cfg = SimConfig::new(
            IdentityAssignment::unique(1),
            FailureSchedule::none(1),
            NetworkModel::reliable(Span::TICK),
        );
        let mut e = Engine::new(cfg, |_, _| {
            Stacked::new(
                Ticker::new(Span::from_ticks(2)),
                Ticker::new(Span::from_ticks(3)),
            )
        });
        e.run_until(Time::from_ticks(12));
        // Lower ticks at 2,4,6,8,10,12; upper at 3,6,9,12.
        assert_eq!(e.process(0).lower().ticks(), 6);
        assert_eq!(e.process(0).upper().ticks(), 4);
    }

    #[test]
    fn idle_half_is_inert() {
        let cfg = SimConfig::new(
            IdentityAssignment::unique(1),
            FailureSchedule::none(1),
            NetworkModel::reliable(Span::TICK),
        );
        let mut e = Engine::new(cfg, |_, _| Stacked::new(Idle, Ticker::new(Span::TICK)));
        e.run_until(Time::from_ticks(5));
        assert_eq!(e.process(0).upper().ticks(), 5);
    }
}
