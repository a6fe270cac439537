//! The algorithm-facing process abstraction.
//!
//! A [`Process`] is the program run by every process of the system. Per the
//! paper's model, homonymous processes execute the **same program**; the
//! engine therefore runs one `Process` implementation for the whole system,
//! constructed per process index by a factory. A process observes only:
//!
//! * its own identifier (`ctx.my_id()`),
//! * the payloads of messages delivered to it (never the sender or link),
//! * its own timers,
//!
//! and a message may name the one label that reads it — the only address a
//! homonymous system has.
//!
//! It cannot read the global clock, the membership, or the failure pattern,
//! and it has no random stream: the paper's algorithms are deterministic,
//! so a step depends only on the state and the message or timer it takes.
//!
//! ## Addressed messages
//!
//! `broadcast` stays the only primitive, and a sender cannot pick out a
//! process. What it can do is put an identifier in the payload and have
//! every process that does not carry it drop the copy on sight — Figure 6's
//! `P_REPLY(…, id(q), id(p))` does. [`Process::addressee`] declares that to
//! the engine, under a two-part contract: at a process whose identifier
//! differs from `addressee(msg)`, `on_message(msg)`
//!
//! 1. emits no action, and
//! 2. leaves the state as it was.
//!
//! The engine then routes such a copy only to the carriers of that label
//! ([`reads`] is the one test, shared by both interpreters) and counts the
//! rest in `Metrics::copies_unaddressed`. That is all it enforces: the
//! contract itself is the implementor's to keep — and to test, since a
//! message that *is* read at other labels would silently lose those
//! readers.

use core::fmt;

use homonym_core::identity::Identity;
use homonym_core::time::{Span, Time};
use homonym_obs::ObsKind;

/// Payload constraints for protocol messages.
pub trait Message: Clone + fmt::Debug + Send + 'static {}
impl<T: Clone + fmt::Debug + Send + 'static> Message for T {}

/// An opaque timer tag chosen by the process when arming a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerTag(pub u64);

impl fmt::Display for TimerTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// A program executed by (possibly homonymous) processes.
///
/// All callbacks receive an [`ActionSink`] used to broadcast, arm timers,
/// publish detector output snapshots, and decide.
pub trait Process: Send + 'static {
    /// Protocol message payload.
    type Msg: Message;
    /// Detector-output type recorded by the engine for property checking
    /// (use `()` for processes that are not detectors).
    type Output: Clone + fmt::Debug + Send + 'static;

    /// Called once when the process starts (time 0 for all processes).
    fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>);

    /// Called when a broadcast message is delivered to this process.
    /// The sender and the link are unobservable, per the model.
    fn on_message(&mut self, msg: Self::Msg, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>);

    /// Called when a timer armed through [`ActionSink::set_timer`] fires
    /// (never for one withdrawn by [`ActionSink::cancel_timer`]).
    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>);

    /// The **payload-mutation hook** of the Byzantine adversary (see
    /// [`Attack`](crate::adversary::Attack)): a
    /// plausible-but-different variant of `msg`, deterministically
    /// derived from `entropy` — what a corrupt homonym delivers to its
    /// victims in place of the honest copy.
    ///
    /// The default returns `None`, meaning the message type defines no
    /// corruption semantics; the engine **panics** if a Byzantine clause
    /// then matches one of this program's broadcasts (a configuration
    /// error — the attack is meaningless without mutation semantics).
    /// Implementations must be pure (same `(msg, entropy)` ⇒ same
    /// result, the replayability contract) and should perturb
    /// protocol-meaningful fields (estimates, identifiers, decision
    /// values) rather than produce garbage the receiver would reject
    /// structurally.
    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg>
    where
        Self: Sized,
    {
        let _ = (msg, entropy);
        None
    }

    /// The one label that reads `msg`, if it names one; `None` (the
    /// default) means every process does. An implementor returning
    /// `Some(id)` promises that at a process whose identifier differs from
    /// `id`, `on_message(msg)` emits no action and leaves the state as it
    /// was (a process has no random stream, so that is all a step can
    /// touch) — the engine relies on it to not deliver those copies at
    /// all (see the module docs).
    fn addressee(msg: &Self::Msg) -> Option<Identity>
    where
        Self: Sized,
    {
        let _ = msg;
        None
    }
}

/// Whether a process carrying `id` reads `msg`: the routing rule both
/// interpreters apply to the payload a copy would deliver.
#[must_use]
pub fn reads<P: Process>(id: Identity, msg: &P::Msg) -> bool {
    P::addressee(msg).is_none_or(|label| label == id)
}

/// Effects a process can request during a callback.
///
/// Public so that engines and wrapping processes (`ReferenceEngine`,
/// `Stacked`, the replicated log's height envelope) can drain and apply
/// them; algorithm code never constructs these directly.
#[derive(Debug, Clone)]
pub enum Action<M, O> {
    /// Send `m` to every process, self included.
    Broadcast(M),
    /// Arm a one-shot timer.
    SetTimer(Span, TimerTag),
    /// Withdraw the pending timers armed to fire at this instant with
    /// this tag (see [`ActionSink::cancel_timer`]).
    CancelTimer(Time, TimerTag),
    /// Record a detector-output snapshot.
    Publish(O),
    /// Record a consensus decision.
    Decide(u64),
    /// Stop delivering callbacks to this process.
    Halt,
    /// Record a structured observability event (emitted only while a
    /// recorder is attached; see [`ActionSink::observe`]).
    Observe(ObsKind),
    /// Count one admission-window rejection into the engine's
    /// `copies_discarded` metric (emitted unconditionally; see
    /// [`ActionSink::note_discard`]).
    Discard,
}

/// The process's handle to the outside world during one callback.
///
/// The sink records requested effects; the engine applies them when the
/// callback returns (a crash scheduled mid-broadcast can then deliver the
/// message to an arbitrary subset, as the model prescribes). It offers no
/// randomness: a process is a deterministic automaton, and every random
/// draw of a run is the engine's (network, adversary, Byzantine streams).
pub struct ActionSink<'a, M, O> {
    my_id: Identity,
    now: Time,
    actions: &'a mut Vec<Action<M, O>>,
    /// Whether an observability recorder is attached to the engine: the
    /// gate of [`ActionSink::observe`].
    obs_on: bool,
}

impl<'a, M, O> ActionSink<'a, M, O> {
    /// Creates a sink collecting into `actions`. For engine implementors;
    /// algorithm code receives sinks from its engine.
    pub fn new(my_id: Identity, now: Time, actions: &'a mut Vec<Action<M, O>>) -> Self {
        ActionSink {
            my_id,
            now,
            actions,
            obs_on: false,
        }
    }

    /// Sets whether [`ActionSink::observe`] is live (builder style). The
    /// engines thread their recorder's presence through this; it must
    /// never change any other effect of the sink.
    #[must_use]
    pub fn with_observing(mut self, on: bool) -> Self {
        self.obs_on = on;
        self
    }

    /// The identifier `id(p)` of this process. Homonyms observe the same
    /// value; it is the **only** initial knowledge a process has.
    #[must_use]
    pub fn my_id(&self) -> Identity {
        self.my_id
    }

    /// The local virtual time at which this callback runs.
    ///
    /// Exposed for logging/adaptive timeouts relative to the process's own
    /// events; algorithms must not use it as a synchronized global clock
    /// (the engine offers no cross-process time agreement API).
    #[must_use]
    pub fn local_now(&self) -> Time {
        self.now
    }

    /// Sends `m` to **all** processes of the system, itself included
    /// (the paper's `broadcast` primitive).
    pub fn broadcast(&mut self, m: M) {
        self.actions.push(Action::Broadcast(m));
    }

    /// Arms a one-shot timer that fires after `delay` (at least one tick),
    /// at `local_now() + max(delay, 1)`: the instant that names it to
    /// [`ActionSink::cancel_timer`]. A timer the process no longer needs
    /// still fires unless it is cancelled, and its firing is a step like
    /// any other: counted, traced and dispatched.
    pub fn set_timer(&mut self, delay: Span, tag: TimerTag) {
        self.actions.push(Action::SetTimer(delay, tag));
    }

    /// Withdraws every timer of this process still pending that was armed
    /// to fire at `at` with `tag`. A withdrawn timer behaves as if it had
    /// never been armed — it is never dispatched, counted or traced —
    /// except that arming it used up its place in the dispatch order. A
    /// cancel that names nothing pending (a timer that already fired, an
    /// instant never armed) does nothing; so does one for the current
    /// instant whose timer has fired earlier in this tick, while one whose
    /// timer is still to come in this tick withdraws it.
    pub fn cancel_timer(&mut self, at: Time, tag: TimerTag) {
        self.actions.push(Action::CancelTimer(at, tag));
    }

    /// Appends `output` to this process's history, which is read as the
    /// step function of its output: publish when the output changes.
    pub fn publish(&mut self, output: O) {
        self.actions.push(Action::Publish(output));
    }

    /// Records a consensus decision. The process keeps running (the
    /// Figure 8/9 `Task T2` keeps relaying `DECIDE`) unless it also calls
    /// [`ActionSink::halt`].
    pub fn decide(&mut self, value: u64) {
        self.actions.push(Action::Decide(value));
    }

    /// Stops the process: no further callbacks are delivered.
    pub fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }

    /// Whether an observability recorder is attached (the gate of
    /// [`ActionSink::observe`]); stacking relays propagate this to their
    /// sub-sinks.
    #[must_use]
    pub fn observing(&self) -> bool {
        self.obs_on
    }

    /// Records a structured observability event — **only** while the
    /// engine has a recorder attached. The closure is never evaluated
    /// otherwise, so instrumentation costs one predictable branch when
    /// off and dispatch stays byte-identical either way (the zero-cost
    /// contract pinned by the `obs_props` proptests).
    pub fn observe(&mut self, f: impl FnOnce() -> ObsKind) {
        if self.obs_on {
            self.actions.push(Action::Observe(f()));
        }
    }

    /// Counts one admission-window rejection into the engine's
    /// `copies_discarded` metric. Unlike [`ActionSink::observe`] this is
    /// **unconditional** — the metric counts identically with or without
    /// a recorder attached.
    pub fn note_discard(&mut self) {
        self.actions.push(Action::Discard);
    }
}

impl<M, O> fmt::Debug for ActionSink<'_, M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionSink")
            .field("my_id", &self.my_id)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_actions_in_order() {
        let mut actions: Vec<Action<u32, ()>> = Vec::new();
        let mut sink = ActionSink::new(Identity::new(0), Time::ZERO, &mut actions);
        sink.broadcast(7);
        sink.set_timer(Span::from_ticks(3), TimerTag(1));
        sink.cancel_timer(Time::from_ticks(3), TimerTag(1));
        sink.decide(9);
        sink.halt();
        assert_eq!(actions.len(), 5);
        assert!(matches!(actions[0], Action::Broadcast(7)));
        assert!(matches!(actions[1], Action::SetTimer(d, TimerTag(1)) if d == Span::from_ticks(3)));
        assert!(
            matches!(actions[2], Action::CancelTimer(t, TimerTag(1)) if t == Time::from_ticks(3))
        );
        assert!(matches!(actions[3], Action::Decide(9)));
        assert!(matches!(actions[4], Action::Halt));
    }

    #[test]
    fn observe_is_gated_but_note_discard_is_not() {
        let mut actions: Vec<Action<u32, ()>> = Vec::new();
        let mut off = ActionSink::new(Identity::new(0), Time::ZERO, &mut actions);
        assert!(!off.observing());
        off.observe(|| unreachable!("closure must not run without a recorder"));
        off.note_discard();
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Discard));

        let mut actions: Vec<Action<u32, ()>> = Vec::new();
        let mut on =
            ActionSink::new(Identity::new(0), Time::ZERO, &mut actions).with_observing(true);
        assert!(on.observing());
        on.observe(|| ObsKind::LockReleased { round: 3 });
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            Action::Observe(ObsKind::LockReleased { round: 3 })
        ));
    }

    #[test]
    fn sink_exposes_identity_and_time() {
        let mut actions: Vec<Action<u32, ()>> = Vec::new();
        let sink = ActionSink::new(Identity::new(5), Time::from_ticks(9), &mut actions);
        assert_eq!(sink.my_id(), Identity::new(5));
        assert_eq!(sink.local_now(), Time::from_ticks(9));
    }
}
