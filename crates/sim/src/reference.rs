//! The **reference interpreter**: the execution semantics of
//! [`Engine`](crate::engine::Engine), written the slow, obvious way.
//!
//! The paper fixes one semantics per model — deliver in `(time, insertion
//! sequence)` order, route every copy of a broadcast independently, let a
//! broadcast interrupted by a crash reach an arbitrary subset.
//! [`ReferenceEngine`] is that specification as code; `Engine` is the
//! implementation checked against it.
//!
//! **Contract.** Built from the same `(SimConfig, factory)` pair and run
//! to the same deadline, the two agree **byte for byte** on trace,
//! recorder contents, [`Metrics`], histories, decisions and final clock,
//! under every network model and every fault script, link clauses and
//! Byzantine attacks alike; the differential proptests in `tests/`
//! assert it. A stop *condition* is checked after every event by both,
//! so they also stop at the same one.
//!
//! **Cancelled timers.** A timer withdrawn by
//! [`ActionSink::cancel_timer`] behaves as if it had never been armed: it
//! is not dispatched, counted or traced, and takes no part in any stop
//! condition or in the event valve. Arming it still used up its
//! insertion sequence number, so what was queued after it keeps its
//! place in the dispatch order. A cancel withdraws every pending timer of
//! its process armed for that instant with that tag — one still to come
//! in the tick being dispatched included — and nothing else.
//!
//! **Deliberately naive.** A `BTreeMap<(Time, u64), _>` queue; one
//! `NetworkModel::route`, one `FaultScript::fate` and one
//! `FaultScript::directive` per copy, in destination order; one
//! callback and one fresh action `Vec` per event; every queued copy an
//! owned clone. No arena, no dead-destination elision, no snapshots. Only
//! the seed derivation (`RunStreams`) and the loud failure of a missing
//! mutation hook (`forge`) are shared with `Engine`, so all three RNG
//! streams start equal.

use std::collections::BTreeMap;

use homonym_core::identity::Identity;
use homonym_core::properties::History;
use homonym_core::time::{Span, Time};
use homonym_obs::{ObsKind, Recorder};
use rand::Rng;

use crate::adversary::{forge, ByzDirective};
use crate::engine::{Metrics, RunStreams, SimConfig, StopReason};
use crate::process::{reads, Action, ActionSink, Process, TimerTag};

type Key = (Time, u64); // dispatch order: time, then insertion sequence

enum Event<M> {
    Start,
    Deliver(M),
    Timer(TimerTag),
}

/// The naive discrete-event interpreter; see the module docs.
pub struct ReferenceEngine<P: Process> {
    config: SimConfig,
    procs: Vec<P>,
    halted: Vec<bool>,
    /// Each entry is `(destination, event)`; `pop_first` dispatches.
    queue: BTreeMap<Key, (usize, Event<P::Msg>)>,
    seq: u64,
    now: Time,
    streams: RunStreams,
    /// The last payload each replay-listed sender broadcast.
    byz_replay: Vec<Option<P::Msg>>,
    metrics: Metrics,
    histories: Vec<History<P::Output>>,
    decisions: Vec<Option<(Time, u64)>>,
    classifier: Option<fn(&P::Msg) -> &'static str>,
    trace: Option<Recorder>,
    recorder: Option<Recorder>,
}

impl<P: Process> ReferenceEngine<P> {
    /// Like [`Engine::new`](crate::engine::Engine::new): `factory(p, id(p))` builds process `p`.
    pub fn new(config: SimConfig, mut factory: impl FnMut(usize, Identity) -> P) -> Self {
        let n = config.assign.n();
        ReferenceEngine {
            procs: (0..n).map(|p| factory(p, config.assign.id_of(p))).collect(),
            halted: vec![false; n],
            queue: (0..n)
                .map(|p| ((Time::ZERO, p as u64), (p, Event::Start)))
                .collect(),
            seq: n as u64,
            now: Time::ZERO,
            streams: RunStreams::new(&config),
            byz_replay: (0..n).map(|_| None).collect(),
            metrics: Metrics::default(),
            histories: (0..n).map(|_| Vec::new()).collect(),
            decisions: vec![None; n],
            classifier: None,
            trace: None,
            recorder: None,
            config,
        }
    }

    /// See [`Engine::set_classifier`](crate::engine::Engine::set_classifier).
    pub fn set_classifier(&mut self, f: fn(&P::Msg) -> &'static str) {
        self.classifier = Some(f);
    }

    /// See [`Engine::enable_trace`](crate::engine::Engine::enable_trace).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Recorder::new(capacity));
    }

    /// Attaches a [`Recorder`] keeping at most `capacity` events.
    pub fn enable_recorder(&mut self, capacity: usize) {
        self.recorder = Some(Recorder::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Recorder> {
        self.trace.as_ref()
    }

    /// The attached recorder, if one was enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// The run's metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Recorded output histories, indexed by process.
    pub fn histories(&self) -> &[History<P::Output>] {
        &self.histories
    }

    /// Recorded decisions, indexed by process.
    pub fn decisions(&self) -> &[Option<(Time, u64)>] {
        &self.decisions
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Read access to a process's state.
    pub fn process(&self, p: usize) -> &P {
        &self.procs[p]
    }

    /// Whether every correct process has decided.
    pub fn all_correct_decided(&self) -> bool {
        (0..self.decisions.len())
            .all(|p| !self.config.sched.is_correct(p) || self.decisions[p].is_some())
    }

    /// Runs until the deadline (inclusive) or quiescence.
    pub fn run_until(&mut self, deadline: Time) -> StopReason {
        self.run_with(deadline, |_| false)
    }

    /// Runs until `cond(self)` holds (checked after every event), the
    /// deadline passes, nothing is queued, or the event valve trips.
    pub fn run_with(&mut self, deadline: Time, mut cond: impl FnMut(&Self) -> bool) -> StopReason {
        if cond(self) {
            return StopReason::ConditionMet;
        }
        loop {
            let Some((&(at, _), _)) = self.queue.first_key_value() else {
                self.now = self.now.max(deadline);
                return StopReason::Quiescent;
            };
            if at > deadline {
                self.now = deadline;
                return StopReason::Deadline;
            }
            if self.metrics.events >= self.config.max_events {
                return StopReason::EventLimit;
            }
            let (_, (dst, ev)) = self.queue.pop_first().expect("peeked");
            self.now = at;
            self.dispatch(dst, ev);
            if cond(self) {
                return StopReason::ConditionMet;
            }
        }
    }

    fn push(&mut self, at: Time, dst: usize, ev: Event<P::Msg>) {
        self.queue.insert((at, self.seq), (dst, ev));
        self.seq += 1;
    }

    fn trace_event(&mut self, process: usize, kind: ObsKind) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(self.now, process, kind);
        }
    }

    fn observe(&mut self, process: usize, kind: ObsKind) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(self.now, process, kind);
        }
    }

    fn class_of(&self, msg: &P::Msg) -> &'static str {
        self.classifier.map_or("msg", |f| f(msg))
    }

    /// One step of `dst`: a crashed or halted process takes none.
    fn dispatch(&mut self, dst: usize, ev: Event<P::Msg>) {
        if self.halted[dst] || !self.config.sched.is_alive(dst, self.now) {
            return;
        }
        let at = self.now;
        self.metrics.events += 1;
        let traced = match &ev {
            Event::Start => ObsKind::Started,
            Event::Deliver(msg) => {
                self.metrics.copies_delivered += 1;
                ObsKind::Delivered {
                    class: self.class_of(msg),
                }
            }
            &Event::Timer(tag) => {
                self.metrics.timers_fired += 1;
                ObsKind::TimerFired { tag: tag.0 }
            }
        };
        self.trace_event(dst, traced);
        let mut actions = Vec::new();
        let id = self.config.assign.id_of(dst);
        let mut sink =
            ActionSink::new(id, at, &mut actions).with_observing(self.recorder.is_some());
        match ev {
            Event::Start => self.procs[dst].on_start(&mut sink),
            Event::Deliver(msg) => self.procs[dst].on_message(msg, &mut sink),
            Event::Timer(tag) => self.procs[dst].on_timer(tag, &mut sink),
        }
        actions.into_iter().for_each(|a| self.apply(dst, a));
    }

    fn apply(&mut self, src: usize, action: Action<P::Msg, P::Output>) {
        let at = self.now;
        match action {
            Action::Broadcast(msg) => self.broadcast(src, &msg),
            Action::SetTimer(delay, tag) => {
                let fire = at + Span::from_ticks(delay.ticks().max(1));
                self.push(fire, src, Event::Timer(tag));
            }
            Action::CancelTimer(fire, tag) => {
                let armed = |&(_, (dst, ev)): &(&Key, &(usize, Event<P::Msg>))| {
                    *dst == src && matches!(ev, Event::Timer(t) if *t == tag)
                };
                let keys: Vec<Key> = (self.queue.range((fire, 0)..=(fire, u64::MAX)))
                    .filter(armed)
                    .map(|(&key, _)| key)
                    .collect();
                for key in keys {
                    self.queue.remove(&key);
                }
            }
            Action::Publish(output) => self.histories[src].push((at, output)),
            Action::Decide(value) if self.decisions[src].is_none() => {
                self.decisions[src] = Some((at, value));
                self.trace_event(src, ObsKind::Decided { value });
                self.observe(src, ObsKind::Decided { value });
            }
            Action::Decide(_) => {} // only the first decision counts
            Action::Halt => {
                self.halted[src] = true;
                self.trace_event(src, ObsKind::Halted);
            }
            Action::Observe(kind) => self.observe(src, kind),
            Action::Discard => self.metrics.copies_discarded += 1,
        }
    }

    /// `broadcast(m)`: one independently routed copy per process, self included.
    fn broadcast(&mut self, src: usize, msg: &P::Msg) {
        let now = self.now;
        self.metrics.broadcasts += 1;
        if let Some(f) = self.classifier {
            *self.metrics.by_class.entry(f(msg)).or_insert(0) += 1;
        }
        let class = self.class_of(msg);
        self.trace_event(src, ObsKind::Broadcast { class });
        // One Byzantine plan per broadcast; `replace` yields the previous payload.
        let byz = self
            .config
            .adversary
            .clone()
            .filter(|s| !s.attacks.is_empty());
        let plan = byz
            .as_ref()
            .and_then(|s| s.plan(now, src, &mut self.streams.byz));
        let replayed = match &byz {
            Some(s) if s.records_replay_at(now, src) => self.byz_replay[src].replace(msg.clone()),
            _ => None,
        };
        // The sender's final step before its crash reaches an arbitrary
        // subset (unless it halted earlier in this very step).
        let dying = self.config.partial_broadcast_on_crash
            && !self.halted[src]
            && self.config.sched.crash_time(src) == Some(now.next());
        for dst in 0..self.procs.len() {
            if dying && self.streams.net.gen_bool(0.5) {
                continue;
            }
            self.metrics.copies_sent += 1;
            let Some(base) = self.config.network.route(now, &mut self.streams.net) else {
                self.metrics.copies_lost += 1;
                continue;
            };
            let fate = match &self.config.adversary {
                Some(script) => script.fate(now, src, dst, base, &mut self.streams.adv),
                None => Some(base),
            };
            let Some(at) = fate else {
                self.metrics.copies_blocked += 1;
                let from = u32::try_from(src).unwrap_or(u32::MAX);
                self.observe(dst, ObsKind::CopyBlocked { from });
                continue;
            };
            let directive = match (&byz, &plan) {
                (Some(script), Some(plan)) => script.directive(plan, dst),
                _ => ByzDirective::Original,
            };
            // The attack on this copy: name and forged payload (`None` = suppressed).
            let attack = match directive {
                ByzDirective::Original => None,
                ByzDirective::Suppress => Some(("suppress", None)),
                ByzDirective::Equivocate(e) => {
                    Some(("equivocate", Some(forge(P::mutate_payload, msg, e))))
                }
                ByzDirective::Corrupt(e) => {
                    Some(("corrupt", Some(forge(P::mutate_payload, msg, e))))
                }
                // Nothing cached yet: the replay degenerates to honesty.
                ByzDirective::Replay => replayed.clone().map(|old| ("replay", Some(old))),
            };
            let payload = match attack {
                None => msg.clone(),
                Some((kind, forged)) => {
                    let victim = u32::try_from(dst).unwrap_or(u32::MAX);
                    self.observe(dst, ObsKind::AttackFired { kind, victim });
                    let Some(forged) = forged else {
                        self.metrics.copies_suppressed += 1;
                        continue;
                    };
                    self.metrics.copies_forged += 1;
                    forged
                }
            };
            // Dead first, then unread: only a copy its destination could
            // still take a step on is judged by whom it names.
            let dead = self.halted[dst] || !self.config.sched.is_alive(dst, at);
            if !dead && !reads::<P>(self.config.assign.id_of(dst), &payload) {
                self.metrics.copies_unaddressed += 1;
                continue;
            }
            self.push(at, dst, Event::Deliver(payload));
        }
    }
}
