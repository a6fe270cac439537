//! One engine per height, its actions enveloped and cut at its decision as
//! it emits them (`docs/log_service.md`, "A decided height stops talking").

use std::collections::BTreeMap;

use homonym_core::query::Consumes;
use homonym_core::wire::Persist;
use homonym_sim::process::{Action, ActionSink, Emit, TimerTag};

use super::{HeightEngine, RsmMsg, Sink, MAX_BUFFERED};

/// Timer tags below this value are reserved for the log service itself;
/// a height-`h` engine's tag `t` travels as `(h + 1) * TAG_STRIDE + t`.
/// Per-height engines must keep their private tags below the stride
/// (every in-tree engine uses tag 0).
const TAG_STRIDE: u64 = 16;

/// The engine half of a replica: the only part that holds engine state.
#[derive(Clone)]
pub(super) struct Heights<C: HeightEngine> {
    seed: C::Seed,
    inner: C,
    height: u64,
    /// Engine messages for heights we have not reached, keyed by height.
    future: BTreeMap<u64, Vec<C::Msg>>,
    buffered: usize,
}

impl<C: HeightEngine> Heights<C> {
    /// Height 0, its engine spawned from `seed` on `proposal`.
    pub(super) fn new(seed: C::Seed, proposal: u64) -> Self {
        Heights {
            inner: C::spawn(&seed, proposal),
            seed,
            height: 0,
            future: BTreeMap::new(),
            buffered: 0,
        }
    }

    pub(super) fn height(&self) -> u64 {
        self.height
    }

    pub(super) fn engine(&self) -> &C {
        &self.inner
    }

    pub(super) fn buffered(&self) -> usize {
        self.buffered
    }

    /// Runs `f` against the live engine through a sink whose [`Envelope`]
    /// lifts each action into the log's sink as it is emitted, and returns
    /// the value it decided, if it did: whatever the callback emits after
    /// the decision is cut (`docs/log_service.md`, "A decided height stops
    /// talking"), and an inner `Halt` is swallowed.
    pub(super) fn relay(
        &mut self,
        ctx: &mut Sink<'_, C::Msg>,
        f: impl FnOnce(&mut C, &mut ActionSink<'_, C::Msg, u64>),
    ) -> Option<u64> {
        let (id, now, observing) = (ctx.my_id(), ctx.local_now(), ctx.observing());
        let mut envelope = Envelope {
            outer: ctx,
            height: self.height,
            decided: None,
        };
        f(
            &mut self.inner,
            &mut ActionSink::new(id, now, &mut envelope).with_observing(observing),
        );
        envelope.decided
    }

    /// Relays an engine timer to the live engine and returns the value it
    /// decided. A timer of a decided height is a stale echo of a replaced
    /// engine and is dropped, as is one of the log's own tags, which are
    /// below the stride.
    pub(super) fn on_timer(&mut self, timer: TimerTag, ctx: &mut Sink<'_, C::Msg>) -> Option<u64> {
        let height = (timer.0 / TAG_STRIDE).checked_sub(1)?;
        if height != self.height {
            return None;
        }
        let tag = TimerTag(timer.0 % TAG_STRIDE);
        self.relay(ctx, |c, sub| c.on_timer(tag, sub))
    }

    /// Buffers a future-height engine message (bounded).
    pub(super) fn buffer(&mut self, height: u64, msg: C::Msg, ctx: &mut Sink<'_, C::Msg>) {
        if self.buffered >= MAX_BUFFERED {
            ctx.note_discard();
            return;
        }
        self.future.entry(height).or_default().push(msg);
        self.buffered += 1;
    }

    /// Moves to height `to`, dropping the traffic of the heights passed
    /// (only a state transfer skips heights with traffic buffered).
    /// Returns whether traffic for `to` waits: a peer already runs it.
    pub(super) fn advance(&mut self, to: u64) -> bool {
        self.height = to;
        while let Some(skipped) = self.future.first_entry() {
            if *skipped.key() >= to {
                break;
            }
            self.buffered -= skipped.remove().len();
        }
        self.future.contains_key(&to)
    }

    /// Boots the current height's engine on `proposal` — re-armed in place
    /// — and replays the traffic buffered for the height until it decides;
    /// returns what it decided. After a decision, what is left of the
    /// height's traffic belongs to a decided height and is dropped.
    pub(super) fn boot(&mut self, proposal: u64, ctx: &mut Sink<'_, C::Msg>) -> Option<u64> {
        self.inner.respawn(&self.seed, proposal);
        let msgs = self.future.remove(&self.height).unwrap_or_default();
        self.buffered -= msgs.len();
        let started = self.relay(ctx, |c, sub| c.on_start(sub));
        started.or_else(|| {
            let mut replay = msgs.into_iter();
            replay.find_map(|m| self.relay(ctx, |c, sub| c.on_message(m, sub)))
        })
    }
}

/// The live engine's emitter: lifts each action into the log's sink as the
/// engine emits it — a broadcast into `RsmMsg::Inner` at the height, a tag
/// above the stride — and cuts what follows a decision, but for cancels.
struct Envelope<'s, 'a, M> {
    outer: &'s mut Sink<'a, M>,
    height: u64,
    decided: Option<u64>,
}

impl<M> Emit<M, u64> for Envelope<'_, '_, M> {
    fn emit(&mut self, action: Action<M, u64>) {
        let h = self.height;
        let lift = |tag: TimerTag| {
            debug_assert!(tag.0 < TAG_STRIDE, "inner timer tag exceeds stride");
            TimerTag((h + 1) * TAG_STRIDE + tag.0)
        };
        match action {
            // A cancel only withdraws, so it passes even the cut below.
            Action::CancelTimer(at, tag) => self.outer.cancel_timer(at, lift(tag)),
            // The height is over: whatever else the callback emits after
            // the decision (a decision echo, the next round's opening
            // messages, a timer re-arm, observations of a round nobody
            // will run) is shed, by position — the log's own `Commit` is
            // the certificate laggards get.
            _ if self.decided.is_some() => {}
            Action::Decide(v) => self.decided = Some(v),
            Action::Broadcast(m) => self.outer.broadcast(RsmMsg::Inner { height: h, msg: m }),
            Action::SetTimer(d, tag) => self.outer.set_timer(d, lift(tag)),
            // Inner engines publish round estimates; the log service's
            // history is the committed log, so those stay internal.
            Action::Publish(_) | Action::Halt => {}
            Action::Observe(k) => self.outer.observe(|| k),
            Action::Discard => self.outer.note_discard(),
        }
    }
}

/// What the stack hands the log goes to the live engine and to the seed,
/// so the next height's engine starts from the same reading.
impl<O, C> Consumes<O> for Heights<C>
where
    C: HeightEngine + Consumes<O>,
    C::Seed: Consumes<O>,
{
    fn consume(&mut self, output: &O) {
        self.seed.consume(output);
        self.inner.consume(output);
    }
}

// `buffered` must count the messages buffered.
homonym_core::persist_fields!(impl[C: HeightEngine + Persist] Heights<C>
    where [C::Seed: Persist, C::Msg: Persist] { seed, inner, height, future, buffered }
    if |h| h.buffered == h.future.values().map(Vec::len).sum::<usize>());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsm::tests::*;
    use crate::rsm::{ByzHeightSeed, LogEntry, ReplicatedLog, RsmOptions};
    use crate::ByzQuorumConsensus;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;
    use homonym_sim::process::{Process, TimerTag};
    use homonym_sim::workload::{WorkloadConfig, NOOP};

    /// An engine that says what it is told to, and decides its proposal
    /// at the start unless that is 0, or a message of 11.
    #[derive(Clone)]
    struct Scripted(u64);

    impl Process for Scripted {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
            ctx.broadcast(self.0);
            ctx.set_timer(Span::from_ticks(2), TimerTag(3));
            if self.0 != 0 {
                ctx.decide(self.0);
            }
            ctx.broadcast(self.0 + 1);
            ctx.set_timer(Span::from_ticks(2), TimerTag(4));
            ctx.cancel_timer(Time::from_ticks(9), TimerTag(5));
            ctx.halt();
        }
        fn on_message(&mut self, msg: u64, ctx: &mut ActionSink<'_, u64, u64>) {
            ctx.broadcast(msg);
            if msg == 11 {
                ctx.decide(msg);
            }
        }
        fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, u64, u64>) {
            ctx.broadcast(100 + timer.0);
        }
    }

    impl HeightEngine for Scripted {
        type Seed = ();

        fn spawn(_seed: &(), proposal: u64) -> Self {
            Scripted(proposal)
        }
    }

    type Actions = Vec<Action<RsmMsg<u64>, LogEntry>>;

    /// What `step` emits on `heights`, and what it returns.
    fn run<T>(
        heights: &mut Heights<Scripted>,
        step: impl FnOnce(&mut Heights<Scripted>, &mut Sink<'_, u64>) -> T,
    ) -> (T, Actions) {
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(Identity::new(0), Time::ZERO, &mut actions);
        let out = step(heights, &mut sink);
        (out, actions)
    }

    /// An engine's tags travel lifted above the log's, by height, and
    /// everything it emits after its decision is cut but its cancels.
    #[test]
    fn engine_tags_are_lifted_and_a_decision_cuts_what_follows() {
        let mut heights = Heights::<Scripted>::new((), 7);
        let (decided, actions) = run(&mut heights, |h, s| h.relay(s, |c, sub| c.on_start(sub)));
        assert_eq!(decided, Some(7));
        let stride = TAG_STRIDE;
        let expected: Actions = vec![
            Action::Broadcast(RsmMsg::Inner { height: 0, msg: 7 }),
            Action::SetTimer(Span::from_ticks(2), TimerTag(stride + 3)),
            Action::CancelTimer(Time::from_ticks(9), TimerTag(stride + 5)),
        ];
        assert_eq!(format!("{actions:?}"), format!("{expected:?}"));
        // At height 2, only height 2's tags reach the engine, lowered.
        assert!(!heights.advance(2));
        for (timer, heard) in [
            (3 * stride + 5, Some(105)),
            (2 * stride + 5, None),
            (1, None),
        ] {
            let (decided, actions) = run(&mut heights, |h, s| h.on_timer(TimerTag(timer), s));
            assert_eq!(decided, None);
            let said: Vec<_> = (actions.iter())
                .map(|a| match a {
                    Action::Broadcast(RsmMsg::Inner { height: 2, msg }) => *msg,
                    other => panic!("{other:?}"),
                })
                .collect();
            assert_eq!(said, Vec::from_iter(heard), "tag {timer}");
        }
    }

    /// A boot replays the height's buffered traffic until the engine
    /// decides; the rest of it belongs to a decided height and goes, and
    /// a later height's traffic waits.
    #[test]
    fn a_boot_replays_the_heights_traffic_up_to_its_decision() {
        let mut heights = Heights::<Scripted>::new((), 0);
        for (height, msg) in [(1, 10), (1, 11), (1, 12), (2, 13)] {
            run(&mut heights, |h, s| h.buffer(height, msg, s));
        }
        assert_eq!(heights.buffered(), 4);
        assert!(heights.advance(1), "traffic waits for height 1");
        let (decided, actions) = run(&mut heights, |h, s| h.boot(0, s));
        assert_eq!(decided, Some(11));
        let sent: Vec<_> = (actions.iter())
            .filter_map(|a| match a {
                Action::Broadcast(RsmMsg::Inner { msg, .. }) => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(sent, [0, 1, 10, 11]);
        assert_eq!(heights.buffered(), 1, "height 2's traffic waits");
    }

    /// A replica at height `h` holding a `commit_quorum` tally for `h + 1`
    /// commits `h + 1` in the callback in which its engine decides `h`:
    /// no `Commit` came in, but the height moved, and that drains
    /// certification too.
    #[test]
    fn a_decision_drains_a_tally_for_the_next_height() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let opts = RsmOptions::byzantine(&assign);
        let quorum = opts.commit_quorum;
        let client = open_queues(4, 0).remove(0);
        let mut node = ReplicatedLog::<Scripted>::new((), client, &assign, opts);
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(assign.id_of(0), Time::ZERO, &mut actions);
        node.on_start(&mut sink);
        for p in 0..quorum {
            let (id, next, state) = (assign.id_of(p), NOOP, None);
            let commit = RsmMsg::Commit {
                height: 1,
                value: 7,
                id,
                next,
                state,
            };
            node.on_message(commit, &mut sink);
        }
        assert_eq!(node.height(), 0, "nothing to commit at height 0 yet");
        node.on_message(RsmMsg::Inner { height: 0, msg: 11 }, &mut sink);
        assert_eq!(node.height(), 2, "height 1 was certified already");
        let entries = actions.iter().filter_map(|a| match a {
            Action::Publish(entry) => Some(entry.value),
            _ => None,
        });
        assert_eq!(entries.collect::<Vec<_>>(), [11, 7]);
    }

    /// [`ByzQuorumConsensus`] behind a newtype that forwards everything
    /// but keeps [`HeightEngine::respawn`]'s default: rebuilt from its
    /// seed at every height.
    struct Rebuilt(ByzQuorumConsensus);

    impl Process for Rebuilt {
        type Msg = <ByzQuorumConsensus as Process>::Msg;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, u64>) {
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, msg: Self::Msg, ctx: &mut ActionSink<'_, Self::Msg, u64>) {
            self.0.on_message(msg, ctx);
        }
        fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, u64>) {
            self.0.on_timer(timer, ctx);
        }
    }

    impl HeightEngine for Rebuilt {
        type Seed = ByzHeightSeed;

        fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
            Rebuilt(ByzQuorumConsensus::spawn(seed, proposal))
        }
    }

    /// Re-arming the engine in place and rebuilding it from the seed are
    /// the same log service: same logs, fingerprints, engine metrics and
    /// final engine state on every replica — over jittery links and past
    /// a crashed coordinator carrier, whose label's rounds wait out the
    /// grace.
    #[test]
    fn respawn_override_matches_the_default_rebuild() {
        fn run<C: HeightEngine<Seed = ByzHeightSeed>>() -> Engine<ReplicatedLog<C>> {
            let n = 8;
            let assign = IdentityAssignment::round_robin(n, 4);
            let queues = WorkloadConfig::default().queues(n);
            let cfg = SimConfig::new(
                assign.clone(),
                FailureSchedule::none(n).with_crash(0, Time::from_ticks(700)),
                NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                    min: Span::TICK,
                    max: Span::from_ticks(4),
                }),
            )
            .with_seed(5);
            let mut engine = Engine::new(cfg, |p, _| {
                let seed = ByzHeightSeed {
                    assign: assign.clone(),
                };
                let opts = RsmOptions::byzantine(&assign);
                ReplicatedLog::<C>::new(seed, queues[p].clone(), &assign, opts)
            });
            engine.run_until(Time::from_ticks(5_000));
            engine
        }
        fn logs<C: HeightEngine>(engine: &Engine<ReplicatedLog<C>>) -> Vec<(Vec<u64>, u64)> {
            let hashes = (0..engine.n()).map(|p| engine.process(p).state_hash());
            published_logs(engine).into_iter().zip(hashes).collect()
        }
        let rearmed = run::<ByzQuorumConsensus>();
        let rebuilt = run::<Rebuilt>();
        let heights = rearmed.process(1).height();
        assert!(heights > 200, "only {heights} heights");
        assert_eq!(rearmed.metrics(), rebuilt.metrics());
        assert_eq!(logs(&rearmed), logs(&rebuilt));
        for p in 0..8 {
            assert_eq!(
                homonym_core::wire::to_bytes(rearmed.process(p).engine()),
                homonym_core::wire::to_bytes(&rebuilt.process(p).engine().0),
                "p{p}'s live engine differs"
            );
        }
    }

    /// Engine traffic for the height ends the wait: a peer already runs
    /// it. Traffic buffered before the height opens means the same, so
    /// such a height boots at once and drains it; traffic for a later
    /// height is buffered and waits on.
    #[test]
    fn an_idle_replica_boots_on_engine_traffic_for_its_height() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let opening = engine_openings(&assign)[0];
        let traffic = |height| RsmMsg::Inner {
            height,
            msg: opening,
        };
        actions_of(&mut node, 0, |n, s| n.on_message(traffic(1), s));
        assert_eq!(node.heights.buffered(), 1);
        let entered = actions_of(&mut node, 1, |n, s| n.commit(NOOP, false, s));
        assert_eq!(booted_in(&entered), Some(1));
        assert_eq!(node.heights.buffered(), 0, "drained at boot");

        actions_of(&mut node, 2, |n, s| n.commit(NOOP, false, s));
        actions_of(&mut node, 3, |n, s| n.on_message(traffic(3), s));
        assert!(node.idle_until().is_some(), "a later height's traffic");
        let woke = actions_of(&mut node, 4, |n, s| n.on_message(traffic(2), s));
        assert_eq!(booted_in(&woke), Some(2), "{woke:?}");
        assert_eq!(node.idle_until(), None);
        assert_eq!(
            node.heights.buffered(),
            1,
            "height 3's traffic waits for height 3"
        );
    }
}
