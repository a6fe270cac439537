//! Multi-height replicated log service: consensus instances chained the
//! Tendermint way, one per log *height*, over a detector that keeps
//! running across heights.
//!
//! The paper's algorithms each solve **one** consensus instance: the
//! engine drives a single `HΩ`/`HΣ`-powered decision and stops. A
//! replicated state machine needs an unbounded sequence of them. This
//! module provides [`ReplicatedLog`], a [`Process`] that
//!
//! * instantiates a fresh per-height engine (any [`HeightEngine`]: the
//!   Byzantine-tolerant quorum stack by default, Figure 8 / Figure 9 /
//!   flooding selectable) for each height `h`,
//! * wraps the engine's traffic in height-tagged envelopes so instances
//!   never cross-talk,
//! * appends the decided command to an ordered log and immediately
//!   restarts the round machinery at `h + 1` with the next client
//!   command from its [`CommandQueue`], and
//! * catches lagging homonyms up: height-tagged messages *from the
//!   future* are buffered until the local log reaches them, messages
//!   *from the past* are answered with the committed entry, and
//!   committed entries carry enough certification (`f + 1` matching
//!   copies under per-label admission caps) that even a Byzantine
//!   minority cannot forge a catch-up.
//!
//! The detector layer is **not** restarted per height. The intended
//! composition is `Stacked<Detector, ReplicatedLog<C>>` (see
//! [`Stacked`](homonym_sim::Stacked)): the detector half runs
//! continuously — as Lynch-style failure-detector executions are defined
//! over infinite runs — while the consensus half above it is replaced
//! every height. Per-height engines reading the detector through a
//! [`SharedCell`](homonym_core::query::SharedCell) mirror (Figure 8) or
//! an oracle handle (Figure 9, flooding) therefore see *warm* detector
//! state at every height, which is what makes post-GST heights decide in
//! a handful of ticks.
//!
//! # Catch-up rule
//!
//! A process at height `h` handles an incoming envelope at height `h'`:
//!
//! * `h' = h` — unwrap and deliver to the live engine.
//! * `h' > h` — buffer (bounded; overflow is counted as a discard) and
//!   replay once the local log reaches `h'`.
//! * `h' < h` — the sender lags: answer (rate-limited per height) with
//!   `Commit { h', log[h'] }` so it can skip its stalled instance.
//!
//! `Commit` messages tally under the same per-label caps the Byzantine
//! quorum stack uses: a label carried by `k` processes contributes at
//! most `k` copies, so `commit_quorum = f + 1` matching copies imply at
//! least one correct witness. In the crash model a quorum of 1 is sound
//! (correct processes only report decided values).
//!
//! # A decided height stops talking
//!
//! `Commit { h, v }` *is* the decision certificate of height `h`: `f + 1`
//! matching copies under the label caps, exactly what the Byzantine
//! engine's own `DECIDE` echo ledger demands. So the moment the height's
//! engine decides, the log broadcasts its `Commit` and drops whatever
//! else the engine emitted in that callback after the decision — the
//! echo, the next round's opening messages, timer re-arms, observations
//! of a round nobody will run. The cut is by position in the action
//! stream; the log never looks inside an engine message.
//!
//! That commit broadcast also counts as the first *answer* about `h`:
//! the tail of height-`h` copies still in flight when a replica commits
//! would otherwise each look like a laggard asking, and earn a second
//! n-copy `Commit`. A replica that is genuinely stuck keeps sending,
//! outlasts [`RsmOptions::answer_interval`], and is answered as before.
//! The throttle keeps one instant per height for the last
//! [`RsmOptions::max_commit_ahead`] heights and a single shared instant
//! for everything older, so it is bounded and a replica far behind is
//! still answered at most once per interval.
//!
//! Which command wins a height is untouched by any of this: with the
//! default engine it is the smallest proposal of the round-0 coordinator
//! label.

use std::collections::{BTreeMap, VecDeque};

use homonym_core::fork::{ForkSpace, ForkState};
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::query::{HOmegaSource, HSigmaSource, SigmaSource};
use homonym_core::time::{Span, Time};
use homonym_sim::process::{Action, ActionSink, Process, TimerTag};
use homonym_sim::snapshot::ForkProcess;
use homonym_sim::workload::CommandQueue;
use homonym_sim::ObsKind;

use crate::byz_quorum::ByzQuorumConsensus;
use crate::fig8::{HOmegaPolicy, LeaderPolicy, MajorityConsensus};
use crate::fig9::QuorumConsensus;
use crate::flooding::PFloodingConsensus;

/// Timer tags below this value are reserved for the log service itself;
/// a height-`h` engine's tag `t` travels as `(h + 1) * TAG_STRIDE + t`.
/// Per-height engines must keep their private tags below the stride
/// (every in-tree engine uses tag 0).
const TAG_STRIDE: u64 = 16;

/// A consensus engine that [`ReplicatedLog`] can instantiate once per
/// height.
///
/// The `Seed` captures everything needed to spawn a fresh instance
/// *except* the proposal: identity assignment, thresholds, tick period,
/// and the detector handle — the part that must stay **shared across
/// heights** so detector state survives instance turnover.
pub trait HeightEngine: Process<Output = u64> + Sized {
    /// Height-independent construction state.
    type Seed: Clone + Send + 'static;

    /// Builds the engine for one height, proposing `proposal`.
    fn spawn(seed: &Self::Seed, proposal: u64) -> Self;

    /// Forks the seed for snapshot/fork support, re-seating any shared
    /// detector wiring through `space` (see
    /// [`ForkProcess`]).
    fn fork_seed(seed: &Self::Seed, space: &mut ForkSpace) -> Self::Seed;
}

/// Seed for the Byzantine-tolerant default engine
/// ([`ByzQuorumConsensus`]).
#[derive(Debug, Clone)]
pub struct ByzHeightSeed {
    /// The system's identity assignment (`n > 3f` required).
    pub assign: IdentityAssignment,
    /// Guard re-evaluation period in ticks.
    pub tick: u64,
}

impl HeightEngine for ByzQuorumConsensus {
    type Seed = ByzHeightSeed;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        ByzQuorumConsensus::new(proposal, &seed.assign).with_tick(seed.tick)
    }

    fn fork_seed(seed: &Self::Seed, _space: &mut ForkSpace) -> Self::Seed {
        seed.clone()
    }
}

/// Seed for the Figure 8 majority engine over any `HΩ` source `D`
/// (typically a [`SharedCell`](homonym_core::query::SharedCell) mirror
/// fed by a stacked detector half).
#[derive(Debug, Clone)]
pub struct Fig8HeightSeed<D> {
    /// System size.
    pub n: usize,
    /// Crash tolerance (`t < n/2`).
    pub t: usize,
    /// The `HΩ` source every height's policy reads.
    pub source: D,
    /// Guard re-evaluation period.
    pub tick: Span,
}

impl<D> HeightEngine for MajorityConsensus<HOmegaPolicy<D>>
where
    D: HOmegaSource + ForkState + Clone + Send + 'static,
    HOmegaPolicy<D>: LeaderPolicy + ForkState,
{
    type Seed = Fig8HeightSeed<D>;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        MajorityConsensus::new(proposal, seed.n, seed.t, HOmegaPolicy(seed.source.clone()))
            .with_tick(seed.tick)
    }

    fn fork_seed(seed: &Self::Seed, space: &mut ForkSpace) -> Self::Seed {
        Fig8HeightSeed {
            n: seed.n,
            t: seed.t,
            source: seed.source.fork_in(space),
            tick: seed.tick,
        }
    }
}

/// Seed for the Figure 9 quorum engine over `HΩ` and `HΣ` sources.
#[derive(Debug, Clone)]
pub struct Fig9HeightSeed<D1, D2> {
    /// The `HΩ` source.
    pub omega: D1,
    /// The `HΣ` source.
    pub sigma: D2,
    /// Guard re-evaluation period.
    pub tick: Span,
}

impl<D1, D2> HeightEngine for QuorumConsensus<D1, D2>
where
    D1: HOmegaSource + ForkState + Clone + Send + 'static,
    D2: HSigmaSource + ForkState + Clone + Send + 'static,
{
    type Seed = Fig9HeightSeed<D1, D2>;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        QuorumConsensus::new(proposal, seed.omega.clone(), seed.sigma.clone()).with_tick(seed.tick)
    }

    fn fork_seed(seed: &Self::Seed, space: &mut ForkSpace) -> Self::Seed {
        Fig9HeightSeed {
            omega: seed.omega.fork_in(space),
            sigma: seed.sigma.fork_in(space),
            tick: seed.tick,
        }
    }
}

/// Seed for the classical flooding baseline over a `Σ`-style complete
/// detector.
#[derive(Debug, Clone)]
pub struct FloodHeightSeed<D> {
    /// Crash tolerance (decides at the end of round `t + 1`).
    pub t: usize,
    /// The detector handle.
    pub detector: D,
}

impl<D> HeightEngine for PFloodingConsensus<D>
where
    D: SigmaSource + ForkState + Clone + Send + 'static,
{
    type Seed = FloodHeightSeed<D>;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        PFloodingConsensus::new(proposal, seed.t, seed.detector.clone())
    }

    fn fork_seed(seed: &Self::Seed, space: &mut ForkSpace) -> Self::Seed {
        FloodHeightSeed {
            t: seed.t,
            detector: seed.detector.fork_in(space),
        }
    }
}

/// A height-tagged envelope around the per-height engine's messages,
/// plus the catch-up certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmMsg<M> {
    /// A height-`height` engine message.
    Inner {
        /// The height the sending instance is working on.
        height: u64,
        /// The wrapped engine message.
        msg: M,
    },
    /// "Height `height` committed `value`" — broadcast once on every
    /// local commit and replayed (rate-limited) to laggards.
    Commit {
        /// The committed height.
        height: u64,
        /// The committed command.
        value: u64,
        /// The **claimed** sender label; tallies cap each label at its
        /// multiplicity so Byzantine homonyms cannot stuff the count.
        id: Identity,
    },
}

/// One committed log entry, published on every commit — the log
/// service's [`Process::Output`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The height (log index) that committed.
    pub height: u64,
    /// The committed command.
    pub value: u64,
}

impl core::fmt::Display for LogEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "h{}={}", self.height, self.value)
    }
}

/// Tuning knobs for the log service's catch-up machinery.
#[derive(Debug, Clone)]
pub struct RsmOptions {
    /// Matching `Commit` copies (under per-label caps) required to adopt
    /// an entry without running the height's engine. `1` is sound in the
    /// crash model; use [`RsmOptions::byzantine`] for `f + 1`.
    pub commit_quorum: usize,
    /// Minimum spacing between repeated answers to laggards asking about
    /// the same past height.
    pub answer_interval: Span,
    /// Total future-height engine messages buffered before overflow
    /// counts as discards.
    pub max_buffered: usize,
    /// How far above the local height a `Commit` may tally; farther
    /// claims are discarded (bounds tally memory against a flooding
    /// adversary).
    pub max_commit_ahead: u64,
}

impl Default for RsmOptions {
    fn default() -> Self {
        RsmOptions {
            commit_quorum: 1,
            answer_interval: Span::from_ticks(8),
            max_buffered: 1024,
            max_commit_ahead: 64,
        }
    }
}

impl RsmOptions {
    /// Crash-model options: a single `Commit` copy certifies.
    #[must_use]
    pub fn crash() -> Self {
        RsmOptions::default()
    }

    /// Byzantine-model options for `assign`: `f + 1` matching copies
    /// certify, `f = ⌊(n − 1)/3⌋`.
    #[must_use]
    pub fn byzantine(assign: &IdentityAssignment) -> Self {
        let f = (assign.n().saturating_sub(1)) / 3;
        RsmOptions {
            commit_quorum: f + 1,
            ..RsmOptions::default()
        }
    }
}

/// Per-height `Commit` tallies: value → claimed label → admitted copies
/// (capped at the label's multiplicity).
type CommitTally = BTreeMap<u64, BTreeMap<Identity, usize>>;

/// The multi-height replicated log process; see the module docs.
///
/// `Output = `[`LogEntry`]: every commit is published, so the engine's
/// histories carry each process's view of the log in commit order.
/// The *first* commit additionally registers as the process's decision,
/// so one-shot goals (`run_until_all_correct_decided`) remain meaningful.
pub struct ReplicatedLog<C: HeightEngine> {
    seed: C::Seed,
    client: CommandQueue,
    opts: RsmOptions,
    /// Label → multiplicity in the assignment: the admission cap for
    /// `Commit` tallies.
    label_caps: BTreeMap<Identity, usize>,
    inner: C,
    height: u64,
    log: Vec<u64>,
    state_hash: u64,
    /// Engine messages for heights we have not reached, keyed by height.
    future: BTreeMap<u64, Vec<C::Msg>>,
    buffered: usize,
    /// `Commit` tallies for heights ≥ the local height.
    tallies: BTreeMap<u64, CommitTally>,
    /// When each of the last `max_commit_ahead` heights was last
    /// answered (its own commit broadcast counts), oldest first; the
    /// back is height `height − 1`.
    recent_answers: VecDeque<Time>,
    /// When any height older than those was last answered.
    stale_answer: Time,
}

/// Mixes one `(height, value)` commit into the running log fingerprint
/// (splitmix64 finalizer).
fn mix(h: u64, height: u64, value: u64) -> u64 {
    let mut x =
        h ^ height.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

type Sink<'a, C> = ActionSink<'a, RsmMsg<<C as Process>::Msg>, LogEntry>;

impl<C: HeightEngine> ReplicatedLog<C> {
    /// Creates the log service for one process: `seed` spawns the
    /// per-height engines, `client` supplies proposals and absorbs
    /// commits, `assign` fixes the per-label admission caps.
    #[must_use]
    pub fn new(
        seed: C::Seed,
        client: CommandQueue,
        assign: &IdentityAssignment,
        opts: RsmOptions,
    ) -> Self {
        assert!(opts.commit_quorum >= 1, "commit quorum must be positive");
        let mut label_caps: BTreeMap<Identity, usize> = BTreeMap::new();
        for p in 0..assign.n() {
            *label_caps.entry(assign.id_of(p)).or_insert(0) += 1;
        }
        let inner = C::spawn(&seed, client.proposal(Time::ZERO));
        ReplicatedLog {
            seed,
            client,
            opts,
            label_caps,
            inner,
            height: 0,
            log: Vec::new(),
            state_hash: 0,
            future: BTreeMap::new(),
            buffered: 0,
            tallies: BTreeMap::new(),
            recent_answers: VecDeque::new(),
            stale_answer: Time::ZERO,
        }
    }

    /// The height currently being decided (= committed entries).
    #[must_use]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The committed log, in height order.
    #[must_use]
    pub fn log(&self) -> &[u64] {
        &self.log
    }

    /// Running fingerprint of the committed log — equal fingerprints at
    /// equal lengths imply identical logs.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// This process's client queue (arrival state, completed count).
    #[must_use]
    pub fn client(&self) -> &CommandQueue {
        &self.client
    }

    /// The live per-height engine (for inspection in tests).
    #[must_use]
    pub fn engine(&self) -> &C {
        &self.inner
    }

    /// Runs `f` against the live engine through a sub-sink, lifting its
    /// actions into height-tagged envelopes. An inner `Decide` commits
    /// and ends the relay (see "A decided height stops talking" in the
    /// module docs); an inner `Halt` is swallowed — a height finishing is
    /// not the service stopping.
    fn relay_inner(
        &mut self,
        ctx: &mut Sink<'_, C>,
        f: impl FnOnce(&mut C, &mut ActionSink<'_, C::Msg, u64>),
    ) {
        let h = self.height;
        let mut actions: Vec<Action<C::Msg, u64>> = Vec::new();
        {
            let observing = ctx.observing();
            let mut sub =
                ActionSink::new(ctx.my_id(), ctx.local_now(), ctx.raw_rng(), &mut actions)
                    .with_observing(observing);
            f(&mut self.inner, &mut sub);
        }
        let mut decided = None;
        for action in actions {
            match action {
                Action::Broadcast(m) => ctx.broadcast(RsmMsg::Inner { height: h, msg: m }),
                Action::SetTimer(d, tag) => {
                    debug_assert!(tag.0 < TAG_STRIDE, "inner timer tag exceeds stride");
                    ctx.set_timer(d, TimerTag((h + 1) * TAG_STRIDE + tag.0));
                }
                // Inner engines publish round estimates; the log service's
                // history is the committed log, so those stay internal.
                Action::Publish(_) => {}
                // The height is over: whatever the callback emitted
                // after this (a decision echo, the next round's opening
                // messages, a timer re-arm, observations of a round
                // nobody will run) is shed, by position — the log's own
                // `Commit` is the certificate laggards get.
                Action::Decide(v) => {
                    decided = Some(v);
                    break;
                }
                Action::Halt => {}
                Action::Observe(k) => ctx.observe(|| k),
                Action::Discard => ctx.note_discard(),
            }
        }
        if let Some(v) = decided {
            // Guard against a stale decide surfacing after a catch-up
            // commit already advanced the height mid-callback.
            if self.height == h {
                self.commit(v, ctx);
            }
        }
    }

    /// Appends `value` at the current height, announces the commit, and
    /// boots the next height's engine (draining any buffered traffic for
    /// it).
    fn commit(&mut self, value: u64, ctx: &mut Sink<'_, C>) {
        let height = self.height;
        self.log.push(value);
        self.state_hash = mix(self.state_hash, height, value);
        self.client.on_commit(value);
        ctx.publish(LogEntry { height, value });
        if height == 0 {
            // First commit doubles as the one-shot "decision" so
            // decision-based goals and invariants keep working.
            ctx.decide(value);
        }
        ctx.observe(|| ObsKind::PhaseEnter {
            round: height + 1,
            phase: "HEIGHT",
        });
        ctx.broadcast(RsmMsg::Commit {
            height,
            value,
            id: ctx.my_id(),
        });

        self.height += 1;
        self.tallies = self.tallies.split_off(&self.height);
        // The broadcast above is the first answer about `height`: the
        // tail of its copies still in flight asks nothing new.
        self.recent_answers.push_back(ctx.local_now());
        if self.recent_answers.len() as u64 > self.opts.max_commit_ahead {
            self.recent_answers.pop_front();
        }

        let proposal = self.client.proposal(ctx.local_now());
        self.inner = C::spawn(&self.seed, proposal);
        self.relay_inner(ctx, |c, sub| c.on_start(sub));

        let target = self.height;
        if let Some(msgs) = self.future.remove(&target) {
            self.buffered -= msgs.len();
            for m in msgs {
                // A commit mid-drain can advance the height again; the
                // remaining messages then belong to a decided height.
                if self.height == target {
                    self.relay_inner(ctx, |c, sub| c.on_message(m, sub));
                }
            }
        }
    }

    /// Commits as long as the current height holds a certified tally.
    fn drain_certified(&mut self, ctx: &mut Sink<'_, C>) {
        loop {
            let Some(per_value) = self.tallies.get(&self.height) else {
                return;
            };
            let quorum = self.opts.commit_quorum;
            let Some((&value, _)) = per_value
                .iter()
                .find(|(_, labels)| labels.values().sum::<usize>() >= quorum)
            else {
                return;
            };
            self.commit(value, ctx);
        }
    }

    /// Tallies one `Commit` claim under the per-label caps.
    fn tally_commit(&mut self, height: u64, value: u64, id: Identity, ctx: &mut Sink<'_, C>) {
        if height < self.height {
            return; // old news
        }
        if height >= self.height + self.opts.max_commit_ahead {
            ctx.note_discard();
            return;
        }
        let cap = self.label_caps.get(&id).copied().unwrap_or(0);
        if cap == 0 {
            // A label nobody carries: necessarily forged.
            ctx.note_discard();
            return;
        }
        let admitted = self
            .tallies
            .entry(height)
            .or_default()
            .entry(value)
            .or_default()
            .entry(id)
            .or_insert(0);
        if *admitted < cap {
            *admitted += 1;
        } else {
            ctx.note_discard();
        }
    }

    /// Answers a laggard's height-`height` traffic with the committed
    /// entry, at most once per [`RsmOptions::answer_interval`] — counted
    /// from the commit broadcast for the last
    /// [`RsmOptions::max_commit_ahead`] heights, and through one slot
    /// shared by everything older.
    fn answer_past(&mut self, height: u64, ctx: &mut Sink<'_, C>) {
        let now = ctx.local_now();
        let oldest_recent = self.height - self.recent_answers.len() as u64;
        let last = match height.checked_sub(oldest_recent) {
            Some(i) => &mut self.recent_answers[i as usize],
            None => &mut self.stale_answer,
        };
        if now < *last + self.opts.answer_interval {
            return;
        }
        *last = now;
        let Ok(idx) = usize::try_from(height) else {
            return;
        };
        if let Some(&value) = self.log.get(idx) {
            ctx.broadcast(RsmMsg::Commit {
                height,
                value,
                id: ctx.my_id(),
            });
        }
    }

    /// Buffers a future-height engine message (bounded).
    fn buffer_future(&mut self, height: u64, msg: C::Msg, ctx: &mut Sink<'_, C>) {
        if self.buffered >= self.opts.max_buffered {
            ctx.note_discard();
            return;
        }
        self.future.entry(height).or_default().push(msg);
        self.buffered += 1;
    }
}

impl<C: HeightEngine> Process for ReplicatedLog<C> {
    type Msg = RsmMsg<C::Msg>;
    type Output = LogEntry;

    /// A corrupt log-service node forges engine traffic via the engine's
    /// own mutation semantics and forges catch-up certificates by
    /// shifting the committed value — which is exactly what the
    /// per-label capped `f + 1` tally is there to absorb.
    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg> {
        match msg {
            RsmMsg::Inner { height, msg } => {
                C::mutate_payload(msg, entropy).map(|m| RsmMsg::Inner {
                    height: *height,
                    msg: m,
                })
            }
            RsmMsg::Commit { height, value, id } => Some(RsmMsg::Commit {
                height: *height,
                value: value.wrapping_add(entropy | 1),
                id: *id,
            }),
        }
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        self.relay_inner(ctx, |c, sub| c.on_start(sub));
        self.drain_certified(ctx);
    }

    fn on_message(&mut self, msg: Self::Msg, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        match msg {
            RsmMsg::Inner { height, msg } => {
                if height == self.height {
                    self.relay_inner(ctx, |c, sub| c.on_message(msg, sub));
                } else if height > self.height {
                    self.buffer_future(height, msg, ctx);
                } else {
                    self.answer_past(height, ctx);
                }
            }
            RsmMsg::Commit { height, value, id } => {
                self.tally_commit(height, value, id, ctx);
            }
        }
        self.drain_certified(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        if timer.0 < TAG_STRIDE {
            return; // reserved, currently unused
        }
        let height = timer.0 / TAG_STRIDE - 1;
        if height == self.height {
            let tag = TimerTag(timer.0 % TAG_STRIDE);
            self.relay_inner(ctx, |c, sub| c.on_timer(tag, sub));
        }
        // Timers for decided heights are stale echoes of replaced
        // engines: drop them.
        self.drain_certified(ctx);
    }
}

impl<C> ForkProcess for ReplicatedLog<C>
where
    C: HeightEngine + ForkProcess,
    C::Msg: Clone,
{
    fn fork_in(&self, space: &mut ForkSpace) -> Self {
        ReplicatedLog {
            seed: C::fork_seed(&self.seed, space),
            client: self.client.clone(),
            opts: self.opts.clone(),
            label_caps: self.label_caps.clone(),
            inner: self.inner.fork_in(space),
            height: self.height,
            log: self.log.clone(),
            state_hash: self.state_hash,
            future: self.future.clone(),
            buffered: self.buffered,
            tallies: self.tallies.clone(),
            recent_answers: self.recent_answers.clone(),
            stale_answer: self.stale_answer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;
    use homonym_sim::workload::WorkloadConfig;

    fn byz_rsm_node(
        assign: &IdentityAssignment,
        client: CommandQueue,
    ) -> ReplicatedLog<ByzQuorumConsensus> {
        ReplicatedLog::new(
            ByzHeightSeed {
                assign: assign.clone(),
                tick: 2,
            },
            client,
            assign,
            RsmOptions::byzantine(assign),
        )
    }

    fn run_rsm(n: usize, l: usize, seed: u64, horizon: u64) -> Vec<Vec<u64>> {
        let assign = IdentityAssignment::round_robin(n, l);
        let queues = WorkloadConfig::default().queues(n);
        let cfg = SimConfig::new(
            assign.clone(),
            FailureSchedule::none(n),
            NetworkModel::reliable(Span::TICK),
        )
        .with_seed(seed);
        let mut engine = Engine::new(cfg, |p, _| byz_rsm_node(&assign, queues[p].clone()));
        engine.run_until(Time::from_ticks(horizon));
        (0..n).map(|p| engine.process(p).log().to_vec()).collect()
    }

    #[test]
    fn chains_many_heights_with_prefix_agreement() {
        let logs = run_rsm(4, 2, 7, 4_000);
        let longest = logs.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            longest >= 20,
            "expected ≥20 heights in 4000 ticks, got {longest}"
        );
        for pair in logs.windows(2) {
            let k = pair[0].len().min(pair[1].len());
            assert_eq!(pair[0][..k], pair[1][..k], "log prefixes diverged");
        }
    }

    #[test]
    fn state_hash_tracks_log() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let cfg = SimConfig::new(
            assign.clone(),
            FailureSchedule::none(4),
            NetworkModel::reliable(Span::TICK),
        );
        let mut engine = Engine::new(cfg, |p, _| byz_rsm_node(&assign, queues[p].clone()));
        engine.run_until(Time::from_ticks(2_000));
        let reference = engine.process(0);
        let mut h = 0u64;
        for (height, &value) in reference.log().iter().enumerate() {
            h = mix(h, height as u64, value);
        }
        assert_eq!(h, reference.state_hash());
        for p in 1..4 {
            let other = engine.process(p);
            if other.log().len() == reference.log().len() {
                assert_eq!(other.state_hash(), reference.state_hash());
            }
        }
    }

    #[test]
    fn crashed_minority_does_not_stall_the_log() {
        let n = 4;
        let assign = IdentityAssignment::round_robin(n, 2);
        let queues = WorkloadConfig::default().queues(n);
        let cfg = SimConfig::new(
            assign.clone(),
            FailureSchedule::none(n).with_crash(3, Time::from_ticks(200)),
            NetworkModel::reliable(Span::TICK),
        )
        .with_seed(3);
        let mut engine = Engine::new(cfg, |p, _| byz_rsm_node(&assign, queues[p].clone()));
        engine.run_until(Time::from_ticks(4_000));
        for p in 0..3 {
            assert!(
                engine.process(p).log().len() >= 10,
                "correct process {p} stalled after the crash"
            );
        }
    }

    #[test]
    fn commit_certificates_respect_label_caps() {
        // One label carried twice: two copies from that label tally at
        // most 2, so a quorum of 3 cannot be met by one equivocating
        // homonym pair alone.
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        node.opts.commit_quorum = 3;
        let label = assign.id_of(0);
        let mut actions = Vec::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let mut sink = ActionSink::new(label, Time::ZERO, &mut rng, &mut actions);
        for _ in 0..5 {
            node.tally_commit(0, 42, label, &mut sink);
        }
        assert_eq!(node.log().len(), 0);
        node.drain_certified(&mut sink);
        assert_eq!(node.log().len(), 0, "capped tally must not certify");
        // A second label closes the quorum.
        let other = assign.id_of(1);
        node.tally_commit(0, 42, other, &mut sink);
        node.drain_certified(&mut sink);
        assert_eq!(node.log(), &[42]);
    }

    type ByzLog = ReplicatedLog<ByzQuorumConsensus>;

    /// `Commit` broadcasts among what `step` emits, run at tick `at`.
    fn commits_sent(
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut Sink<'_, ByzQuorumConsensus>),
    ) -> usize {
        let mut actions = Vec::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let label = Identity::new(0);
        let mut sink = ActionSink::new(label, Time::from_ticks(at), &mut rng, &mut actions);
        step(node, &mut sink);
        let is_commit = |a: &&Action<_, _>| matches!(a, Action::Broadcast(RsmMsg::Commit { .. }));
        actions.iter().filter(is_commit).count()
    }

    /// The answer throttle stays `max_commit_ahead` entries long however
    /// many heights commit: a commit counts as the first answer about
    /// its height, and all older heights share one slot.
    #[test]
    fn answer_throttle_is_bounded_and_starts_at_the_commit() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        let cap = node.opts.max_commit_ahead;
        let interval = node.opts.answer_interval.ticks();
        for h in 0..3 * cap {
            assert_eq!(commits_sent(&mut node, 100, |n, s| n.commit(h, s)), 1);
        }
        assert_eq!(node.recent_answers.len() as u64, cap);

        let answers = |node: &mut ByzLog, at, h| commits_sent(node, at, |n, s| n.answer_past(h, s));
        let (recent, late) = (3 * cap - 1, 100 + interval);
        assert_eq!(
            answers(&mut node, late - 1, recent),
            0,
            "the commit answered"
        );
        assert_eq!(answers(&mut node, late, recent), 1);
        assert_eq!(answers(&mut node, late, recent), 0);
        // Heights below the window share one slot.
        assert_eq!(answers(&mut node, late, 3), 1);
        assert_eq!(answers(&mut node, late, 5), 0);
        assert_eq!(answers(&mut node, late + interval, 5), 1);
        assert_eq!(node.recent_answers.len() as u64, cap);
    }

    #[test]
    fn unknown_labels_are_rejected() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        node.opts.commit_quorum = 1;
        let forged = Identity::new(9_999);
        let mut actions = Vec::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let mut sink = ActionSink::new(forged, Time::ZERO, &mut rng, &mut actions);
        node.tally_commit(0, 13, forged, &mut sink);
        node.drain_certified(&mut sink);
        assert_eq!(node.log().len(), 0, "forged label must not certify");
    }
}
