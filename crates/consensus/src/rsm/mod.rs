//! The multi-height replicated log: [`ReplicatedLog`] chains one consensus
//! instance per height over a detector that keeps running, and routes each
//! callback between three parts (`docs/log_service.md`, "Three parts").

mod catch_up;
mod heights;
mod proposals;

use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::query::{Consumes, HOmegaSource, HSigmaSource};
use homonym_core::time::{Span, Time};
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::workload::{CommandQueue, NOOP};

use crate::byz_quorum::ByzQuorumConsensus;
use crate::fig8::{HOmegaPolicy, LeaderPolicy, MajorityConsensus};
use crate::fig9::QuorumConsensus;
use catch_up::{CatchUp, Certified};
use heights::Heights;
use proposals::Proposals;

/// The log's own timer: fires at the arrival instant of the client's
/// head command (`docs/log_service.md`, "Who gets proposed"). The log's
/// tags lie below the engines' (see `heights`).
const ARRIVAL_TAG: TimerTag = TimerTag(0);

/// The log's other timer: its one liveness clock, which also ends an idle
/// wait (`docs/log_service.md`, "Pull what you missed").
const STATUS_TAG: TimerTag = TimerTag(1);

/// A consensus engine that [`ReplicatedLog`] can instantiate once per
/// height.
///
/// The `Seed` captures everything needed to spawn a fresh instance
/// *except* the proposal: identity assignment, thresholds, tick period,
/// and the detector — an oracle handle, or the last output a stacked
/// detector handed over. [`ReplicatedLog`] hands every such output to
/// the seed as well as to the live engine, so an engine spawned at the
/// next height starts from the current reading: detector state survives
/// instance turnover.
///
/// A log of the engine is [`Persist`] — its snapshots can be written to
/// disk — when the engine, its seed and its message are; the tolerant
/// default's [`ByzHeightSeed`] is.
pub trait HeightEngine: Process<Output = u64> + Sized {
    /// Height-independent construction state.
    type Seed: Clone + Send + 'static;

    /// Builds the engine for one height, proposing `proposal`.
    fn spawn(seed: &Self::Seed, proposal: u64) -> Self;

    /// Turns the engine of a finished height into the next height's,
    /// proposing `proposal`: afterwards it behaves exactly as
    /// `Self::spawn(seed, proposal)` would (the default), but for the
    /// detector readings it consumed itself, which it may keep as a seed
    /// keeps them (the tolerant engine keeps its `◇HP` reading). An
    /// engine whose construction is worth saving overrides it to reset
    /// its per-height state in place; the log calls it at every height
    /// after height 0.
    fn respawn(&mut self, seed: &Self::Seed, proposal: u64) {
        *self = Self::spawn(seed, proposal);
    }

    /// The height is over, decided or adopted: cancels the timers the
    /// engine still has pending. The default cancels none, and the log
    /// drops their firings.
    fn close(&mut self, _ctx: &mut ActionSink<'_, Self::Msg, u64>) {}
}

/// Seed for the Byzantine-tolerant default engine
/// ([`ByzQuorumConsensus`]).
#[derive(Debug, Clone)]
pub struct ByzHeightSeed {
    /// The system's identity assignment (`n > 3f` required).
    pub assign: IdentityAssignment,
}

impl HeightEngine for ByzQuorumConsensus {
    type Seed = ByzHeightSeed;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        ByzQuorumConsensus::new(proposal, &seed.assign)
    }

    fn respawn(&mut self, _seed: &Self::Seed, proposal: u64) {
        self.restart(proposal);
    }

    fn close(&mut self, ctx: &mut ActionSink<'_, Self::Msg, u64>) {
        ByzQuorumConsensus::close(self, ctx);
    }
}

/// The tolerant seed reads no detector: the engine keeps its own `◇HP`
/// reading across [`ByzQuorumConsensus::restart`], and the log spawns
/// from the seed only at height 0.
impl<O> Consumes<O> for ByzHeightSeed {}

homonym_core::persist_fields!(ByzHeightSeed { assign });

/// Seed for the Figure 8 majority engine over any `HΩ` source `D`
/// (typically the `HOmegaOutput` a stacked detector half last handed
/// over).
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
    D: HOmegaSource + Clone + Send + 'static,
    HOmegaPolicy<D>: LeaderPolicy,
{
    type Seed = Fig8HeightSeed<D>;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        MajorityConsensus::new(proposal, seed.n, seed.t, HOmegaPolicy(seed.source.clone()))
            .with_tick(seed.tick)
    }
}

impl<O, D: Consumes<O>> Consumes<O> for Fig8HeightSeed<D> {
    fn consume(&mut self, output: &O) {
        self.source.consume(output);
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
    D1: HOmegaSource + Clone + Send + 'static,
    D2: HSigmaSource + Clone + Send + 'static,
{
    type Seed = Fig9HeightSeed<D1, D2>;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        QuorumConsensus::new(proposal, seed.omega.clone(), seed.sigma.clone()).with_tick(seed.tick)
    }
}

impl<O, D1: Consumes<O>, D2: Consumes<O>> Consumes<O> for Fig9HeightSeed<D1, D2> {
    fn consume(&mut self, output: &O) {
        self.omega.consume(output);
        self.sigma.consume(output);
    }
}

/// A height-tagged envelope around the per-height engine's messages,
/// plus the catch-up certificate. Plain data whenever `M` is: a state
/// transfer travels as fixed-size parts, so no value of the type holds
/// heap memory of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsmMsg<M> {
    /// A height-`height` engine message.
    Inner {
        /// The height the sending instance is working on.
        height: u64,
        /// The wrapped engine message.
        msg: M,
    },
    /// "Height `height` committed `value`" — broadcast on a local commit
    /// that carries news, repeated as a status by a replica that has
    /// stopped moving, and replayed (rate-limited) to laggards. With a
    /// `state` it is one part of a state transfer: one word of the
    /// sender's log through `height`, laid out as [`StatePart`] says.
    Commit {
        /// The committed height.
        height: u64,
        /// The committed command; in a state transfer, word
        /// `state.index` of the state.
        value: u64,
        /// The **claimed** sender label; tallies cap each label at its
        /// multiplicity. The cap bounds the label, not the sender: one
        /// corrupt carrier can fill every slot of its label.
        id: Identity,
        /// The sender's own client's head command if it is due, else
        /// [`NOOP`] — what it wants some coordinator to propose.
        next: u64,
        /// `None` on a plain commit. On the answer to a replica below the
        /// sender's ring, which part of the sender's state this commit
        /// is. (A state rides on `Commit` rather than in a variant of its
        /// own because code outside this crate matches `RsmMsg`
        /// exhaustively.)
        state: Option<StatePart>,
    },
}

// No message of the log holds heap memory, and so neither does a stack
// of it over a detector whose messages hold none: the engine copies
// every broadcast inline, and nothing is dropped or unwound around one.
const _: () = assert!(!std::mem::needs_drop::<
    RsmMsg<<ByzQuorumConsensus as Process>::Msg>,
>());

/// Which part of a state transfer a `Commit` is: word `index` of the
/// `count` words of the sender's state through the commit's height `h`,
/// carried in the commit's `value`. The words, in order:
///
/// 1. the value committed at `h`;
/// 2. the fingerprint of heights `0..=h` ([`ReplicatedLog::state_hash`]
///    at height `h + 1`);
/// 3. the per-proposer table — per proposer index, the highest sequence
///    number committed in `0..=h` — two `u32`s to a word, the lower
///    index in the low half;
/// 4. the tail: the values committed at the heights right before `h`,
///    oldest first — the rest of the sender's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatePart {
    /// Which word of the state this part carries.
    pub index: u16,
    /// How many words, and so parts, the state has.
    pub count: u16,
}

homonym_core::persist_fields!(StatePart { index, count });

impl<M: Persist> Persist for RsmMsg<M> {
    /// A plain `Commit` is tag 1 and a part of a state transfer tag 2, so
    /// a plain commit costs no byte for the part it is not.
    fn save(&self, s: &mut Saver) {
        match self {
            RsmMsg::Inner { height, msg } => {
                s.u8(0);
                height.save(s);
                msg.save(s);
            }
            RsmMsg::Commit {
                height,
                value,
                id,
                next,
                state,
            } => {
                s.u8(if state.is_some() { 2 } else { 1 });
                height.save(s);
                value.save(s);
                id.save(s);
                next.save(s);
                if let Some(part) = state {
                    part.save(s);
                }
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(match l.u8()? {
            0 => RsmMsg::Inner {
                height: Persist::load(l)?,
                msg: Persist::load(l)?,
            },
            tag @ (1 | 2) => RsmMsg::Commit {
                height: Persist::load(l)?,
                value: Persist::load(l)?,
                id: Persist::load(l)?,
                next: Persist::load(l)?,
                state: match tag {
                    2 => Some(StatePart::load(l)?),
                    _ => None,
                },
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "RsmMsg",
                    tag,
                })
            }
        })
    }
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

homonym_core::persist_fields!(LogEntry { height, value });

/// Minimum spacing between repeated answers to laggards asking about the
/// same past height, and the status timer's base period.
pub const ANSWER_INTERVAL: Span = Span::from_ticks(8);

/// Total future-height engine messages buffered before overflow counts
/// as discards.
pub const MAX_BUFFERED: usize = 1024;

/// How far above the local height a `Commit` may tally; farther claims
/// are discarded (bounds tally memory against a flooding adversary).
/// Also how many committed values a replica keeps: its ring, answered
/// entry by entry, and the tail of a state transfer.
pub const MAX_COMMIT_AHEAD: u64 = 64;

/// The one option of the log service that differs between fault models.
#[derive(Debug, Clone)]
pub struct RsmOptions {
    /// Matching `Commit` copies (under per-label caps) required to adopt
    /// an entry without running the height's engine. `1` is sound in the
    /// crash model; use [`RsmOptions::byzantine`] for `f + 1`.
    pub commit_quorum: usize,
}

impl RsmOptions {
    /// Crash-model options: a single `Commit` copy certifies.
    #[must_use]
    pub fn crash() -> Self {
        RsmOptions { commit_quorum: 1 }
    }

    /// Byzantine-model options for `assign`: `f + 1` matching copies
    /// certify, `f = ⌊(n − 1)/3⌋`.
    #[must_use]
    pub fn byzantine(assign: &IdentityAssignment) -> Self {
        let f = (assign.n().saturating_sub(1)) / 3;
        RsmOptions {
            commit_quorum: f + 1,
        }
    }
}

homonym_core::persist_fields!(RsmOptions { commit_quorum });

/// The multi-height replicated log process (`docs/log_service.md`).
///
/// `Output = `[`LogEntry`]: every commit is published, so the engine's
/// histories are the record of the log, which the process keeps only the
/// last [`MAX_COMMIT_AHEAD`] values and a fingerprint of. The *first*
/// commit is also the process's decision, for one-shot goals.
#[derive(Clone)]
pub struct ReplicatedLog<C: HeightEngine> {
    heights: Heights<C>,
    catch_up: CatchUp,
    proposals: Proposals,
}

type Sink<'a, M> = ActionSink<'a, RsmMsg<M>, LogEntry>;

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
        ReplicatedLog {
            catch_up: CatchUp::new(opts, assign),
            heights: Heights::new(seed, client.proposal(Time::ZERO)),
            proposals: Proposals::new(client, assign.n()),
        }
    }

    /// The height currently being decided (= committed entries). The
    /// entries themselves are the process's published [`LogEntry`]
    /// history.
    #[must_use]
    pub fn height(&self) -> u64 {
        self.heights.height()
    }

    /// Running fingerprint of the committed log — equal fingerprints at
    /// equal lengths imply identical logs.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        self.catch_up.state_hash()
    }

    /// What the replica keeps that a run could grow — ring entries,
    /// buffered future-height messages, tallied heights and state
    /// claims — a diagnostic for the boundedness tests: at most
    /// `2 × MAX_COMMIT_AHEAD + MAX_BUFFERED + n`, however long the log.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.catch_up.retained() + self.heights.buffered()
    }

    /// When the replica's idle wait before the current height ends, while
    /// it waits with the height's engine not yet booted
    /// (`docs/log_service.md`, "An idle replica waits").
    #[must_use]
    pub fn idle_until(&self) -> Option<Time> {
        self.catch_up.clock.idle_until()
    }

    /// This process's client queue (arrival state, completed count).
    #[must_use]
    pub fn client(&self) -> &CommandQueue {
        self.proposals.client()
    }

    /// The live per-height engine (for inspection in tests).
    #[must_use]
    pub fn engine(&self) -> &C {
        self.heights.engine()
    }

    /// Runs `f` against the live engine; a decision commits.
    fn relay(
        &mut self,
        ctx: &mut Sink<'_, C::Msg>,
        f: impl FnOnce(&mut C, &mut ActionSink<'_, C::Msg, u64>),
    ) {
        if let Some(value) = self.heights.relay(ctx, f) {
            self.commit(value, false, ctx);
        }
    }

    /// Appends `value` at the current height and enters the next one,
    /// announcing the commit if it carries news or was `adopted`.
    fn commit(&mut self, value: u64, adopted: bool, ctx: &mut Sink<'_, C::Msg>) {
        let height = self.heights.height();
        let drew = self.proposals.commit(value);
        self.catch_up.commit(height, value, ctx);
        self.enter(height + 1, adopted, drew, ctx);
    }

    /// Moves to height `to`, whose predecessor is the ring's last entry:
    /// closes the height's engine, drops what was kept for the heights
    /// passed, says so if the entry carries news or was `adopted`, arms
    /// the arrival timer if the client `drew` a new head, and boots the
    /// next height's engine — or, with nothing to propose, no entry
    /// adopted and no traffic for `to`, waits first
    /// (`docs/log_service.md`, "An idle replica waits").
    fn enter(&mut self, to: u64, adopted: bool, drew: bool, ctx: &mut Sink<'_, C::Msg>) {
        // The height is over: its engine's timers go with it.
        self.relay(ctx, |c, sub| c.close(sub));
        let traffic = self.heights.advance(to);
        self.catch_up.advance(to);
        let now = ctx.local_now();
        if adopted || self.proposals.has_news(now) {
            self.catch_up.repeat_last(to, &mut self.proposals, ctx);
        }
        if drew {
            // If the new head is due already it just rode out as `next`.
            self.proposals.arm_arrival(ctx);
        }
        if adopted || traffic || self.proposals.proposal(now) != NOOP {
            self.boot(ctx);
        } else {
            self.catch_up.clock.wait(now + ANSWER_INTERVAL, ctx);
        }
    }

    /// Boots the current height's engine: the clock counts it as
    /// progress.
    fn boot(&mut self, ctx: &mut Sink<'_, C::Msg>) {
        self.catch_up.clock.boot(ctx);
        self.start_engine(ctx);
    }

    /// Boots the current height's engine on what there is to propose now,
    /// replaying the traffic buffered for the height.
    fn start_engine(&mut self, ctx: &mut Sink<'_, C::Msg>) {
        let proposal = self.proposals.proposal(ctx.local_now());
        if let Some(value) = self.heights.boot(proposal, ctx) {
            self.commit(value, false, ctx);
        }
    }

    /// Ends an idle wait early once there is something to propose: the
    /// own client's command arrived, or a `Commit` announced one.
    fn boot_if_wanted(&mut self, ctx: &mut Sink<'_, C::Msg>) {
        let idle = self.catch_up.clock.idle_until().is_some();
        if idle && self.proposals.proposal(ctx.local_now()) != NOOP {
            self.boot(ctx);
        }
    }

    /// Commits as long as the current height holds a certified tally,
    /// and adopts a certified state transfer: the ring, fingerprint and
    /// per-proposer table of the state, then the height after it.
    fn drain_certified(&mut self, ctx: &mut Sink<'_, C::Msg>) {
        while let Some(certified) = self.catch_up.certified(self.heights.height()) {
            match certified {
                Certified::Entry(value) => self.commit(value, true, ctx),
                Certified::State { height, words } => {
                    let at = self.heights.height();
                    let table = self.catch_up.adopt(height, &words, at, ctx);
                    let drew = self.proposals.adopt(table);
                    self.enter(height + 1, true, drew, ctx);
                }
            }
        }
    }
}

impl<C: HeightEngine> Process for ReplicatedLog<C> {
    type Msg = RsmMsg<C::Msg>;
    type Output = LogEntry;

    /// A corrupt log-service node forges engine traffic via the engine's
    /// own mutation semantics and forges catch-up certificates by shifting
    /// the committed value — or, on a part of a state transfer, the word
    /// it carries — which is exactly what the per-label capped `f + 1`
    /// tally is there to absorb.
    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg> {
        let mut forged = msg.clone();
        match &mut forged {
            RsmMsg::Inner { msg, .. } => *msg = C::mutate_payload(msg, entropy)?,
            RsmMsg::Commit { value, .. } => *value = value.wrapping_add(entropy | 1),
        }
        Some(forged)
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        self.proposals.arm_arrival(ctx);
        self.catch_up.clock.start(ctx);
        self.relay(ctx, |c, sub| c.on_start(sub));
        self.drain_certified(ctx);
    }

    /// Certification is drained only after what can certify: a tallied
    /// `Commit`, or a height moved by the callback (see "When
    /// certification is drained" in `docs/log_service.md`).
    fn on_message(&mut self, msg: Self::Msg, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        let at = self.heights.height();
        let mut tallied = false;
        match msg {
            RsmMsg::Inner { height, msg } if height == at => {
                // A peer runs the height: an idle wait is over.
                if self.catch_up.clock.idle_until().is_some() {
                    self.boot(ctx);
                }
                self.relay(ctx, |c, sub| c.on_message(msg, sub));
            }
            RsmMsg::Inner { height, msg } if height > at => self.heights.buffer(height, msg, ctx),
            RsmMsg::Inner { height, .. } => {
                self.catch_up
                    .answer_past(height, at, &mut self.proposals, ctx);
            }
            RsmMsg::Commit {
                height,
                value,
                id,
                next,
                state,
            } => {
                self.proposals.note_wanted(next);
                // A sender whose last commit is two or more heights back
                // is missing the entry after it: to this replica that is
                // what a past-height engine message says, and it gets the
                // same throttled answer. (A forged height near `u64::MAX`
                // has no successor and falls to the tally's range check.)
                match height.checked_add(1) {
                    Some(missing) if missing < at => {
                        self.catch_up
                            .answer_past(missing, at, &mut self.proposals, ctx);
                    }
                    _ => tallied = self.catch_up.tally(height, value, id, state, at, ctx),
                }
            }
        }
        if tallied || self.heights.height() != at {
            self.drain_certified(ctx);
        }
        self.boot_if_wanted(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        match timer {
            ARRIVAL_TAG => {
                // The head command just became due: unless a `Commit` of
                // this very tick already carried it, repeat the last
                // commit to announce it (the first commit will carry it
                // if there is none yet).
                if self.proposals.has_news(ctx.local_now()) {
                    let at = self.heights.height();
                    self.catch_up.repeat_last(at, &mut self.proposals, ctx);
                }
                self.boot_if_wanted(ctx);
            }
            STATUS_TAG => {
                let at = self.heights.height();
                if self.catch_up.status_tick(at, &mut self.proposals, ctx) {
                    self.start_engine(ctx);
                }
            }
            _ => {
                if let Some(value) = self.heights.on_timer(timer, ctx) {
                    self.commit(value, false, ctx);
                }
                self.drain_certified(ctx);
            }
        }
    }
}

/// The log hands what the stack gives it to the live engine and to the
/// seed, so the next height's engine starts from the same reading.
impl<O, C> Consumes<O> for ReplicatedLog<C>
where
    C: HeightEngine + Consumes<O>,
    C::Seed: Consumes<O>,
{
    fn consume(&mut self, output: &O) {
        self.heights.consume(output);
    }
}

// A replica is its three parts in turn. `load` rejects what `new` would
// assert on, and what the replica's arithmetic relies on: one table slot
// and one cap per process, and catch-up state a replica at its height can
// hold (see `CatchUp::holds`).
homonym_core::persist_fields!(impl[C: HeightEngine + Persist] ReplicatedLog<C>
    where [C::Seed: Persist, C::Msg: Persist] { heights, catch_up, proposals }
    if |log| log.proposals.n().is_some_and(|n| log.catch_up.holds(log.heights.height(), n)));

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;
    use homonym_sim::process::Action;
    use homonym_sim::workload::WorkloadConfig;

    pub(super) fn byz_rsm_node(
        assign: &IdentityAssignment,
        client: CommandQueue,
    ) -> ReplicatedLog<ByzQuorumConsensus> {
        ReplicatedLog::new(
            ByzHeightSeed {
                assign: assign.clone(),
            },
            client,
            assign,
            RsmOptions::byzantine(assign),
        )
    }

    pub(super) fn run_rsm(n: usize, l: usize, seed: u64, horizon: u64) -> Vec<Vec<u64>> {
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
        published_logs(&engine)
    }

    /// Each replica's log as its published history records it.
    pub(super) fn published_logs<C: HeightEngine>(
        engine: &Engine<ReplicatedLog<C>>,
    ) -> Vec<Vec<u64>> {
        let values = |history: &History<LogEntry>| history.iter().map(|(_, e)| e.value).collect();
        engine.histories().iter().map(values).collect()
    }

    /// The whole log of a replica young enough for its ring to hold it.
    pub(super) fn short_log(node: &ByzLog) -> Vec<u64> {
        let log = node.catch_up.ring_values();
        assert_eq!(log.len() as u64, node.height(), "the ring holds it all");
        log
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

    /// Figure 9's quorum engine chains heights too, seeded by
    /// [`Fig9HeightSeed`] with oracle `HΩ`/`HΣ` sources that are truthful
    /// from the start, under crash-model commits.
    #[test]
    fn fig9_engines_chain_many_heights_with_prefix_agreement() {
        use homonym_detectors::oracle::{HOmegaOracle, HSigmaOracle, OracleWorld, PreStability};
        use homonym_sim::workload::{is_noop, proposer_of};

        let (n, sched) = (4, FailureSchedule::none(4));
        let assign = IdentityAssignment::round_robin(n, 2);
        let world = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let queues = WorkloadConfig::default().queues(n);
        let cfg = SimConfig::new(assign.clone(), sched, NetworkModel::reliable(Span::TICK));
        let mut engine = Engine::new(cfg, |p, _| {
            let seed = Fig9HeightSeed {
                omega: world.h_omega_for(p, PreStability::Truthful),
                sigma: world.h_sigma_for(p, PreStability::Truthful),
                tick: Span::from_ticks(2),
            };
            ReplicatedLog::<QuorumConsensus<HOmegaOracle, HSigmaOracle>>::new(
                seed,
                queues[p].clone(),
                &assign,
                RsmOptions::crash(),
            )
        });
        engine.run_until(Time::from_ticks(4_000));
        let logs = published_logs(&engine);
        for (p, log) in logs.iter().enumerate() {
            assert!(
                log.len() >= 20,
                "replica {p} committed {} heights",
                log.len()
            );
        }
        for pair in logs.windows(2) {
            let k = pair[0].len().min(pair[1].len());
            assert_eq!(pair[0][..k], pair[1][..k], "log prefixes diverged");
        }
        // Every command is some client's, in its client's issue order,
        // committed once.
        let mut clients = queues;
        let longest = logs.iter().max_by_key(|log| log.len()).expect("n > 0");
        for &cmd in longest.iter().filter(|&&cmd| !is_noop(cmd)) {
            let client = &mut clients[proposer_of(cmd)];
            assert_eq!(
                client.proposal(Time::MAX),
                cmd,
                "not the client's next command"
            );
            client.on_commit(cmd);
        }
        let served: usize = clients.iter().map(CommandQueue::completed).sum();
        assert!(served >= 20, "only {served} client commands committed");
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
                engine.process(p).height() >= 10,
                "correct process {p} stalled after the crash"
            );
        }
    }

    pub(super) type ByzLog = ReplicatedLog<ByzQuorumConsensus>;

    pub(super) type ByzAction = Action<RsmMsg<<ByzQuorumConsensus as Process>::Msg>, LogEntry>;

    pub(super) type ByzSink<'a> = Sink<'a, <ByzQuorumConsensus as Process>::Msg>;

    /// Whether `tag` is one of the log's own timers.
    pub(super) fn is_log_tag(tag: TimerTag) -> bool {
        matches!(tag, ARRIVAL_TAG | STATUS_TAG)
    }

    /// What `step` emits, run at tick `at`.
    pub(super) fn actions_of(
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut ByzSink<'_>),
    ) -> Vec<ByzAction> {
        actions_as(Identity::new(0), node, at, step)
    }

    /// What `step` emits, run at tick `at` by a carrier of `label`.
    pub(super) fn actions_as(
        label: Identity,
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut ByzSink<'_>),
    ) -> Vec<ByzAction> {
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(label, Time::from_ticks(at), &mut actions);
        step(node, &mut sink);
        actions
    }

    /// The `(height, value, next)` of every `Commit` broadcast in
    /// `actions`, parts of state transfers included.
    pub(super) fn commits_in(actions: &[ByzAction]) -> Vec<(u64, u64, u64)> {
        let commit = |a: &ByzAction| match *a {
            Action::Broadcast(RsmMsg::Commit {
                height,
                value,
                next,
                ..
            }) => Some((height, value, next)),
            _ => None,
        };
        actions.iter().filter_map(commit).collect()
    }

    /// Every part of a state transfer broadcast in `actions`.
    pub(super) fn parts_in(actions: &[ByzAction]) -> Vec<<ByzLog as Process>::Msg> {
        let part = |a: &ByzAction| match *a {
            Action::Broadcast(msg @ RsmMsg::Commit { state: Some(_), .. }) => Some(msg),
            _ => None,
        };
        actions.iter().filter_map(part).collect()
    }

    /// The entries published in `actions`.
    pub(super) fn published_in(actions: &[ByzAction]) -> Vec<LogEntry> {
        let entry = |a: &ByzAction| match *a {
            Action::Publish(entry) => Some(entry),
            _ => None,
        };
        actions.iter().filter_map(entry).collect()
    }

    /// The delays of the log's own `tag` timers armed in `actions`.
    pub(super) fn timers_in(actions: &[ByzAction], tag: TimerTag) -> Vec<u64> {
        let delay = |a: &ByzAction| match *a {
            Action::SetTimer(d, t) if t == tag => Some(d.ticks()),
            _ => None,
        };
        actions.iter().filter_map(delay).collect()
    }

    /// `Commit` broadcasts among what `step` emits, run at tick `at`.
    pub(super) fn commits_sent(
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut ByzSink<'_>),
    ) -> usize {
        commits_in(&actions_of(node, at, step)).len()
    }

    pub(super) fn open_queues(n: usize, commands_per_proc: usize) -> Vec<CommandQueue> {
        WorkloadConfig {
            commands_per_proc,
            arrival: homonym_sim::workload::ArrivalModel::Open { mean_gap_ticks: 50 },
            ..WorkloadConfig::default()
        }
        .queues(n)
    }

    /// The head command of `queue` and its arrival tick.
    pub(super) fn head_of(queue: &CommandQueue) -> (u64, u64) {
        let at = queue.next_arrival().expect("not drained");
        (queue.proposal(at), at.ticks())
    }

    /// A `Commit` about height 0 carrying `next`, as process 1's label
    /// would send it.
    pub(super) fn commit_carrying(
        assign: &IdentityAssignment,
        next: u64,
    ) -> <ByzLog as Process>::Msg {
        RsmMsg::Commit {
            height: 0,
            value: NOOP,
            id: assign.id_of(1),
            next,
            state: None,
        }
    }

    /// The log's own timers a replica armed and did not cancel, fired as
    /// the engine fires them when nothing else happens: in due order,
    /// ties in the order armed.
    #[derive(Default)]
    pub(super) struct Timers(Vec<(u64, TimerTag)>);

    /// A firing of a log timer: its tick and what it emitted.
    pub(super) type Fired = (u64, Vec<ByzAction>);

    impl Timers {
        /// What `step` emits at tick `at`, keeping the log timers it arms
        /// and dropping those it cancels.
        pub(super) fn at(
            &mut self,
            node: &mut ByzLog,
            at: u64,
            step: impl FnOnce(&mut ByzLog, &mut ByzSink<'_>),
        ) -> Vec<ByzAction> {
            let actions = actions_of(node, at, step);
            for action in &actions {
                match *action {
                    Action::SetTimer(delay, tag) if is_log_tag(tag) => {
                        self.0.push((at + delay.ticks().max(1), tag));
                    }
                    Action::CancelTimer(due, tag) if is_log_tag(tag) => {
                        self.0.retain(|&armed| armed != (due.ticks(), tag));
                    }
                    _ => {}
                }
            }
            actions
        }

        /// The log timers pending, in the order armed.
        pub(super) fn pending(&self) -> &[(u64, TimerTag)] {
            &self.0
        }

        /// Fires the timers due through tick `until`, in order.
        pub(super) fn run(&mut self, node: &mut ByzLog, until: u64) -> Vec<Fired> {
            let mut fired = Vec::new();
            while let Some(next) = (0..self.0.len()).min_by_key(|&i| self.0[i].0) {
                let (at, tag) = self.0[next];
                if at > until {
                    break;
                }
                self.0.remove(next);
                fired.push((at, self.at(node, at, |n, s| n.on_timer(tag, s))));
            }
            fired
        }
    }

    /// What a firing said: its tick, the `(height, value, next)` of the
    /// `Commit`s it sent and the delays it armed the status timer with.
    pub(super) type Said = (u64, Vec<(u64, u64, u64)>, Vec<u64>);

    /// What each of `fired` said.
    pub(super) fn said(fired: &[Fired]) -> Vec<Said> {
        let each =
            |(at, actions): &Fired| (*at, commits_in(actions), timers_in(actions, STATUS_TAG));
        fired.iter().map(each).collect()
    }

    /// The heights of the engine messages broadcast in `actions`.
    pub(super) fn engine_heights(actions: &[ByzAction]) -> Vec<u64> {
        let height = |a: &ByzAction| match *a {
            Action::Broadcast(RsmMsg::Inner { height, .. }) => Some(height),
            _ => None,
        };
        actions.iter().filter_map(height).collect()
    }

    /// The height whose engine `actions` booted: a carrier of round 0's
    /// coordinator label opens every height it boots with a broadcast.
    pub(super) fn booted_in(actions: &[ByzAction]) -> Option<u64> {
        engine_heights(actions).first().copied()
    }

    /// The own client's command arriving ends the wait at once: the
    /// replica announces it and boots the height, proposing it.
    #[test]
    fn an_idle_replica_boots_when_its_client_arrives() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let client = open_queues(4, 4).remove(0);
        let (head, due) = head_of(&client);
        assert!(due > 0);
        let mut node = byz_rsm_node(&assign, client);
        actions_of(&mut node, due - 1, |n, s| n.commit(NOOP, false, s));
        assert!(node.idle_until().is_some());
        let arrived = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert_eq!(commits_in(&arrived), [(0, NOOP, head)], "announced");
        assert_eq!(booted_in(&arrived), Some(1), "{arrived:?}");
        assert_eq!(node.proposals.proposal(Time::from_ticks(due)), head);
        assert_eq!(node.idle_until(), None);
    }

    /// A `Commit` announcing a command this replica may propose ends the
    /// wait at once.
    #[test]
    fn an_idle_replica_boots_on_an_announced_command() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let (head, due) = head_of(&open_queues(4, 4)[1]);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        actions_of(&mut node, due, |n, s| n.commit(NOOP, false, s));
        assert!(node.idle_until().is_some());
        let carrying = commit_carrying(&assign, head);
        let woke = actions_of(&mut node, due + 1, |n, s| n.on_message(carrying, s));
        assert_eq!(booted_in(&woke), Some(1), "{woke:?}");
        assert_eq!(node.proposals.proposal(Time::from_ticks(due + 1)), head);
        assert_eq!(node.idle_until(), None);
    }

    /// What fresh engines say when they start — the round-0
    /// coordinators' opening — as sent and as a corrupt homonym would
    /// forge it. None of it can make a height decide (that takes votes),
    /// so whatever a replica fed these commits, it adopted from
    /// `Commit`s.
    pub(super) fn engine_openings(
        assign: &IdentityAssignment,
    ) -> Vec<<ByzQuorumConsensus as Process>::Msg> {
        let mut pool = Vec::new();
        for p in 0..assign.n() {
            let mut engine = ByzQuorumConsensus::new(p as u64, assign);
            let mut actions = Vec::new();
            engine.on_start(&mut ActionSink::new(
                assign.id_of(p),
                Time::ZERO,
                &mut actions,
            ));
            for action in actions {
                if let Action::Broadcast(msg) = action {
                    pool.extend(ByzQuorumConsensus::mutate_payload(&msg, p as u64));
                    pool.push(msg);
                }
            }
        }
        assert!(!pool.is_empty());
        pool
    }

    /// Splitting the replica into parts kept it as small as it was, and
    /// the engine's actions are lifted as it emits them, so the log holds
    /// no action buffer (800 bytes while it did): nested parts add
    /// padding, and `peak_rss_mb` follows struct layout more than state
    /// (a process 64 bytes larger read +3–4 % on `log_steady`).
    #[test]
    fn a_replica_is_no_larger_than_800_bytes() {
        assert_eq!(std::mem::size_of::<ByzLog>(), 776);
    }
}
