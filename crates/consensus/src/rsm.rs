//! Multi-height replicated log service: consensus instances chained the
//! Tendermint way, one per log *height*, over a detector that keeps
//! running across heights.
//!
//! The paper's algorithms each solve **one** consensus instance: the
//! engine drives a single `HΩ`/`HΣ`-powered decision and stops. A
//! replicated state machine needs an unbounded sequence of them. This
//! module provides [`ReplicatedLog`], a [`Process`] that
//!
//! * runs a fresh per-height engine (any [`HeightEngine`]: the
//!   Byzantine-tolerant quorum stack by default, Figure 8 or Figure 9
//!   selectable) for each height `h` — spawned for height 0 and
//!   [re-armed](HeightEngine::respawn) for every height after it,
//! * wraps the engine's traffic in height-tagged envelopes so instances
//!   never cross-talk,
//! * publishes the decided command as the next entry of an ordered log
//!   and immediately restarts the round machinery at `h + 1` with the
//!   next client command from its [`CommandQueue`] — or, when its own
//!   client has none, one another replica announced (see "Who gets
//!   proposed"),
//! * keeps of that log only what a run that never ends can afford: the
//!   last [`MAX_COMMIT_AHEAD`] values (its *ring*), a
//!   fingerprint of everything committed, and the per-proposer table of
//!   the last command committed — the published history is the record,
//!   and
//! * catches lagging homonyms up: height-tagged messages *from the
//!   future* are buffered until the local log reaches them, messages
//!   *from the past* — and the status of a replica that has stopped
//!   moving — are answered with the committed entry, or with the whole
//!   state when the entry has left the ring, and answers carry enough
//!   certification (`f + 1` matching copies under per-label admission
//!   caps) that even a Byzantine minority cannot forge a catch-up.
//!
//! The detector layer is **not** restarted per height. The intended
//! composition is `Stacked<Detector, ReplicatedLog<C>>` (see
//! [`Stacked`](homonym_sim::Stacked)): the detector half runs
//! continuously — as Lynch-style failure-detector executions are defined
//! over infinite runs — while the consensus half above it is replaced
//! every height. The stack hands every output of the detector to the log
//! ([`Consumes`]), and the log hands it to the live engine and to the
//! seed the next height's engine is spawned from, so per-height engines
//! reading the detector's last output (Figure 8) or an oracle handle
//! (Figure 9) see *warm* detector state at every height, which
//! is what makes post-GST heights decide in a handful of ticks.
//!
//! # Catch-up rule
//!
//! A process at height `h` handles an incoming envelope at height `h'`:
//!
//! * `h' = h` — unwrap and deliver to the live engine.
//! * `h' > h` — buffer (bounded; overflow is counted as a discard) and
//!   replay once the local log reaches `h'`.
//! * `h' < h` — the sender lags, and is answered:
//!   * **inside the ring** (`h' ≥ h − MAX_COMMIT_AHEAD`), rate-limited per
//!     height, with `Commit { h', log[h'] }` so it can skip its stalled
//!     instance;
//!   * **below it**, through one throttle slot shared by every older
//!     height, with a *state transfer*: its state through `h − 1` as a
//!     run of `count` commits `Commit { h − 1, word_i }`, each marked
//!     with its [`StatePart`] `{ index: i, count }`. The words are
//!     `log[h − 1]`, the fingerprint through `h − 1`, the per-proposer
//!     table two `u32`s to a word, and the rest of the ring — the tail —
//!     oldest first.
//!
//! Both tally under the same per-label caps the Byzantine quorum stack
//! uses: a label carried by `k` processes contributes at most `k` copies,
//! so `commit_quorum = f + 1` matching copies imply at least one correct
//! witness. In the crash model a quorum of 1 is sound (correct processes
//! only report decided values). A state's parts tally one word at a time,
//! per `(height, count, index, word)`, and the state is adopted once
//! every index `0..count` has a word with that many copies. Correct peers
//! at one height send identical words, so this certifies exactly what
//! matching whole states would. The laggard then moves to the senders'
//! height, publishes the heights of the tail it did not have — the heights
//! below the tail it passes without ever holding their values — and
//! retires its own client's commands that the table says committed. A
//! peer that moved on sends another state, so a replica holds at most one
//! claim per process of the system, at most that many candidate words per
//! index, and drops them all whenever its status chain (next section)
//! finds it where it was. A part that cannot belong to a replica's state
//! — an index past its count, a count that leaves no room for the table
//! or more tail than a ring holds or than there are heights, a height
//! with no successor — is discarded.
//!
//! No message of the log holds heap memory, and so neither does a stack
//! of it over a detector whose messages hold none: the engine copies
//! every broadcast inline, and nothing is dropped or unwound around one.
//!
//! # Pull what you missed
//!
//! The third case above only fires on the laggard's own traffic, and a
//! laggard whose engine sits in a phase sends none — the engines never
//! retransmit, because a second copy is indistinguishable from a
//! namesake's. Nor can it learn from others' commits in passing, since a
//! commit is only broadcast when it carries news (next section). So a
//! replica that may be behind **asks**, with the one truthful thing it
//! can say: its last commit.
//!
//! * **Status.** One log-level timer chain runs per replica, with period
//!   [`ANSWER_INTERVAL`]. A firing that finds the replica at
//!   the height the previous one found it at — so it has sat there for
//!   at least one period — repeats `Commit { h − 1, log[h − 1], next }`
//!   and doubles the gap to the next firing, up to
//!   `ANSWER_INTERVAL × MAX_COMMIT_AHEAD`; a firing that finds it moved
//!   sends nothing and returns to the base period. A healthy service
//!   whose heights take less than a period never sends one; a whole
//!   system stalled behind a partition backs off instead of flooding the
//!   partition's queue.
//! * **Answer.** A replica at height `h` that receives
//!   `Commit { h', … }` with `h' + 1 < h` (checked: a forged height near
//!   `u64::MAX` has no successor) treats it as it treats a height-`h' + 1`
//!   engine message from the past: `answer_past(h' + 1)`, under the same
//!   throttle — the entry if `h' + 1` is inside its ring, its state if
//!   not. `f + 1` such answers certify the entry, or the state, for the
//!   asker.
//! * **Chain.** A replica that adopts an entry or a state from a
//!   certificate broadcasts its `Commit` whether or not it has news — it
//!   is behind and has just moved, so its peers answer with the next
//!   entry at once, one round trip per entry inside their rings, without
//!   waiting for the timer. A replica more than a ring behind pays one
//!   round trip for the state — `count` broadcasts from each peer, which
//!   certify together — then one per entry its peers committed in the
//!   meantime.
//!
//! A status is a truthful commit like any other copy: it adds to the
//! tally of whoever is still at `h − 1` (which is also what rescues a
//! replica stalled at height 0, which has nothing to repeat: its peers,
//! stalled at height 1 without it or simply slow before GST, repeat
//! `Commit { 0, … }`, `f + 1` of which certify height 0). Entries are
//! still adopted only on `commit_quorum` matching copies under the label
//! caps, so a Byzantine sender of stale statuses buys at most one answer
//! per ring height, and one state (its `count` parts), per
//! `ANSWER_INTERVAL` from each correct replica, and nothing else. The
//! price of asking lazily: after a long stall the
//! chain's next firing is up to `ANSWER_INTERVAL × MAX_COMMIT_AHEAD`
//! away, and a replica stranded again before it waits that long before
//! its first status.
//!
//! # A decided height stops talking
//!
//! `Commit { h, v }` *is* the decision certificate of height `h`: `f + 1`
//! matching copies under the label caps, exactly what the Byzantine
//! engine's own `DECIDE` echo ledger demands. So the moment the height's
//! engine decides, the log drops whatever else the engine emitted in
//! that callback after the decision — the echo, the next round's opening
//! messages, timers, observations of a round nobody will run. The cut is
//! by position in the action stream; the log never looks inside an
//! engine message.
//!
//! The `Commit` itself is broadcast **only when it carries news**: a
//! `next` not announced before (see "Who gets proposed"), or an entry
//! adopted from a certificate (see above). Every replica decides a clean
//! height by its own quorum, so a `Commit` that says "same `next` as
//! last height" tells nobody anything — seven of the eight a height used
//! to broadcast at n = 8 — and whoever did miss the height asks.
//!
//! Broadcast or not, the commit instant opens the height's *answer*
//! throttle: the tail of height-`h` copies still in flight when a
//! replica commits would otherwise each look like a laggard asking, and
//! earn an n-copy `Commit`. A replica that is genuinely stuck asks past
//! [`ANSWER_INTERVAL`] and is answered.
//! The throttle keeps one instant per ring entry and a single shared
//! instant for everything older, so it is bounded and a replica far
//! behind is still answered at most once per interval.
//!
//! # Who gets proposed
//!
//! The default engine decides the smallest estimate the round's
//! coordinator label brings in, so a command is served only once a
//! coordinator carrier proposes it. The log carries it there on traffic
//! that exists anyway: every `Commit` that is sent has a field `next`, the
//! sender's own client's head command if it is due, else [`NOOP`] — and a
//! `Commit` is sent whenever `next` is new, so a due command is announced
//! by the first commit after it becomes due and not again. Every replica
//! keeps one slot per proposer index, filled from every `Commit` it
//! receives, and proposes at each new height
//!
//! 1. its own client's command if one is due — so in a closed loop, where
//!    the coordinator's client always has one, nothing changes, and
//!    fairness there is deliberately still 1/k: serving k clients in turn
//!    multiplies every client's commit latency by k, so closed-loop
//!    fairness waits for a block per height;
//! 2. else the held command with the smallest `(seq, cmd)`;
//! 3. else [`NOOP`]
//!
//! — coordinator or not, since a failed round hands coordination to the
//! next label.
//!
//! **The successor rule.** A slot accepts `next` only if it is that
//! proposer's *successor* command: `seq_of(next)` equals the highest
//! sequence number committed for the proposer plus one. A client proposes
//! one command at a time and commits arrive in log order, so every honest
//! head is exactly that; the slot is cleared when its command commits.
//! This is the double-commit guard: an announcement that sat in a
//! partition's queue for 300 ticks names a command that has committed
//! since, fails the rule and is never proposed again.
//!
//! **Mid-height arrivals.** A command that becomes due in the middle of a
//! height must not wait for its replica's next commit — the coordinators
//! start the next height in the same ticks and would miss it by a whole
//! height. The log arms one timer per drawn head for its arrival instant
//! and, when it fires, repeats its last `Commit { h − 1, log[h − 1] }`
//! with the new `next`: a truthful catch-up answer to a laggard, old news
//! to everyone else.
//!
//! **Byzantine caveat.** A forged `next` can make an honest idle
//! coordinator propose a forged command — which a forged `COORD` could
//! already do. BFT validity is unchanged in kind, and a crash-model run
//! cannot commit anything no client issued.

use std::collections::{BTreeMap, VecDeque};

use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::multiset::Multiset;
use homonym_core::query::{Consumes, HOmegaSource, HSigmaSource};
use homonym_core::time::{Span, Time};
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use homonym_sim::process::{Action, ActionSink, Process, TimerTag};
use homonym_sim::workload::{proposer_of, seq_of, CommandQueue, NOOP};
use homonym_sim::ObsKind;

use crate::byz_quorum::ByzQuorumConsensus;
use crate::conflict::WindowLedger;
use crate::fig8::{HOmegaPolicy, LeaderPolicy, MajorityConsensus};
use crate::fig9::QuorumConsensus;

/// Timer tags below this value are reserved for the log service itself;
/// a height-`h` engine's tag `t` travels as `(h + 1) * TAG_STRIDE + t`.
/// Per-height engines must keep their private tags below the stride
/// (every in-tree engine uses tag 0).
const TAG_STRIDE: u64 = 16;

/// The log's own timer: fires at the arrival instant of the client's
/// head command (see "Who gets proposed" in the module docs).
const ARRIVAL_TAG: TimerTag = TimerTag(0);

/// The log's other timer: the status chain of "Pull what you missed" in
/// the module docs. Exactly one is outstanding at any time.
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
    /// proposing `proposal`. `self` was spawned from `seed`, and
    /// afterwards must behave exactly as `Self::spawn(seed, proposal)`
    /// would — which is what the default does. An engine whose
    /// construction is worth saving (tables derived from the seed,
    /// buffers sized by the last height) overrides it to reset its
    /// per-height state in place instead: the log spawns height 0's
    /// engine and calls this at every height after it.
    fn respawn(&mut self, seed: &Self::Seed, proposal: u64) {
        *self = Self::spawn(seed, proposal);
    }
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
}

/// The tolerant engine reads no detector.
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
    /// sender's log through `height` (see "Catch-up rule" in the module
    /// docs).
    Commit {
        /// The committed height.
        height: u64,
        /// The committed command; in a state transfer, word
        /// `state.index` of the state.
        value: u64,
        /// The **claimed** sender label; tallies cap each label at its
        /// multiplicity so Byzantine homonyms cannot stuff the count.
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

// The log's own messages hold no heap memory, so the engine queues every
// broadcast of the log as inline copies; a body that needs more than a
// word travels as parts (see `StatePart`).
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

/// Words of a state before the table: the value at its height and the
/// fingerprint.
const STATE_HEAD: usize = 2;

/// Words of a state that hold the per-proposer table of `n` processes.
fn table_words(n: usize) -> usize {
    n.div_ceil(2)
}

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

    /// What makes these options unfit for a replica of `n` processes, if
    /// anything: a quorum of none, or a state — [`MAX_COMMIT_AHEAD`]
    /// words plus one for the fingerprint and one per two processes —
    /// that does not fit `u16::MAX` parts.
    fn flaw(&self, n: usize) -> Option<&'static str> {
        let head = (STATE_HEAD + table_words(n)) as u64;
        if self.commit_quorum == 0 {
            Some("commit quorum must be positive")
        } else if (MAX_COMMIT_AHEAD - 1).saturating_add(head) > u64::from(u16::MAX) {
            Some("a state fits its parts' count")
        } else {
            None
        }
    }
}

homonym_core::persist_fields!(RsmOptions { commit_quorum });

/// Per-height `Commit` tallies: value → the copies admitted for it, each
/// claimed label capped at its multiplicity.
type CommitTally = BTreeMap<u64, WindowLedger>;

/// One state transfer claim being tallied: the parts of a state of
/// `words.len()` words through `height`, and per index the words received
/// for it, each with the copies admitted for exactly that word.
#[derive(Debug, Clone)]
struct StateTally {
    height: u64,
    words: Vec<Vec<(u64, WindowLedger)>>,
}

homonym_core::persist_fields!(StateTally { height, words });

impl StateTally {
    /// The state's words, once every index has one with `quorum` copies.
    fn certified(&self, quorum: usize) -> Option<Vec<u64>> {
        let word = |candidates: &Vec<(u64, WindowLedger)>| {
            let certified = candidates.iter().find(|(_, c)| c.admitted() >= quorum);
            certified.map(|&(word, _)| word)
        };
        self.words.iter().map(word).collect()
    }
}

/// The multi-height replicated log process; see the module docs.
///
/// `Output = `[`LogEntry`]: every commit is published, so the engine's
/// histories carry each process's view of the log in commit order — the
/// record of the log, which the process itself does not keep: it holds
/// the last [`MAX_COMMIT_AHEAD`] values and a fingerprint of
/// the rest. The *first* commit additionally registers as the process's
/// decision, so one-shot goals (`run_until_all_correct_decided`) remain
/// meaningful.
#[derive(Clone)]
pub struct ReplicatedLog<C: HeightEngine> {
    seed: C::Seed,
    client: CommandQueue,
    opts: RsmOptions,
    /// The assignment's labels with their multiplicities: the admission
    /// caps for `Commit` tallies.
    caps: Multiset<Identity>,
    inner: C,
    height: u64,
    /// The last `MAX_COMMIT_AHEAD` committed heights, oldest first (the
    /// back is height `height − 1`): each one's value and when it was
    /// last answered (its own commit counts, broadcast or not).
    ring: VecDeque<(u64, Time)>,
    state_hash: u64,
    /// Engine messages for heights we have not reached, keyed by height.
    future: BTreeMap<u64, Vec<C::Msg>>,
    buffered: usize,
    /// `Commit` tallies for heights ≥ the local height.
    tallies: BTreeMap<u64, CommitTally>,
    /// State transfer claims about heights ≥ the local height, at most
    /// one per process of the system, emptied whenever this replica
    /// asks again.
    states: Vec<StateTally>,
    /// When any height older than the ring was last answered.
    stale_answer: Time,
    /// Per proposer index: the command its replica announced as pending
    /// ([`NOOP`] when none is held).
    wanted: Vec<u64>,
    /// Per proposer index: the highest sequence number committed.
    done_seq: Vec<u32>,
    /// The last own command sent out as a `Commit`'s `next`.
    announced: u64,
    /// The height the last status timer found the replica at.
    status_height: u64,
    /// The delay of the outstanding status timer:
    /// [`ANSWER_INTERVAL`] while heights commit, doubling
    /// with every status sent from one height.
    status_gap: Span,
    /// Reused buffer for the actions of one engine callback.
    scratch: Vec<Action<C::Msg, u64>>,
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

/// The entry of `entries` that `is` picks — appended by `new` if there is
/// none and `entries` holds fewer than `most`.
fn find_or_push<T>(
    entries: &mut Vec<T>,
    most: usize,
    is: impl Fn(&T) -> bool,
    new: impl FnOnce() -> T,
) -> Option<&mut T> {
    match entries.iter().position(is) {
        Some(i) => Some(&mut entries[i]),
        None if entries.len() >= most => None,
        None => {
            entries.push(new());
            entries.last_mut()
        }
    }
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
        if let Some(flaw) = opts.flaw(assign.n()) {
            panic!("{flaw}");
        }
        let inner = C::spawn(&seed, client.proposal(Time::ZERO));
        ReplicatedLog {
            seed,
            client,
            opts,
            caps: assign.multiset(),
            inner,
            height: 0,
            ring: VecDeque::new(),
            state_hash: 0,
            future: BTreeMap::new(),
            buffered: 0,
            tallies: BTreeMap::new(),
            states: Vec::new(),
            stale_answer: Time::ZERO,
            wanted: vec![NOOP; assign.n()],
            done_seq: vec![0; assign.n()],
            announced: NOOP,
            status_height: 0,
            status_gap: ANSWER_INTERVAL,
            scratch: Vec::new(),
        }
    }

    /// The height currently being decided (= committed entries). The
    /// entries themselves are the process's published [`LogEntry`]
    /// history.
    #[must_use]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Running fingerprint of the committed log — equal fingerprints at
    /// equal lengths imply identical logs.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// What the replica keeps that a run could grow — ring entries,
    /// buffered future-height messages, tallied heights and state
    /// claims — a diagnostic for the boundedness tests: at most
    /// `2 × MAX_COMMIT_AHEAD + MAX_BUFFERED + n`, however long the log.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.ring.len() + self.buffered + self.tallies.len() + self.states.len()
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
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let observing = ctx.observing();
            let mut sub = ActionSink::new(ctx.my_id(), ctx.local_now(), &mut actions)
                .with_observing(observing);
            f(&mut self.inner, &mut sub);
        }
        let mut decided = None;
        for action in actions.drain(..) {
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
        // The drain took what the `Decide` cut off with it; the buffer is
        // back in place before `commit` re-enters this function.
        self.scratch = actions;
        if let Some(v) = decided {
            // Guard against a stale decide surfacing after a catch-up
            // commit already advanced the height mid-callback.
            if self.height == h {
                self.commit(v, false, ctx);
            }
        }
    }

    /// Appends `value` at the current height, announces the commit if it
    /// carries news — a due command of the own client not yet announced,
    /// or that this replica `adopted` the entry from a certificate and is
    /// therefore behind — and boots the next height's engine (draining
    /// any buffered traffic for it).
    fn commit(&mut self, value: u64, adopted: bool, ctx: &mut Sink<'_, C>) {
        let height = self.height;
        self.state_hash = mix(self.state_hash, height, value);
        let completed = self.client.completed();
        self.client.on_commit(value);
        self.retire(value);
        self.record(height, value, ctx);
        self.enter(height + 1, adopted, completed, ctx);
    }

    /// Keeps `value` as committed at `height` — in the ring, its oldest
    /// entry out — and publishes it. Said or not, the commit opens the
    /// height's answer throttle: the tail of its copies still in flight
    /// asks nothing.
    fn record(&mut self, height: u64, value: u64, ctx: &mut Sink<'_, C>) {
        if self.ring.len() as u64 >= MAX_COMMIT_AHEAD {
            self.ring.pop_front();
        }
        self.ring.push_back((value, ctx.local_now()));
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
    }

    /// Moves to height `to`, whose predecessor is the ring's last entry:
    /// says so if that carries news or was `adopted` from a certificate,
    /// arms the arrival timer if the client drew a new head (it had
    /// retired `completed` commands before), drops what was kept for the
    /// heights passed, and boots the next height's engine, draining any
    /// buffered traffic for it.
    fn enter(&mut self, to: u64, adopted: bool, completed: usize, ctx: &mut Sink<'_, C>) {
        if adopted || self.has_news(ctx.local_now()) {
            if let Some(&(value, _)) = self.ring.back() {
                self.broadcast_commit(to - 1, value, None, ctx);
            }
        }
        if self.client.completed() != completed {
            // A new head was drawn; if it is due already it just rode out
            // as `next`.
            self.arm_arrival(ctx);
        }

        self.height = to;
        while let Some(decided) = self.tallies.first_entry() {
            if *decided.key() >= to {
                break;
            }
            decided.remove();
        }
        // Only a state transfer skips heights with traffic buffered.
        while let Some(skipped) = self.future.first_entry() {
            if *skipped.key() >= to {
                break;
            }
            self.buffered -= skipped.remove().len();
        }
        self.states.retain(|claim| claim.height >= to);

        let proposal = self.proposal(ctx.local_now());
        self.inner.respawn(&self.seed, proposal);
        self.relay_inner(ctx, |c, sub| c.on_start(sub));

        if let Some(msgs) = self.future.remove(&to) {
            self.buffered -= msgs.len();
            for m in msgs {
                // A commit mid-drain can advance the height again; the
                // remaining messages then belong to a decided height.
                if self.height == to {
                    self.relay_inner(ctx, |c, sub| c.on_message(m, sub));
                }
            }
        }
    }

    /// Moves to `height + 1` on a certified state transfer, `words` laid
    /// out as [`StatePart`] says and checked by [`Self::tally_part`]:
    /// publishes the heights of the tail it did not have, takes the
    /// fingerprint and the per-proposer table as they are, and retires its
    /// own client's commands the skipped heights committed. Below the tail
    /// it never holds a value. If that skips height 0, the replica
    /// registers no decision.
    fn adopt(&mut self, height: u64, words: &[u64], ctx: &mut Sink<'_, C>) {
        let (head, tail) = words.split_at(STATE_HEAD + table_words(self.done_seq.len()));
        let completed = self.client.completed();
        let first = height - tail.len() as u64;
        self.ring.clear();
        for (h, &v) in (first..=height).zip(tail.iter().chain(&head[..1])) {
            if h >= self.height {
                self.record(h, v, ctx);
            } else {
                self.ring.push_back((v, ctx.local_now()));
            }
        }
        self.state_hash = head[1];
        let table = &head[STATE_HEAD..];
        for (p, done) in self.done_seq.iter_mut().enumerate() {
            *done = (table[p / 2] >> (32 * (p % 2))) as u32;
        }
        for (slot, &done) in self.wanted.iter_mut().zip(&self.done_seq) {
            if seq_of(*slot) <= done {
                *slot = NOOP;
            }
        }
        let own = self.done_seq.get(self.client.proc_idx());
        let done = own.copied().unwrap_or(0);
        while let Some(due) = self.client.next_arrival() {
            let head = self.client.proposal(due);
            if seq_of(head) > done {
                break;
            }
            self.client.on_commit(head);
        }
        self.enter(height + 1, true, completed, ctx);
    }

    /// Commits as long as the current height holds a certified tally,
    /// and adopts a certified state transfer.
    fn drain_certified(&mut self, ctx: &mut Sink<'_, C>) {
        let quorum = self.opts.commit_quorum;
        loop {
            let entry = self.tallies.get(&self.height).and_then(|per_value| {
                let mut values = per_value.iter();
                values.find_map(|(&value, copies)| (copies.admitted() >= quorum).then_some(value))
            });
            if let Some(value) = entry {
                self.commit(value, true, ctx);
                continue;
            }
            let mut claims = self.states.iter().enumerate();
            let Some((i, words)) =
                claims.find_map(|(i, claim)| Some((i, claim.certified(quorum)?)))
            else {
                return;
            };
            let height = self.states.swap_remove(i).height;
            self.adopt(height, &words, ctx);
        }
    }

    /// Tallies one `Commit` claim under the per-label caps. A label
    /// nobody carries leaves no entry behind: a Byzantine homonym can
    /// invent labels, heights and values without end.
    fn tally_commit(&mut self, height: u64, value: u64, id: Identity, ctx: &mut Sink<'_, C>) {
        if height < self.height {
            return; // old news
        }
        if height - self.height >= MAX_COMMIT_AHEAD || !self.caps.contains(&id) {
            ctx.note_discard();
            return;
        }
        let copies = self
            .tallies
            .entry(height)
            .or_default()
            .entry(value)
            .or_default();
        if !copies.admit(id, &self.caps) {
            ctx.note_discard();
        }
    }

    /// Tallies one part of a state transfer, `word` at `part.index` of a
    /// state through `height`, under the per-label caps. A part that
    /// cannot belong to a replica's state — an index past its count, a
    /// count that leaves no room for the table or more tail than a ring
    /// holds or than there are heights, a height with no successor — is
    /// discarded, and so is one under a label nobody carries. So is a new
    /// claim once every process of the system could have sent one, and a
    /// new word for an index once every process could have sent one.
    fn tally_part(
        &mut self,
        height: u64,
        word: u64,
        part: StatePart,
        id: Identity,
        ctx: &mut Sink<'_, C>,
    ) {
        if height < self.height {
            return; // old news
        }
        let StatePart { index, count } = part;
        let head = (STATE_HEAD + table_words(self.done_seq.len())) as u64;
        let tail = u64::from(count).checked_sub(head);
        let fits = tail.is_some_and(|tail| tail < MAX_COMMIT_AHEAD && tail <= height);
        if index >= count || !fits || height == u64::MAX || !self.caps.contains(&id) {
            ctx.note_discard();
            return;
        }
        let most = self.caps.len();
        let count = usize::from(count);
        let Some(claim) = find_or_push(
            &mut self.states,
            most,
            |claim| (claim.height, claim.words.len()) == (height, count),
            || StateTally {
                height,
                words: vec![Vec::new(); count],
            },
        ) else {
            ctx.note_discard();
            return;
        };
        let candidates = &mut claim.words[usize::from(index)];
        let copies = find_or_push(
            candidates,
            most,
            |&(w, _)| w == word,
            || (word, WindowLedger::default()),
        );
        if !copies.is_some_and(|(_, copies)| copies.admit(id, &self.caps)) {
            ctx.note_discard();
        }
    }

    /// Answers a laggard's height-`height` traffic, at most once per
    /// [`ANSWER_INTERVAL`]: inside the ring with the committed
    /// entry, throttled per height from its commit instant; below it with
    /// a state transfer, through one slot shared by every older height.
    /// `height` must be below the local one (both callers compare first).
    fn answer_past(&mut self, height: u64, ctx: &mut Sink<'_, C>) {
        debug_assert!(height < self.height, "only a committed height is past");
        let now = ctx.local_now();
        let interval = ANSWER_INTERVAL;
        let oldest = self.height - self.ring.len() as u64;
        match height.checked_sub(oldest) {
            Some(i) => {
                let (value, last) = &mut self.ring[i as usize];
                if now < *last + interval {
                    return;
                }
                *last = now;
                let value = *value;
                self.broadcast_commit(height, value, None, ctx);
            }
            None => {
                if now < self.stale_answer + interval {
                    return;
                }
                self.stale_answer = now;
                self.send_state(ctx);
            }
        }
    }

    /// Broadcasts this replica's state through its last commit, one
    /// [`StatePart`] at a time.
    fn send_state(&mut self, ctx: &mut Sink<'_, C>) {
        let Some(tail) = self.ring.len().checked_sub(1) else {
            return;
        };
        let table = table_words(self.done_seq.len());
        // `new` checked that a full ring's state fits.
        let count = (STATE_HEAD + table + tail) as u16;
        for index in 0..count {
            let word = match usize::from(index) {
                0 => self.ring[tail].0,
                1 => self.state_hash,
                i if i < STATE_HEAD + table => {
                    let pair = &self.done_seq[2 * (i - STATE_HEAD)..];
                    let high = pair.get(1).map_or(0, |&seq| u64::from(seq) << 32);
                    u64::from(pair[0]) | high
                }
                i => self.ring[i - STATE_HEAD - table].0,
            };
            let part = StatePart { index, count };
            self.broadcast_commit(self.height - 1, word, Some(part), ctx);
        }
    }

    /// Broadcasts `Commit { height, value, state }` with the own client's
    /// due command, if any, riding along as `next`.
    fn broadcast_commit(
        &mut self,
        height: u64,
        value: u64,
        state: Option<StatePart>,
        ctx: &mut Sink<'_, C>,
    ) {
        let next = self.client.proposal(ctx.local_now());
        if next != NOOP {
            self.announced = next;
        }
        ctx.broadcast(RsmMsg::Commit {
            height,
            value,
            id: ctx.my_id(),
            next,
            state,
        });
    }

    /// Arms the arrival timer if the client's head command is still in
    /// the future. Called once per drawn head.
    fn arm_arrival(&self, ctx: &mut Sink<'_, C>) {
        let now = ctx.local_now();
        if let Some(at) = self.client.next_arrival().filter(|&at| at > now) {
            ctx.set_timer(at - now, ARRIVAL_TAG);
        }
    }

    /// Whether the own client's head command is due and no `Commit` has
    /// carried it yet.
    fn has_news(&self, now: Time) -> bool {
        let next = self.client.proposal(now);
        next != NOOP && next != self.announced
    }

    /// Repeats the last commit, `Commit { h − 1, log[h − 1] }`, with the
    /// current `next`: a truthful certificate copy whatever it is sent
    /// for. Before the first commit there is nothing to repeat; returns
    /// whether there was.
    fn repeat_last_commit(&mut self, ctx: &mut Sink<'_, C>) -> bool {
        let Some(&(value, _)) = self.ring.back() else {
            return false;
        };
        self.broadcast_commit(self.height - 1, value, None, ctx);
        true
    }

    /// The head command just became due: unless a `Commit` of this very
    /// tick already carried it, repeat the last commit to announce it
    /// (the first commit will carry it if there is none yet).
    fn announce_arrival(&mut self, ctx: &mut Sink<'_, C>) {
        if self.has_news(ctx.local_now()) {
            let _ = self.repeat_last_commit(ctx);
        }
    }

    /// The status timer fired. If the replica left its height since the
    /// last firing, all is well and the chain returns to its base period.
    /// If not, it has sat there for at least
    /// [`ANSWER_INTERVAL`]: it repeats its last commit as a
    /// status — whoever is ahead answers with the entry it is missing,
    /// and whoever is a height behind gets a certificate copy — and backs
    /// off, doubling the gap up to `ANSWER_INTERVAL × MAX_COMMIT_AHEAD`.
    /// At height 0 there is nothing to repeat and so nothing to back off
    /// from: the chain keeps its base period, so that the first commit
    /// finds it ready. A firing that finds the replica where it was also
    /// drops the state transfer claims it holds: they answered an earlier
    /// ask, from peers that have moved on since.
    fn status_tick(&mut self, ctx: &mut Sink<'_, C>) {
        let base = ANSWER_INTERVAL;
        if self.height != self.status_height {
            self.status_height = self.height;
            self.status_gap = base;
        } else {
            self.states.clear();
            if self.repeat_last_commit(ctx) {
                let cap = base.saturating_mul(MAX_COMMIT_AHEAD);
                self.status_gap = self.status_gap.saturating_mul(2).min(cap);
            }
        }
        ctx.set_timer(self.status_gap, STATUS_TAG);
    }

    /// What to propose at a new height: the own client's due command,
    /// else the held announcement with the smallest `(seq, cmd)`, else
    /// [`NOOP`].
    fn proposal(&self, now: Time) -> u64 {
        let own = self.client.proposal(now);
        if own != NOOP {
            return own;
        }
        let held = self.wanted.iter().copied().filter(|&cmd| cmd != NOOP);
        held.min_by_key(|&cmd| (seq_of(cmd), cmd)).unwrap_or(NOOP)
    }

    /// Holds `next` for its proposer if it is that proposer's successor
    /// command (see "Who gets proposed" in the module docs).
    fn note_wanted(&mut self, next: u64) {
        let p = proposer_of(next);
        let Some(slot) = self.wanted.get_mut(p) else {
            return;
        };
        // The usual case, a command already held, ends at the first
        // compare. `NOOP` needs no case of its own: its `seq` is 0, which
        // is nobody's successor.
        if *slot != next && seq_of(next) == self.done_seq[p] + 1 {
            *slot = next;
        }
    }

    /// Records a committed command in the per-proposer tables: its
    /// sequence number is done and a held announcement no newer than it
    /// is dropped.
    fn retire(&mut self, value: u64) {
        let p = proposer_of(value);
        if value == NOOP || p >= self.wanted.len() {
            return;
        }
        self.done_seq[p] = self.done_seq[p].max(seq_of(value));
        if seq_of(self.wanted[p]) <= self.done_seq[p] {
            self.wanted[p] = NOOP;
        }
    }

    /// Buffers a future-height engine message (bounded).
    fn buffer_future(&mut self, height: u64, msg: C::Msg, ctx: &mut Sink<'_, C>) {
        if self.buffered >= MAX_BUFFERED {
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
    /// own mutation semantics and forges catch-up certificates by shifting
    /// the committed value — or, on a part of a state transfer, the word
    /// it carries — which is exactly what the per-label capped `f + 1`
    /// tally is there to absorb.
    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg> {
        match msg {
            RsmMsg::Inner { height, msg } => {
                C::mutate_payload(msg, entropy).map(|m| RsmMsg::Inner {
                    height: *height,
                    msg: m,
                })
            }
            RsmMsg::Commit {
                height,
                value,
                id,
                next,
                state,
            } => Some(RsmMsg::Commit {
                height: *height,
                value: value.wrapping_add(entropy | 1),
                id: *id,
                next: *next,
                state: *state,
            }),
        }
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        self.arm_arrival(ctx);
        ctx.set_timer(self.status_gap, STATUS_TAG);
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
            RsmMsg::Commit {
                height,
                value,
                id,
                next,
                state,
            } => {
                self.note_wanted(next);
                // A sender whose last commit is two or more heights back
                // is missing the entry after it: to this replica that is
                // what a past-height engine message says, and it gets the
                // same throttled answer. (A forged height near `u64::MAX`
                // has no successor and falls to the tally's range check.)
                match (height.checked_add(1), state) {
                    (Some(missing), _) if missing < self.height => self.answer_past(missing, ctx),
                    (_, None) => self.tally_commit(height, value, id, ctx),
                    (_, Some(part)) => self.tally_part(height, value, part, id, ctx),
                }
            }
        }
        self.drain_certified(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        if timer.0 < TAG_STRIDE {
            // Reserved for the log itself.
            match timer {
                ARRIVAL_TAG => self.announce_arrival(ctx),
                STATUS_TAG => self.status_tick(ctx),
                _ => {}
            }
            return;
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

/// The log hands what the stack gives it to the live engine and to the
/// seed, so the next height's engine starts from the same reading.
impl<O, C> Consumes<O> for ReplicatedLog<C>
where
    C: HeightEngine + Consumes<O>,
    C::Seed: Consumes<O>,
{
    fn consume(&mut self, output: &O) {
        self.seed.consume(output);
        self.inner.consume(output);
    }
}

/// A replica is its fields in declaration order, but for the action
/// buffer, which is empty between callbacks and decodes empty. `load`
/// rejects what `new` would assert on, and counts the replica's
/// arithmetic relies on: one table slot and one cap per process, a ring
/// no longer than the height or the options allow, and `buffered` the
/// number of messages buffered.
impl<C> Persist for ReplicatedLog<C>
where
    C: HeightEngine + Persist,
    C::Seed: Persist,
    C::Msg: Persist,
{
    fn save(&self, s: &mut Saver) {
        self.seed.save(s);
        self.client.save(s);
        self.opts.save(s);
        self.caps.save(s);
        self.inner.save(s);
        self.height.save(s);
        self.ring.save(s);
        self.state_hash.save(s);
        self.future.save(s);
        self.buffered.save(s);
        self.tallies.save(s);
        self.states.save(s);
        self.stale_answer.save(s);
        self.wanted.save(s);
        self.done_seq.save(s);
        self.announced.save(s);
        self.status_height.save(s);
        self.status_gap.save(s);
    }

    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let log = ReplicatedLog {
            seed: Persist::load(l)?,
            client: Persist::load(l)?,
            opts: Persist::load(l)?,
            caps: Persist::load(l)?,
            inner: Persist::load(l)?,
            height: Persist::load(l)?,
            ring: Persist::load(l)?,
            state_hash: Persist::load(l)?,
            future: Persist::load(l)?,
            buffered: Persist::load(l)?,
            tallies: Persist::load(l)?,
            states: Persist::load(l)?,
            stale_answer: Persist::load(l)?,
            wanted: Persist::load(l)?,
            done_seq: Persist::load(l)?,
            announced: Persist::load(l)?,
            status_height: Persist::load(l)?,
            status_gap: Persist::load(l)?,
            scratch: Vec::new(),
        };
        let n = log.done_seq.len();
        let ring = log.ring.len() as u64;
        let buffered: usize = log.future.values().map(Vec::len).sum();
        if log.opts.flaw(n).is_some()
            || log.wanted.len() != n
            || log.caps.len() != n
            || ring > log.height.min(MAX_COMMIT_AHEAD)
            || log.buffered != buffered
        {
            return Err(WireError::BadValue {
                what: "ReplicatedLog",
            });
        }
        Ok(log)
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
        published_logs(&engine)
    }

    /// Each replica's log as its published history records it.
    fn published_logs<C: HeightEngine>(engine: &Engine<ReplicatedLog<C>>) -> Vec<Vec<u64>> {
        let values = |history: &History<LogEntry>| history.iter().map(|(_, e)| e.value).collect();
        engine.histories().iter().map(values).collect()
    }

    /// The whole log of a replica young enough for its ring to hold it.
    fn short_log(node: &ByzLog) -> Vec<u64> {
        assert_eq!(node.ring.len() as u64, node.height, "the ring holds it all");
        node.ring.iter().map(|&(value, _)| value).collect()
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
        let logs = published_logs(&engine);
        let reference = engine.process(0);
        let mut h = 0u64;
        for (height, &value) in logs[0].iter().enumerate() {
            h = mix(h, height as u64, value);
        }
        assert_eq!(h, reference.state_hash());
        for p in 1..4 {
            let other = engine.process(p);
            if logs[p].len() == logs[0].len() {
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
                engine.process(p).height() >= 10,
                "correct process {p} stalled after the crash"
            );
        }
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
        let mut sink = ActionSink::new(label, Time::ZERO, &mut actions);
        for _ in 0..5 {
            node.tally_commit(0, 42, label, &mut sink);
        }
        assert_eq!(node.height(), 0);
        node.drain_certified(&mut sink);
        assert_eq!(node.height(), 0, "capped tally must not certify");
        // A second label closes the quorum.
        let other = assign.id_of(1);
        node.tally_commit(0, 42, other, &mut sink);
        node.drain_certified(&mut sink);
        assert_eq!(short_log(&node), [42]);
    }

    type ByzLog = ReplicatedLog<ByzQuorumConsensus>;

    type ByzAction = Action<RsmMsg<<ByzQuorumConsensus as Process>::Msg>, LogEntry>;

    /// What `step` emits, run at tick `at`.
    fn actions_of(
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut Sink<'_, ByzQuorumConsensus>),
    ) -> Vec<ByzAction> {
        actions_as(Identity::new(0), node, at, step)
    }

    /// What `step` emits, run at tick `at` by a carrier of `label`.
    fn actions_as(
        label: Identity,
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut Sink<'_, ByzQuorumConsensus>),
    ) -> Vec<ByzAction> {
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(label, Time::from_ticks(at), &mut actions);
        step(node, &mut sink);
        actions
    }

    /// The `(height, value, next)` of every `Commit` broadcast in
    /// `actions`, parts of state transfers included.
    fn commits_in(actions: &[ByzAction]) -> Vec<(u64, u64, u64)> {
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
    fn parts_in(actions: &[ByzAction]) -> Vec<<ByzLog as Process>::Msg> {
        let part = |a: &ByzAction| match *a {
            Action::Broadcast(msg @ RsmMsg::Commit { state: Some(_), .. }) => Some(msg),
            _ => None,
        };
        actions.iter().filter_map(part).collect()
    }

    /// How many parts a state of `n` processes with `tail` values below
    /// its height travels as.
    fn parts_of(n: usize, tail: u64) -> usize {
        STATE_HEAD + table_words(n) + tail as usize
    }

    /// The entries published in `actions`.
    fn published_in(actions: &[ByzAction]) -> Vec<LogEntry> {
        let entry = |a: &ByzAction| match *a {
            Action::Publish(entry) => Some(entry),
            _ => None,
        };
        actions.iter().filter_map(entry).collect()
    }

    /// The delays of the log's own `tag` timers armed in `actions`.
    fn timers_in(actions: &[ByzAction], tag: TimerTag) -> Vec<u64> {
        let delay = |a: &ByzAction| match *a {
            Action::SetTimer(d, t) if t == tag => Some(d.ticks()),
            _ => None,
        };
        actions.iter().filter_map(delay).collect()
    }

    /// `Commit` broadcasts among what `step` emits, run at tick `at`.
    fn commits_sent(
        node: &mut ByzLog,
        at: u64,
        step: impl FnOnce(&mut ByzLog, &mut Sink<'_, ByzQuorumConsensus>),
    ) -> usize {
        commits_in(&actions_of(node, at, step)).len()
    }

    fn open_queues(n: usize, commands_per_proc: usize) -> Vec<CommandQueue> {
        WorkloadConfig {
            commands_per_proc,
            arrival: homonym_sim::workload::ArrivalModel::Open { mean_gap_ticks: 50 },
            ..WorkloadConfig::default()
        }
        .queues(n)
    }

    /// The head command of `queue` and its arrival tick.
    fn head_of(queue: &CommandQueue) -> (u64, u64) {
        let at = queue.next_arrival().expect("not drained");
        (queue.proposal(at), at.ticks())
    }

    /// A `Commit` about height 0 carrying `next`, as process 1's label
    /// would send it.
    fn commit_carrying(assign: &IdentityAssignment, next: u64) -> <ByzLog as Process>::Msg {
        RsmMsg::Commit {
            height: 0,
            value: NOOP,
            id: assign.id_of(1),
            next,
            state: None,
        }
    }

    /// A commit is broadcast when it carries news: a due command leaves
    /// on it as `next`, once, and a commit with nothing new to say —
    /// no command due, or the due one announced already — sends nothing,
    /// unless the entry was adopted from a certificate. A replica with
    /// nothing of its own proposes an announced command from the next
    /// height on — until it commits.
    #[test]
    fn a_due_command_rides_on_the_commit_and_an_idle_replica_proposes_it() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let client = open_queues(4, 4).remove(1);
        let (head, due) = head_of(&client);
        let mut sender = byz_rsm_node(&assign, client);
        let early = actions_of(&mut sender, 0, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&early), [], "not due yet: no news");
        let late = actions_of(&mut sender, due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&late), [(1, NOOP, head)]);
        let again = actions_of(&mut sender, due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&again), [], "announced already: no news");
        // A replica moving up on a certificate says so, news or not.
        let adopted = actions_of(&mut sender, due, |n, s| n.commit(NOOP, true, s));
        assert_eq!(commits_in(&adopted), [(3, NOOP, head)]);

        let mut idle = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        assert_eq!(idle.proposal(Time::from_ticks(due)), NOOP);
        let carrying = commit_carrying(&assign, head);
        actions_of(&mut idle, due, |n, s| n.on_message(carrying, s));
        assert_eq!(idle.proposal(Time::from_ticks(due)), head);
        // Another command's height does not make it forget.
        actions_of(&mut idle, due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(idle.proposal(Time::from_ticks(due)), head);
        // Its own commit does, and the same announcement arriving again
        // (say out of a healed partition's queue) is not believed.
        actions_of(&mut idle, due, |n, s| n.commit(head, false, s));
        assert_eq!(idle.proposal(Time::from_ticks(due)), NOOP);
        actions_of(&mut idle, due, |n, s| n.on_message(carrying, s));
        assert_eq!(idle.proposal(Time::from_ticks(due)), NOOP);
        assert_eq!(short_log(&idle), [NOOP, head]);
    }

    /// A replica's own due command goes before anything it holds for
    /// others, and among those the smallest `(seq, cmd)` goes first.
    #[test]
    fn own_command_goes_first_then_the_smallest_held() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = open_queues(4, 4);
        let (own, due) = head_of(&queues[0]);
        let (first_of_1, _) = head_of(&queues[1]);
        let mut rest_of_1 = queues[1].clone();
        rest_of_1.on_commit(first_of_1);
        let (second_of_1, _) = head_of(&rest_of_1);
        let (first_of_2, _) = head_of(&queues[2]);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        actions_of(&mut node, 0, |n, s| n.commit(first_of_1, false, s));
        for next in [second_of_1, first_of_2] {
            actions_of(&mut node, 0, |n, s| {
                n.on_message(commit_carrying(&assign, next), s);
            });
        }
        assert_eq!(node.proposal(Time::from_ticks(due - 1)), first_of_2);
        assert_eq!(node.proposal(Time::from_ticks(due)), own);
    }

    /// Only a proposer's successor command is held: not one further
    /// ahead, not one whose proposer index is outside the system.
    #[test]
    fn announcements_off_the_successor_rule_are_ignored() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = open_queues(8, 4);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let mut ahead = queues[1].clone();
        ahead.on_commit(head_of(&queues[1]).0);
        for next in [head_of(&ahead).0, head_of(&queues[6]).0] {
            actions_of(&mut node, 0, |n, s| {
                n.on_message(commit_carrying(&assign, next), s);
            });
            assert_eq!(node.proposal(Time::ZERO), NOOP);
        }
        // A commit from outside the system touches no table either.
        actions_of(&mut node, 0, |n, s| {
            n.commit(head_of(&queues[6]).0, false, s)
        });
        assert_eq!(node.proposal(Time::ZERO), NOOP);
    }

    /// One arrival timer per drawn head, none per commit while the head
    /// is still in the future; when it fires the last commit is repeated
    /// with the new `next` — unless a commit of that tick carried it, or
    /// there is no commit yet to repeat. The commits around it have no
    /// news of their own and send nothing.
    #[test]
    fn the_arrival_timer_is_armed_once_per_head_and_announces_once() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let client = open_queues(4, 4).remove(1);
        let (head, due) = head_of(&client);
        let mut node = byz_rsm_node(&assign, client);
        let started = actions_of(&mut node, 0, |n, s| n.on_start(s));
        assert_eq!(timers_in(&started, ARRIVAL_TAG), [due]);
        let fired = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert!(commits_in(&fired).is_empty(), "nothing committed to repeat");

        let committed = actions_of(&mut node, 0, |n, s| n.commit(7, false, s));
        assert!(timers_in(&committed, ARRIVAL_TAG).is_empty(), "same head");
        assert!(commits_in(&committed).is_empty(), "and not due: no news");
        let fired = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert_eq!(commits_in(&fired), [(0, 7, head)]);
        let again = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert!(commits_in(&again).is_empty(), "already announced");

        // Its commit draws the next head, due later: one new timer, and
        // nothing to say until it fires.
        let committed = actions_of(&mut node, due, |n, s| n.commit(head, false, s));
        let (second, second_due) = head_of(node.client());
        assert!(commits_in(&committed).is_empty());
        assert_eq!(timers_in(&committed, ARRIVAL_TAG), [second_due - due]);
        // A commit at the arrival tick carries it; the timer adds nothing.
        let committed = actions_of(&mut node, second_due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&committed), [(2, NOOP, second)]);
        let fired = actions_of(&mut node, second_due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert!(commits_in(&fired).is_empty());
    }

    /// The ring, and with it the answer throttle, stays
    /// `MAX_COMMIT_AHEAD` entries long however many heights commit: a
    /// commit opens its height's throttle whether it was broadcast (the
    /// first here carries the client's head, the rest have no news) or
    /// not, and all older heights share one slot, answered with a state
    /// transfer: the whole state in parts, or nothing.
    #[test]
    fn answer_throttle_is_bounded_and_starts_at_the_commit() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        let cap = MAX_COMMIT_AHEAD;
        let interval = ANSWER_INTERVAL.ticks();
        for h in 0..3 * cap {
            let sent = commits_sent(&mut node, 100, |n, s| n.commit(h, false, s));
            assert_eq!(sent, usize::from(h == 0), "height {h}");
        }
        assert_eq!(node.ring.len() as u64, cap);

        let answers = |node: &mut ByzLog, at, h| commits_sent(node, at, |n, s| n.answer_past(h, s));
        let (recent, late) = (3 * cap - 1, 100 + interval);
        assert_eq!(
            answers(&mut node, late - 1, recent),
            0,
            "the silent commit answered"
        );
        assert_eq!(answers(&mut node, late, recent), 1);
        assert_eq!(answers(&mut node, late, recent), 0);
        // Heights below the ring share one slot.
        let parts = parts_of(4, cap - 1);
        let state =
            |node: &mut ByzLog, at, h| parts_in(&actions_of(node, at, |n, s| n.answer_past(h, s)));
        let marks: Vec<_> = (state(&mut node, late, 3).iter())
            .map(|msg| match *msg {
                RsmMsg::Commit { state, .. } => state,
                RsmMsg::Inner { .. } => None,
            })
            .collect();
        let count = parts as u16;
        let whole: Vec<_> = (0..count)
            .map(|index| Some(StatePart { index, count }))
            .collect();
        assert_eq!(marks, whole, "every part once, in order");
        assert_eq!(answers(&mut node, late, 5), 0);
        assert_eq!(state(&mut node, late + interval, 5).len(), parts);
        assert_eq!(node.ring.len() as u64, cap);
    }

    /// A replica that stays at one height repeats its last commit from
    /// the status timer: first once a whole period has passed at that
    /// height, then at doubling gaps up to `ANSWER_INTERVAL ×
    /// MAX_COMMIT_AHEAD`; a commit takes the chain back to its base
    /// period. At height 0 there is nothing to repeat and the chain does
    /// not back off.
    #[test]
    fn a_stalled_replica_repeats_its_last_commit_on_a_doubling_schedule() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let base = ANSWER_INTERVAL.ticks();
        let cap = base * MAX_COMMIT_AHEAD;
        let started = actions_of(&mut node, 0, |n, s| n.on_start(s));
        assert_eq!(timers_in(&started, STATUS_TAG), [base]);
        // What the status timer sends and the gap it re-arms with.
        let fire = |node: &mut ByzLog, at| {
            let fired = actions_of(node, at, |n, s| n.on_timer(STATUS_TAG, s));
            (commits_in(&fired), timers_in(&fired, STATUS_TAG))
        };
        for at in [base, 2 * base] {
            assert_eq!(fire(&mut node, at), (vec![], vec![base]), "height 0");
        }
        actions_of(&mut node, 2 * base + 1, |n, s| n.commit(7, false, s));
        let mut at = 3 * base;
        assert_eq!(fire(&mut node, at), (vec![], vec![base]), "it moved");
        let mut gap = base;
        while gap < cap {
            at += gap;
            gap *= 2;
            assert_eq!(fire(&mut node, at), (vec![(0, 7, NOOP)], vec![gap]));
        }
        assert_eq!(fire(&mut node, at + cap), (vec![(0, 7, NOOP)], vec![cap]));
        actions_of(&mut node, at + cap + 1, |n, s| n.commit(8, false, s));
        assert_eq!(fire(&mut node, at + 2 * cap), (vec![], vec![base]));
        assert_eq!(
            fire(&mut node, at + 2 * cap + base),
            (vec![(1, 8, NOOP)], vec![2 * base])
        );
    }

    /// A `Commit` whose sender is two or more heights back asks for the
    /// entry after it and draws exactly one answer per
    /// `ANSWER_INTERVAL`; one from a replica at this height asks nothing,
    /// and a forged height with no successor panics nobody.
    #[test]
    fn a_commit_from_behind_draws_one_throttled_answer() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let interval = ANSWER_INTERVAL.ticks();
        for h in 0..4 {
            actions_of(&mut node, 0, |n, s| n.commit(10 + h, false, s));
        }
        let status = |height| RsmMsg::Commit {
            height,
            value: height.wrapping_add(10),
            id: assign.id_of(1),
            next: NOOP,
            state: None,
        };
        let answers = |node: &mut ByzLog, at, height| {
            commits_in(&actions_of(node, at, |n, s| {
                n.on_message(status(height), s)
            }))
        };
        assert_eq!(answers(&mut node, interval, 1), [(2, 12, NOOP)]);
        assert_eq!(answers(&mut node, interval, 1), [], "throttled");
        assert_eq!(answers(&mut node, 2 * interval - 1, 1), []);
        assert_eq!(answers(&mut node, 2 * interval, 1), [(2, 12, NOOP)]);
        assert_eq!(answers(&mut node, interval, 2), [(3, 13, NOOP)]);
        assert_eq!(answers(&mut node, interval, 3), [], "same height");
        assert_eq!(answers(&mut node, interval, 4), [], "ahead: tallied");
        assert_eq!(answers(&mut node, interval, u64::MAX), []);
        assert_eq!(answers(&mut node, interval, u64::MAX - 1), []);
        assert_eq!(short_log(&node), [10, 11, 12, 13]);
    }

    /// A replica stalled at height 0 has no commit to repeat and cannot
    /// ask for itself. What rescues it is its peers' own stall: replicas
    /// that committed height 0 and then sit at height 1 for a status
    /// period repeat `Commit { 0, … }`, `commit_quorum` of which certify
    /// height 0 for it — after which it says so at once and, should it
    /// stall again, has something to repeat.
    #[test]
    fn a_replica_stalled_at_height_0_is_rescued_by_its_peers_statuses() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let idle = || byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let base = ANSWER_INTERVAL.ticks();
        let mut straggler = idle();
        actions_of(&mut straggler, 0, |n, s| n.on_start(s));
        for at in [base, 2 * base] {
            let fired = actions_of(&mut straggler, at, |n, s| n.on_timer(STATUS_TAG, s));
            assert!(commits_in(&fired).is_empty(), "nothing to repeat");
        }
        // Two peers commit height 0 silently (no news) and stall.
        let mut statuses = Vec::new();
        for _ in 0..idle().opts.commit_quorum {
            let mut peer = idle();
            actions_of(&mut peer, 0, |n, s| n.on_start(s));
            let committed = actions_of(&mut peer, 3, |n, s| n.commit(7, false, s));
            assert!(commits_in(&committed).is_empty());
            let moved = actions_of(&mut peer, base, |n, s| n.on_timer(STATUS_TAG, s));
            assert!(commits_in(&moved).is_empty(), "it left height 0");
            statuses.extend(actions_of(&mut peer, 2 * base, |n, s| {
                n.on_timer(STATUS_TAG, s);
            }));
        }
        assert_eq!(commits_in(&statuses), [(0, 7, NOOP); 2]);
        let mut said = Vec::new();
        for status in statuses {
            if let Action::Broadcast(msg) = status {
                said.extend(actions_of(&mut straggler, 2 * base + 1, |n, s| {
                    n.on_message(msg, s);
                }));
            }
        }
        assert_eq!(short_log(&straggler), [7]);
        assert_eq!(commits_in(&said), [(0, 7, NOOP)], "adopted: it says so");
        // From here on it can ask for itself.
        let fire =
            |n: &mut ByzLog, at| commits_in(&actions_of(n, at, |n, s| n.on_timer(STATUS_TAG, s)));
        assert_eq!(fire(&mut straggler, 3 * base), [], "it moved");
        assert_eq!(fire(&mut straggler, 4 * base), [(0, 7, NOOP)]);
    }

    /// A replica that fell further behind than the ring asks as always
    /// and is answered with a state transfer. It catches up through one
    /// adopted state — `commit_quorum` matching copies of every part under
    /// the label caps, adopted on the last part in: it moves to the
    /// senders' height, publishes the heights of the tail it did not have
    /// and no others, takes their fingerprint, and retires the commands of
    /// its own client the skipped heights committed. A forged minority
    /// state is not adopted, and neither is a state one part short, one
    /// below its height or one with no successor height.
    #[test]
    fn a_replica_below_the_ring_catches_up_through_one_state() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let client = WorkloadConfig::default().queues(4).remove(2);
        let idle = || byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let (cap, base) = (MAX_COMMIT_AHEAD, ANSWER_INTERVAL);
        // Three rings' worth of heights: the laggard's client's commands
        // at every tenth, no-ops between.
        let mut issued = client.clone();
        let log: Vec<u64> = (0..3 * cap)
            .map(|h| match h % 10 {
                3 => {
                    let cmd = issued.proposal(Time::ZERO);
                    issued.on_commit(cmd);
                    cmd
                }
                _ => NOOP,
            })
            .collect();
        let ahead = || {
            let mut node = idle();
            for &value in &log {
                actions_of(&mut node, 0, |n, s| n.commit(value, false, s));
            }
            node
        };

        // It committed five heights, then heard nothing; its status chain
        // asks at the second firing.
        let mut laggard = byz_rsm_node(&assign, client);
        actions_of(&mut laggard, 0, |n, s| n.on_start(s));
        for &value in &log[..5] {
            actions_of(&mut laggard, 0, |n, s| n.commit(value, false, s));
        }
        let t = base.ticks();
        actions_of(&mut laggard, t, |n, s| n.on_timer(STATUS_TAG, s));
        let asked = actions_of(&mut laggard, 2 * t, |n, s| n.on_timer(STATUS_TAG, s));
        let [Action::Broadcast(status)] = &asked[..1] else {
            panic!("no status: {asked:?}");
        };
        // Carriers of both labels are three rings ahead: each answers
        // height 5 with its state, in parts.
        let states: Vec<_> = [assign.id_of(0), assign.id_of(1)]
            .into_iter()
            .map(|label| {
                parts_in(&actions_as(label, &mut ahead(), 2 * t, |n, s| {
                    n.on_message(*status, s);
                }))
            })
            .collect();
        let parts = parts_of(4, cap - 1);
        let lens: Vec<_> = states.iter().map(Vec::len).collect();
        assert_eq!(lens, [parts, parts], "one state per answerer");

        let mut feed = |msgs: &[_]| {
            let each = |&msg| actions_of(&mut laggard, 2 * t + 1, |n, s| n.on_message(msg, s));
            msgs.iter().flat_map(each).collect::<Vec<_>>()
        };
        let forged: Vec<_> = (states[0].iter())
            .map(|part| ByzLog::mutate_payload(part, 7).expect("a part is forgeable"))
            .collect();
        assert_eq!(published_in(&feed(&forged)), [], "a forged state");
        assert_eq!(published_in(&feed(&states[0])), [], "one copy of two");
        let short = feed(&states[1][..parts - 1]);
        assert_eq!(published_in(&short), [], "one part short");
        let adopted = feed(&states[1][parts - 1..]);
        let tail = (2 * cap..3 * cap).map(|h| LogEntry {
            height: h,
            value: log[h as usize],
        });
        assert_eq!(published_in(&adopted), tail.collect::<Vec<_>>());
        assert_eq!(
            commits_in(&adopted)[..1],
            [(3 * cap - 1, NOOP, issued.proposal(Time::ZERO))]
        );
        assert_eq!(published_in(&feed(&states[1])), [], "old news now");
        // A height with no successor is nobody's state, whoever sends
        // every part of it.
        let count = parts_of(4, 0) as u16;
        for label in [assign.id_of(0), assign.id_of(1)] {
            let absurd: Vec<_> = (0..count)
                .map(|index| RsmMsg::Commit {
                    height: u64::MAX,
                    value: u64::from(index),
                    id: label,
                    next: NOOP,
                    state: Some(StatePart { index, count }),
                })
                .collect();
            assert_eq!(published_in(&feed(&absurd)), []);
        }
        assert_eq!(laggard.height(), 3 * cap);
        assert_eq!(laggard.state_hash(), ahead().state_hash());
        assert_eq!(laggard.client(), &issued, "its own commands retired");
        assert_eq!(laggard.retained(), cap as usize);
    }

    /// What fresh engines say when they start — the round-0
    /// coordinators' opening — as sent and as a corrupt homonym would
    /// forge it. None of it can make a height decide (that takes votes),
    /// so whatever a replica fed these commits, it adopted from
    /// `Commit`s.
    fn engine_openings(assign: &IdentityAssignment) -> Vec<<ByzQuorumConsensus as Process>::Msg> {
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

    /// Copies delivered per label, capped at the label's multiplicity.
    type Delivered<K> = BTreeMap<K, BTreeMap<Identity, usize>>;

    /// `(index, count, word)` of a part of one of three states of n = 8
    /// with one value of tail — seven words, word `i` of state `state`
    /// being `10 × state + i` — as sent, or forged as `how` picks: an
    /// index past the count, a count no state of n = 8 and a `ring`-long
    /// ring has (no room for the table, a tail as long as the ring, the
    /// largest), or the word of the next index.
    fn hostile_part(state: u64, how: u64, ring: u64) -> (u16, u16, u64) {
        let count = parts_of(8, 1) as u16;
        let word = |i: u16| 10 * state + u64::from(i);
        let index = (how / 4 % u64::from(count)) as u16;
        match how % 4 {
            0 => (index, count, word(index)),
            1 => (index + count, count, word(index)),
            2 => {
                let wrong = [count - 2, parts_of(8, ring) as u16, u16::MAX];
                (index, wrong[(how / 32 % 3) as usize], word(index))
            }
            _ => (index, count, word(index + 1)),
        }
    }

    /// Whether `parts` delivered `quorum` copies of every word of a state
    /// of n = 8 that a `ring`-long ring can send and that puts `value` at
    /// `height`.
    fn certified_by_parts(
        parts: &Delivered<(u64, u16, u16, u64)>,
        (quorum, ring): (usize, u64),
        (height, value): (u64, u64),
    ) -> bool {
        let head = parts_of(8, 0);
        let claims: std::collections::BTreeSet<_> =
            parts.keys().map(|&(at, count, ..)| (at, count)).collect();
        claims.into_iter().any(|(at, count)| {
            let tail = usize::from(count).saturating_sub(head) as u64;
            if usize::from(count) < head || tail >= ring || tail > at || at == u64::MAX {
                return false;
            }
            let word = |i| {
                let copies = parts.range((at, count, i, 0)..=(at, count, i, u64::MAX));
                let mut quorate =
                    copies.filter(|(_, labels)| labels.values().sum::<usize>() >= quorum);
                quorate.next().map(|(&(.., word), _)| word)
            };
            let Some(words) = (0..count).map(word).collect::<Option<Vec<_>>>() else {
                return false;
            };
            let values = words[head..].iter().chain(&words[..1]);
            (at - tail..=at)
                .zip(values)
                .any(|(h, &v)| (h, v) == (height, value))
        })
    }

    proptest::proptest! {
        /// Whatever `Commit`s, parts of state transfers and height-tagged
        /// engine envelopes reach a replica — heights at, around and
        /// absurdly far from its own, labels nobody carries, any `next`,
        /// parts past their count, under a count no state has, or carrying
        /// another index's word — it never panics, it commits a value only
        /// once `commit_quorum` copies of it, or of every part of a state
        /// that holds it, under the label caps were delivered, and it
        /// broadcasts a `Commit` about any one height — and a state
        /// transfer, all its parts — at most once per `ANSWER_INTERVAL`:
        /// the amplification a sender of stale statuses can buy.
        #[test]
        fn hostile_heights_neither_panic_nor_certify_nor_amplify(
            steps in proptest::collection::vec(
                (0u8..3, 0u8..10, 0u64..3, 0u64..6,
                 proptest::prelude::any::<u64>(), 0u64..4),
                0..600usize,
            ),
        ) {
            // Two carriers per label, three copies to certify: one label
            // alone must never do.
            let assign = IdentityAssignment::round_robin(8, 4);
            let pool = engine_openings(&assign);
            let mut node = byz_rsm_node(&assign, open_queues(8, 0).remove(0));
            let (quorum, ahead) = (node.opts.commit_quorum, MAX_COMMIT_AHEAD);
            let interval = ANSWER_INTERVAL.ticks();
            actions_of(&mut node, 0, |n, s| n.on_start(s));
            // (height, value) → label → copies delivered, capped.
            let mut delivered: Delivered<(u64, u64)> = BTreeMap::new();
            // The same for parts: (height, count, index, word).
            let mut parts: Delivered<(u64, u16, u16, u64)> = BTreeMap::new();
            // height → tick of the last plain `Commit` broadcast about it
            // (`None`: of the last state transfer).
            let mut said: BTreeMap<Option<u64>, u64> = BTreeMap::new();
            let mut now = 0;
            for (kind, pick, value, label, next, dt) in steps {
                now += dt;
                let at = node.height();
                let height = match pick {
                    // Parts aim where a state can certify: just above
                    // the replica.
                    0..=3 if kind == 2 => at + 1,
                    0..=3 => u64::from(pick),
                    4 => at,
                    5 => at + 1,
                    6 => at.saturating_sub(2),
                    7 => at + ahead,
                    8 => u64::MAX - 1,
                    _ => u64::MAX,
                };
                let id = Identity::new(label);
                let cap = assign.multiplicity(id);
                let deliver = |labels: &mut BTreeMap<Identity, usize>| {
                    let copies = labels.entry(id).or_insert(0);
                    *copies = (*copies + 1).min(cap);
                };
                let msg = match kind {
                    0 => {
                        let msg = pool[(next % pool.len() as u64) as usize];
                        RsmMsg::Inner { height, msg }
                    }
                    1 => {
                        deliver(delivered.entry((height, value)).or_default());
                        RsmMsg::Commit { height, value, id, next, state: None }
                    }
                    _ => {
                        let (index, count, word) = hostile_part(value, next, ahead);
                        deliver(parts.entry((height, count, index, word)).or_default());
                        let state = Some(StatePart { index, count });
                        RsmMsg::Commit { height, value: word, id, next, state }
                    }
                };
                let actions = actions_of(&mut node, now, |n, s| n.on_message(msg, s));
                for LogEntry { height: h, value: v } in published_in(&actions) {
                    let copies: usize = delivered
                        .get(&(h, v))
                        .map_or(0, |labels| labels.values().sum());
                    let by_parts = certified_by_parts(&parts, (quorum, ahead), (h, v));
                    proptest::prop_assert!(copies >= quorum || by_parts, "height {h} on {copies} copies");
                }
                for action in &actions {
                    if let Action::Broadcast(RsmMsg::Commit { height: h, state, .. }) = action {
                        // The parts of one state are one answer.
                        if state.is_some_and(|part| part.index > 0) {
                            continue;
                        }
                        let slot = state.is_none().then_some(*h);
                        if let Some(last) = said.insert(slot, now) {
                            proptest::prop_assert!(now >= last + interval, "{slot:?}: {last}, {now}");
                        }
                    }
                }
            }
        }
    }

    /// A label nobody carries certifies nothing and leaves nothing
    /// behind: not a tally per forged `(height, value)` in the window
    /// above the replica, not a claim or a word per forged part.
    #[test]
    fn unknown_labels_are_rejected() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        node.opts.commit_quorum = 1;
        let forged = Identity::new(9_999);
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(forged, Time::ZERO, &mut actions);
        let kept = node.retained();
        let count = parts_of(4, 1) as u16;
        for height in 0..MAX_COMMIT_AHEAD {
            for value in [13, height, u64::MAX - height] {
                node.tally_commit(height, value, forged, &mut sink);
                let part = StatePart {
                    index: (value % u64::from(count)) as u16,
                    count,
                };
                node.tally_part(height + 1, value, part, forged, &mut sink);
            }
        }
        node.drain_certified(&mut sink);
        assert_eq!(node.height(), 0, "forged label must not certify");
        assert_eq!(node.retained(), kept, "forged label left an entry");
    }
}
