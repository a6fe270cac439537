//! Byzantine-tolerant consensus from HΣ-style quorum certificates in
//! `HAS[n > 3f]`.
//!
//! PR 5's adversary proved that every crash-model stack in this crate is
//! felled by a *hidden equivocator*: one corrupt process hiding among
//! honest homonyms forges estimates in its outgoing copies and the
//! first-value-wins windows swallow them. This module is the defense
//! half: a round-based consensus algorithm whose every step is gated on
//! an explicit quorum certificate sized `> (n + f) / 2`, the Byzantine
//! generalization of the paper's HΣ quorum intersection (two such quorums
//! intersect in at least `f + 1` processes, hence in at least one that is
//! correct — the same argument Malachite/Tendermint-style `< n/3` rules
//! rest on).
//!
//! ## Design tolerance vs. scenario fault count
//!
//! The algorithm fixes its tolerance at construction: `f = ⌊(n−1)/3⌋`,
//! the largest value with `n > 3f`. Thresholds derive from it:
//!
//! * `quorum  = (n + f)/2 + 1` — certificate size; any two intersect in
//!   ≥ `f + 1` members, so in ≥ 1 honest copy.
//! * `wait    = n − f`         — copies to await before giving up on a
//!   phase (more could never arrive if `f` processes stay silent).
//! * `affirm  = f + 1`         — copies that guarantee ≥ 1 honest source.
//!
//! A sweep scenario's *actual* corrupt count may be anything from `0`
//! (the crash families, which this stack must still decide) up to past
//! the bound; the claim the harness asserts is exactly "this stack
//! tolerates any `f' ≤ ⌊(n−1)/3⌋`", and the over-threshold family
//! demonstrates the bound is tight.
//!
//! ## The round: coordinate → vote → commit
//!
//! A round opens with a **coordination step**, the paper's Leaders'
//! Coordination Phase (Figure 8): the carriers of the round's
//! *coordinator label* (rotating over the distinct labels, the
//! homonymous stand-in for a rotating proposer — a whole label class
//! coordinates, and the rotation reads no detector output, which a
//! Byzantine scenario could corrupt) broadcast
//! `COORD(id, r, est, locked)`. An unlocked process withholds its vote
//! until it has admitted as many `COORD` copies as the label has live
//! carriers — its multiplicity, less the carriers a stacked `◇HP` has
//! seen go (see below) — or `phase_grace` has passed, and then adopts
//! the smallest locked estimate among them, else the smallest estimate
//! (its own if it admitted none). A locked process — every decided one is — votes at
//! once: its estimate is not up for adoption. In a clean round every
//! process therefore votes one value and the round decides in three
//! message delays.
//!
//! In the **vote** phase everyone broadcasts `VOTE(id, r, est, locked)`;
//! a value backed by `quorum` admitted copies becomes the process's
//! *commit candidate* and is **locked** (see below). In the **commit**
//! phase everyone broadcasts its candidate (possibly `⊥`); `quorum`
//! matching non-⊥ commits decide the value, `affirm` matching commits
//! are an adoption certificate (≥ 1 honest process saw a vote quorum),
//! and failing both an unlocked process falls back to what the
//! coordinator label *voted* in the round — the same pick, read off the
//! vote window, for the round whose `COORD`s were lost or late.
//!
//! **Why coordination cannot hurt agreement.** It only changes what an
//! *unlocked* process votes, and nothing ever constrained that: a
//! process without a lock may vote any value. The agreement argument
//! rests on locks and on `2·quorum > n + f` (below), and the step
//! touches neither. **What a faulty coordinator costs.** A crashed or
//! silent carrier leaves the label one `COORD` short, so unlocked
//! processes vote one `phase_grace` later, with whatever they admitted —
//! until `◇HP` sees the carrier go, and from then on no later than the
//! other carriers' `COORD`s.
//! An equivocating carrier can split the estimates the unlocked
//! processes adopt; the round then runs exactly as an uncoordinated one
//! (no vote quorum, `⊥` commits, next label's turn). Either way the
//! price is bounded by one grace per round, and a `COORD` under any
//! other label, or beyond the label's multiplicity, is shed like every
//! other super-cap copy.
//!
//! **Round skip.** No process here retransmits, so one that lost copies
//! of a round — a dropped `VOTE` below `wait`, say — would sit in that
//! round forever while the rest move on, and with enough of them
//! stranded in different rounds no phase anywhere reaches `wait` again.
//! Tendermint's rule closes this: `affirm` admitted `VOTE` or `COMMIT`
//! copies of a later round prove an honest process is already there, and
//! the receiver enters that round directly (the latest such one). Locks
//! travel with it unchanged, so the skip is as safe as finishing the
//! round empty-handed.
//!
//! Every window admits payloads through the
//! [`WindowLedger`] half of the crate-wide
//! conflicting-payload policy: at most `multiplicity(label)` copies per
//! label per phase, everything beyond the cap detected and discarded. The
//! cap bounds a *label*, not a sender: a receiver cannot tell a
//! namesake's copy from a repeat, so one corrupt carrier that sends a
//! broadcast `multiplicity(label)` times fills every slot of its label.
//! The simulated adversary never does this — it rewrites or suppresses
//! the one copy per receiver its source was about to send — so the
//! sweep checks the stack against that weaker adversary only.
//!
//! ## The `COORD` wait reads `◇HP`, for liveness only
//!
//! Figure 8 waits for the `HΩ` leader label *and its multiplicity*, the
//! number of live carriers: that count is why `HΩ` and `◇HP` exist in a
//! homonymous system. Stacked on a `◇HP` detector, this engine consumes
//! its bag ([`TrustedCarriers`]) and keeps, per label, the most carriers
//! the detector ever trusted at once (`seen`, capped at the label's
//! multiplicity) beside the current count (`trusted`); both survive
//! [`ByzQuorumConsensus::restart`], so a log's later heights start warm.
//! An unlocked process then waits for
//! `max(1, multiplicity − (seen − trusted))` `COORD`s.
//!
//! * Only carriers *seen to go* lower the wait. A detector still warming
//!   up trusts fewer carriers than exist without any having gone, and
//!   `min(multiplicity, trusted)` would cut the wait short then; on a
//!   fault-free run `seen − trusted` stays zero and the engine behaves as
//!   if it read nothing.
//! * The wait never falls below one `COORD`. A replica cut off for a
//!   while trusts nobody when the partition heals; voting its own
//!   estimate without a single `COORD` splits the round it rejoins.
//! * No label is skipped: the rotation is the same at every process
//!   whatever its detector says.
//!
//! This is Lynch & Sastry's discipline: a detector's output may decide
//! how long a process waits, never what is safe. Quorums, `wait`,
//! `affirm`, the ledgers and their admission caps read nothing new, so
//! a lying detector — a forged `P_REPLY` in the bag, a carrier wrongly
//! suspected — costs at most a round whose unlocked voters adopted from
//! fewer `COORD`s, which an uncoordinated round already tolerates.
//!
//! ## Timed waits: a deadline, not a period
//!
//! Every guard of a round is a function of the admitted copies and of
//! one clock reading — whether the current phase's `phase_grace` has run
//! out — and is re-evaluated on every delivery. So the process never
//! polls. Only two waits can end with no message arriving: an unlocked
//! process's wait for the coordinator label (fewer `COORD`s than it
//! awaits), and a vote or commit window holding `wait` copies but no
//! quorum. Where a guard is found blocked by nothing but that clock, the
//! process arms one one-shot timer for the remainder of the grace — at
//! most once per `(round, phase)` — and the timer's firing is one more
//! evaluation, nothing else. A clean round arms exactly one (the
//! coordinators' grace, which their `COORD`s then cut short); a wait
//! short of `wait` copies arms none, since only a message can end it.
//! Leaving a timed wait cancels its timer, whose instant is the phase's
//! `phase_entered + phase_grace`, so no timer fires for a wait that
//! messages ended: in a clean run none fires at all. A wait left in the
//! tick it was entered hands its timer to the next one instead, which
//! would time out at the same instant — the firing keeps its place among
//! the events of its tick. A host that ends the instance without it
//! leaving its wait (the log service, on a height adopted from a
//! certificate) [closes](ByzQuorumConsensus::close) it.
//!
//! ## Locking and lock release
//!
//! Observing a vote quorum for `v` locks `v`. A decision for `v` implies
//! `quorum` commit copies, of which ≥ `quorum − f` are honest, and every
//! honest `COMMIT(v)` sender locked `v`; since
//! `2·quorum > n + f`, any later vote quorum for `w ≠ v` would need more
//! honest unlocked voters than exist. Locks therefore protect decisions
//! unconditionally. A lock is released only by `affirm`-sized evidence —
//! a commit certificate for another value, or `affirm` *locked* votes for
//! another value in a later round than the lock (both guarantee an honest
//! vouching process, and the counting argument above shows such evidence
//! can never exist against a decided value). Release by weaker evidence
//! would let a single forged "locked" vote unseat a real lock; release by
//! nothing at all can deadlock two minority lock camps forever.
//!
//! ## Echo-certified DECIDE
//!
//! The crash stacks' Task T2 relays and trusts a bare `DECIDE` — the
//! single most profitable forgery target (one forged message, one victim,
//! agreement and validity both broken). Here a `DECIDE(id, v)` is *never*
//! acted on alone: copies accumulate in a label-capped ledger and only
//! `affirm` matching copies — hence at least one from an honest process
//! that genuinely decided — form a decision certificate. A process that
//! decides (either way) broadcasts its own `DECIDE` echo, so certificates
//! amplify Bracha-style — it records the decision *first*, so that a
//! host with no use for the echo (the log service, whose `Commit` is the
//! same certificate) can drop everything past the decision — and then
//! **keeps participating in rounds**
//! instead of halting: halting would shrink the live population below
//! `wait` and strand any straggler whose certificate copies were dropped,
//! while the sweep's run goal already ends the simulation once every
//! correct process has decided.
//!
//! ## What "tolerant" promises — and what it cannot
//!
//! Agreement and termination hold for every fault mix within the design
//! tolerance, and validity holds in crash-only runs. Full paper validity
//! ("decided ⇒ someone proposed it") is **provably unattainable** against
//! an unsigned equivocator — see
//! [`check_byzantine_consensus`](homonym_core::properties::check_byzantine_consensus)
//! for the indistinguishability argument — which is exactly why the
//! property layer checks this stack against BFT validity rather than
//! crash validity.

use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::multiset::Multiset;
use homonym_core::query::{Consumes, TrustedCarriers};
use homonym_core::time::{Span, Time};
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::ObsKind;

use crate::conflict::WindowLedger;
use crate::round_window::{RoundRing, Window};

/// The guard deadline timer: armed once per timed wait (see "Timed
/// waits" in the module docs), never periodically.
const DEADLINE: TimerTag = TimerTag(0);

/// Protocol messages of the Byzantine-tolerant quorum stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzMsg {
    /// `COORD(id, r, est, locked)` — a carrier of round `r`'s
    /// coordinator label announcing the estimate it enters the round
    /// with (the Leaders' Coordination step).
    Coord {
        /// Sender's identifier (admitted only under the round's
        /// coordinator label, capped at its multiplicity).
        id: Identity,
        /// Sender's round.
        round: u64,
        /// Sender's estimate on entering the round.
        est: u64,
        /// Whether the sender is locked on `est` (a claim, as on votes).
        locked: bool,
    },
    /// `VOTE(id, r, est, locked)` — the sender's round-`r` estimate,
    /// flagged when the sender holds a lock on it.
    Vote {
        /// Sender's identifier (admission is label-capped on it).
        id: Identity,
        /// Sender's round.
        round: u64,
        /// Sender's current estimate.
        est: u64,
        /// Whether the sender is locked on `est` (a *claim*; only
        /// `affirm`-sized agreement on it is ever acted on).
        locked: bool,
    },
    /// `COMMIT(id, r, val)` — the sender's commit candidate; `None`
    /// encodes `⊥` (no vote quorum observed).
    Commit {
        /// Sender's identifier.
        id: Identity,
        /// Sender's round.
        round: u64,
        /// The quorum-certified candidate, if any.
        val: Option<u64>,
    },
    /// `DECIDE(id, v)` — one echo of a decision; `affirm` matching
    /// copies form a decision certificate.
    Decide {
        /// Sender's identifier.
        id: Identity,
        /// The decided value.
        value: u64,
    },
}

/// Returns a static class name for a message, for metrics classifiers.
#[must_use]
pub fn classify_byz(msg: &ByzMsg) -> &'static str {
    match msg {
        ByzMsg::Coord { .. } => "COORD",
        ByzMsg::Vote { .. } => "VOTE",
        ByzMsg::Commit { .. } => "COMMIT",
        ByzMsg::Decide { .. } => "DECIDE",
    }
}

/// The Byzantine payload mutation of a tolerant-stack message (the
/// `Process::mutate_payload` hook): the same attack surface the crash
/// stacks face. Estimates and decision values are shifted by a small
/// entropy-derived delta while identifiers and round numbers stay intact
/// (the forgery hides among the sender's honest homonyms); a `⊥` commit
/// is forged into a phantom certificate claim, and the `locked` flag is
/// re-rolled so forged votes and coordinator proposals can also claim
/// (or disclaim) locks. The
/// tolerant stack must shed all of this through its certificates. The
/// mutation keeps `id` and `round`, and the engine applies it to the one
/// copy per receiver the sender's honest code broadcasts: it never sends
/// an extra copy, nor names a round ahead of its sender's.
#[must_use]
pub fn mutate_byz_msg(msg: &ByzMsg, entropy: u64) -> ByzMsg {
    let delta = 1 + entropy % 7;
    match *msg {
        ByzMsg::Coord { id, round, est, .. } => ByzMsg::Coord {
            id,
            round,
            est: est.wrapping_add(delta),
            locked: entropy.is_multiple_of(2),
        },
        ByzMsg::Vote { id, round, est, .. } => ByzMsg::Vote {
            id,
            round,
            est: est.wrapping_add(delta),
            locked: entropy.is_multiple_of(2),
        },
        ByzMsg::Commit { id, round, val } => ByzMsg::Commit {
            id,
            round,
            val: Some(val.map_or(delta, |v| v.wrapping_add(delta))),
        },
        ByzMsg::Decide { id, value } => ByzMsg::Decide {
            id,
            value: value.wrapping_add(delta),
        },
    }
}

/// One round's label-capped message windows.
#[derive(Debug, Default, Clone)]
struct ByzWindow {
    /// Coordination-step admission ledger: only the round's coordinator
    /// label is ever admitted, up to its multiplicity.
    coord_ledger: WindowLedger,
    /// Admitted `COORD` proposals, `(est, locked)` in arrival order (read
    /// through [`coordinator_pick`] only).
    coords: Vec<(u64, bool)>,
    /// Vote-phase admission ledger.
    vote_ledger: WindowLedger,
    /// Admitted vote estimates.
    votes: Multiset<u64>,
    /// Admitted vote estimates whose sender claimed a lock.
    locked_votes: Multiset<u64>,
    /// Admitted votes carried under this round's coordinator label:
    /// `(est, locked)` in arrival order (read through
    /// [`coordinator_pick`] only).
    coord_votes: Vec<(u64, bool)>,
    /// Commit-phase admission ledger.
    commit_ledger: WindowLedger,
    /// Admitted non-⊥ commit candidates.
    commits: Multiset<u64>,
    /// Admitted ⊥ commits.
    commit_bottoms: usize,
}

impl Window for ByzWindow {
    fn reset(&mut self) {
        self.coord_ledger.reset();
        self.coords.clear();
        self.vote_ledger.reset();
        self.votes.clear();
        self.locked_votes.clear();
        self.coord_votes.clear();
        self.commit_ledger.reset();
        self.commits.clear();
        self.commit_bottoms = 0;
    }
}

/// Admitted copies backing `v` in `counts` (the certificate's size).
fn count_of(counts: &Multiset<u64>, v: u64) -> u32 {
    u32::try_from(counts.multiplicity(&v)).unwrap_or(u32::MAX)
}

/// What a coordinator label's `(est, locked)` claims tell an unlocked
/// process to adopt: the smallest locked estimate, else the smallest
/// estimate. Locked claims take priority (they break the standoff where
/// a lock camp's value never surfaces as a coordinator minimum); among
/// equals the minimum wins, as in the paper's Leaders' Coordination
/// phase. Both aggregates are order-independent, so processes holding
/// the same claims pick the same value.
fn coordinator_pick(claims: &[(u64, bool)]) -> Option<u64> {
    let locked_min = claims.iter().filter(|&&(_, l)| l).map(|&(v, _)| v).min();
    locked_min.or_else(|| claims.iter().map(|&(v, _)| v).min())
}

/// The three phases of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Collecting the coordinator label's `COORD`s before voting.
    Coord,
    /// Collecting `VOTE`s, hunting a vote quorum.
    Vote,
    /// Collecting `COMMIT`s, hunting a decision certificate.
    Commit,
}

/// Byzantine-tolerant quorum consensus (see the module docs).
///
/// `Output` is the round number, published on every round entry, so
/// engine histories expose the round structure exactly like the crash
/// stacks do.
#[derive(Debug, Clone)]
pub struct ByzQuorumConsensus {
    n: usize,
    /// Design tolerance `⌊(n−1)/3⌋` (not the scenario's fault count).
    f: usize,
    /// The full assignment multiset — the degenerate, always-safe HΣ
    /// realization (every quorum drawn from the whole population), used
    /// as the per-label admission cap.
    caps: Multiset<Identity>,
    /// Distinct labels in ascending order; round `r`'s coordinator label
    /// is `labels[r mod labels.len()]`.
    labels: Vec<Identity>,
    est: u64,
    /// `(value, round it was locked in)`.
    lock: Option<(u64, u64)>,
    round: u64,
    phase: Phase,
    /// When the current phase was entered (for the convergence grace).
    phase_entered: Time,
    rounds: RoundRing<ByzWindow>,
    /// Cumulative `DECIDE` echoes, label-capped across the whole run.
    decide_ledger: WindowLedger,
    decide_votes: Multiset<u64>,
    decided: Option<u64>,
    /// Total copies shed by the detect-and-discard policy.
    discarded: u64,
    /// Extra dwell time per phase after the `wait` threshold, so
    /// post-GST processes evaluate near-identical windows instead of
    /// racing ahead on the first `wait` arrivals; also how long an
    /// unlocked process waits for the coordinator label before voting.
    phase_grace: Span,
    /// The `(round, phase)` whose grace deadline has a timer pending —
    /// always the current one, since leaving a wait cancels its timer: a
    /// timed wait arms one, however often its guard is re-evaluated, and
    /// the marker clears when the timer fires or is cancelled.
    armed: Option<(u64, Phase)>,
    /// Per label of the assignment, the most of its carriers a stacked
    /// `◇HP` ever trusted at once (capped at the label's multiplicity).
    /// Read by the `COORD` wait only ("The `COORD` wait reads `◇HP`" in
    /// the module docs).
    seen: Multiset<Identity>,
    /// The `◇HP` bag last handed over.
    trusted: Multiset<Identity>,
}

impl ByzQuorumConsensus {
    /// A tolerant process proposing `proposal` under `assign`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`: Byzantine quorums need `n > 3f` with `f ≥ 1`.
    #[must_use]
    pub fn new(proposal: u64, assign: &IdentityAssignment) -> Self {
        let n = assign.n();
        assert!(
            n >= 4,
            "Byzantine quorums need n > 3f with f >= 1 (n = {n})"
        );
        let caps = assign.multiset();
        let labels: Vec<Identity> = caps.support().copied().collect();
        ByzQuorumConsensus {
            n,
            f: (n - 1) / 3,
            caps,
            labels,
            est: proposal,
            lock: None,
            round: 0,
            phase: Phase::Coord,
            phase_entered: Time::ZERO,
            rounds: RoundRing::new(),
            decide_ledger: WindowLedger::default(),
            decide_votes: Multiset::new(),
            decided: None,
            discarded: 0,
            phase_grace: Span::from_ticks(10),
            armed: None,
            seen: Multiset::new(),
            trusted: Multiset::new(),
        }
    }

    /// Re-arms the process for another instance proposing `proposal`:
    /// from here on it behaves exactly as
    /// [`ByzQuorumConsensus::new`]`(proposal, assign)` with this one's
    /// assignment would, but keeps what does not depend on the
    /// instance — the admission caps, the label rotation, what `◇HP` has
    /// said about the carriers — and the round windows' storage, recycled
    /// into the ring's spare pool. A host that
    /// [`close`](Self::close)s the finished instance first leaves no
    /// deadline timer of it in flight; the log service does, and tags
    /// timers by height besides.
    pub fn restart(&mut self, proposal: u64) {
        self.est = proposal;
        self.lock = None;
        self.round = 0;
        self.phase = Phase::Coord;
        self.phase_entered = Time::ZERO;
        self.rounds.restart();
        self.decide_ledger.reset();
        self.decide_votes.clear();
        self.decided = None;
        self.discarded = 0;
        self.armed = None;
    }

    /// The design tolerance `⌊(n−1)/3⌋`.
    #[must_use]
    pub fn tolerance(&self) -> usize {
        self.f
    }

    /// Certificate size: `(n + f)/2 + 1`.
    #[must_use]
    pub fn quorum(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    /// Copies awaited per phase: `n − f`.
    #[must_use]
    pub fn wait(&self) -> usize {
        self.n - self.f
    }

    /// Certificate size guaranteeing ≥ 1 honest source: `f + 1`.
    #[must_use]
    pub fn affirm(&self) -> usize {
        self.f + 1
    }

    /// The decided value, if any.
    #[must_use]
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// Copies shed so far by the detect-and-discard admission policy.
    #[must_use]
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    fn coord_label(&self, round: u64) -> Identity {
        self.labels[(round % self.labels.len() as u64) as usize]
    }

    /// Whether a label of `rank` (from [`Multiset::rank`] on the caps)
    /// is round `round`'s coordinator label: `labels` is the caps'
    /// support, so a label's rank is its index there.
    fn is_coord(&self, rank: Option<(usize, usize)>, round: u64) -> bool {
        rank.is_some_and(|(i, _)| i as u64 == round % self.labels.len() as u64)
    }

    /// The `COORD`s an unlocked process waits for in a round of `label`:
    /// the label's carriers less those `◇HP` has seen go, never fewer
    /// than one (see "The `COORD` wait reads `◇HP`" in the module docs).
    #[must_use]
    pub fn coords_awaited(&self, label: Identity) -> usize {
        let gone = self.seen.multiplicity(&label);
        let gone = gone.saturating_sub(self.trusted.multiplicity(&label));
        self.caps.multiplicity(&label).saturating_sub(gone).max(1)
    }

    /// The single value holding a quorum in `counts`, if any (two values
    /// can never both reach `quorum`: admitted copies total ≤ n and
    /// `2·quorum > n`).
    fn quorum_value(&self, counts: &Multiset<u64>) -> Option<u64> {
        let q = self.quorum();
        counts.counted().find(|&(_, c)| c >= q).map(|(&v, _)| v)
    }

    /// The strongest `affirm`-certified value in `counts`: highest count
    /// wins, ties break toward the smaller value, so every honest
    /// process ranks identically on identical windows.
    fn affirmed_value(&self, counts: &Multiset<u64>) -> Option<u64> {
        let a = self.affirm();
        counts
            .counted()
            .filter(|&(_, c)| c >= a)
            .max_by_key(|&(&v, c)| (c, core::cmp::Reverse(v)))
            .map(|(&v, _)| v)
    }

    /// Enters `round`: the coordinator label's carriers announce their
    /// estimates; voting follows from [`Self::eval`]'s `Coord` arm.
    fn enter_round(&mut self, round: u64, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        self.rounds.advance_to(round);
        self.move_to(round, Phase::Coord, ctx);
        let r = self.round;
        ctx.observe(|| ObsKind::PhaseEnter {
            round: r,
            phase: "COORD",
        });
        ctx.publish(r);
        if ctx.my_id() == self.coord_label(r) {
            ctx.broadcast(ByzMsg::Coord {
                id: ctx.my_id(),
                round: r,
                est: self.est,
                locked: self.lock.is_some(),
            });
        }
    }

    /// Leaves the current `(round, phase)` for `(round, phase)`. The
    /// deadline timer of the wait being left goes with it: it is
    /// cancelled — unless the wait was entered in this very tick, so that
    /// the new one would time out at the same instant; then the new wait
    /// keeps it as its own, and the timer fires where it always did.
    fn move_to(&mut self, round: u64, phase: Phase, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        let now = ctx.local_now();
        if self.armed.is_some() {
            if self.phase_entered == now {
                self.armed = Some((round, phase));
            } else {
                self.cancel_deadline(ctx);
            }
        }
        self.round = round;
        self.phase = phase;
        self.phase_entered = now;
    }

    /// Cancels the pending deadline timer, if there is one: `armed` names
    /// the current wait while its timer is pending, and nothing once it
    /// fired or was cancelled, so the timer is the one due at the current
    /// phase's `phase_entered + phase_grace`.
    fn cancel_deadline(&mut self, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        if self.armed.take().is_some() {
            ctx.cancel_timer(self.phase_entered + self.phase_grace, DEADLINE);
        }
    }

    /// Ends the instance for a host that will [`restart`](Self::restart)
    /// it: the pending deadline timer, if any, is cancelled, so none fires
    /// after the instance is over.
    pub fn close(&mut self, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        self.cancel_deadline(ctx);
    }

    /// Counts one copy shed by the detect-and-discard admission policy.
    fn shed(&mut self, round: u64, class: &'static str, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        self.discarded += 1;
        ctx.note_discard();
        ctx.observe(|| ObsKind::LedgerDiscard { round, class });
    }

    /// The latest round after the current one that `affirm` admitted
    /// `VOTE` or `COMMIT` copies show at least one honest process to be
    /// in already (the round-skip rule; see the module docs).
    fn round_to_skip_to(&self) -> Option<u64> {
        let a = self.affirm();
        let ahead = self.rounds.resident() as u64;
        (self.round + 1..self.round + ahead).rev().find(|&r| {
            self.rounds
                .get(r)
                .is_some_and(|w| w.vote_ledger.len() >= a || w.commit_ledger.len() >= a)
        })
    }

    /// Delivers a certified decision: decide once, *then* echo the
    /// certificate (a host that sheds what follows the decision — the log
    /// service — thereby sheds the echo too), pin the value, and *keep
    /// participating* (see the module docs for why halting here would
    /// strand stragglers).
    fn deliver_decision(&mut self, v: u64, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(v);
        self.est = v;
        self.lock = Some((v, self.round));
        let r = self.round;
        ctx.observe(|| ObsKind::LockAcquired { round: r, value: v });
        ctx.decide(v);
        ctx.broadcast(ByzMsg::Decide {
            id: ctx.my_id(),
            value: v,
        });
    }

    /// Whether the current phase's grace is still running at `now` — and
    /// if so, makes sure a timer fires when it ends. Called where a guard
    /// is blocked by nothing but the clock: no message need arrive before
    /// the deadline, so the timer is what re-evaluates the guard then.
    /// One timer per `(round, phase)`, however often the guard is asked.
    fn in_grace(&mut self, now: Time, ctx: &mut ActionSink<'_, ByzMsg, u64>) -> bool {
        let deadline = self.phase_entered + self.phase_grace;
        if now >= deadline {
            return false;
        }
        let wait = (self.round, self.phase);
        if self.armed != Some(wait) {
            self.armed = Some(wait);
            ctx.set_timer(deadline - now, DEADLINE);
        }
        true
    }

    /// Re-evaluates the current phase guard; returns whether the process
    /// advanced (so the caller loops until quiescent).
    fn eval(&mut self, ctx: &mut ActionSink<'_, ByzMsg, u64>) -> bool {
        let now = ctx.local_now();
        // A decision certificate is acted on regardless of phase.
        if self.decided.is_none() {
            if let Some(v) = self.affirmed_value(&self.decide_votes) {
                let r = self.round;
                let size = count_of(&self.decide_votes, v);
                let ledger = &self.decide_ledger;
                ctx.observe(|| ObsKind::CertificateFormed {
                    round: r,
                    phase: "DECIDE",
                    size,
                    labels: ledger.occupancy(&self.caps),
                });
                self.deliver_decision(v, ctx);
                return true;
            }
        }
        if let Some(later) = self.round_to_skip_to() {
            self.enter_round(later, ctx);
            return true;
        }
        let r = self.round;
        match self.phase {
            Phase::Coord => {
                // A lock pins the estimate (and a decision pins a lock),
                // so only an unlocked process has anything to learn from
                // the coordinators — and only it waits for them.
                if self.lock.is_none() {
                    let expected = self.coords_awaited(self.coord_label(r));
                    let heard = self.rounds.get(r).map_or(0, |w| w.coord_ledger.len());
                    if heard < expected && self.in_grace(now, ctx) {
                        return false;
                    }
                    let w = self.rounds.get(r);
                    if let Some(v) = w.and_then(|w| coordinator_pick(&w.coords)) {
                        self.est = v;
                    }
                }
                // No exit event for the coordination step: entering the
                // vote phase of the same round closes it for every reader.
                ctx.observe(|| ObsKind::PhaseEnter {
                    round: r,
                    phase: "VOTE",
                });
                self.move_to(r, Phase::Vote, ctx);
                ctx.broadcast(ByzMsg::Vote {
                    id: ctx.my_id(),
                    round: r,
                    est: self.est,
                    locked: self.lock.is_some(),
                });
                true
            }
            Phase::Vote => {
                let Some(w) = self.rounds.get(r) else {
                    return false;
                };
                // A quorum ends the dwell at once (decisive evidence no
                // grace can improve); otherwise the phase needs `wait`
                // admitted copies — short of them only a message can
                // help — *and* the convergence grace to elapse.
                let certified = self.quorum_value(&w.votes);
                if let Some(v) = certified {
                    let size = count_of(&w.votes, v);
                    let ledger = &w.vote_ledger;
                    ctx.observe(|| ObsKind::CertificateFormed {
                        round: r,
                        phase: "VOTE",
                        size,
                        labels: ledger.occupancy(&self.caps),
                    });
                } else if w.votes.len() < self.wait() || self.in_grace(now, ctx) {
                    return false;
                }
                if self.decided.is_none() {
                    if let Some(v) = certified {
                        self.est = v;
                        self.lock = Some((v, r));
                        ctx.observe(|| ObsKind::LockAcquired { round: r, value: v });
                    }
                }
                ctx.broadcast(ByzMsg::Commit {
                    id: ctx.my_id(),
                    round: r,
                    val: certified,
                });
                ctx.observe(|| ObsKind::PhaseExit {
                    round: r,
                    phase: "VOTE",
                });
                ctx.observe(|| ObsKind::PhaseEnter {
                    round: r,
                    phase: "COMMIT",
                });
                self.move_to(r, Phase::Commit, ctx);
                true
            }
            Phase::Commit => {
                let Some(w) = self.rounds.get(r) else {
                    return false;
                };
                // The vote phase's guard, on the commit window.
                if let Some(v) = self.quorum_value(&w.commits) {
                    let size = count_of(&w.commits, v);
                    let ledger = &w.commit_ledger;
                    ctx.observe(|| ObsKind::CertificateFormed {
                        round: r,
                        phase: "COMMIT",
                        size,
                        labels: ledger.occupancy(&self.caps),
                    });
                    self.deliver_decision(v, ctx);
                } else if w.commits.len() + w.commit_bottoms < self.wait()
                    || self.in_grace(now, ctx)
                {
                    return false;
                }
                if self.decided.is_none() {
                    self.adopt_for_next_round(r, ctx);
                }
                ctx.observe(|| ObsKind::PhaseExit {
                    round: r,
                    phase: "COMMIT",
                });
                self.enter_round(r + 1, ctx);
                true
            }
        }
    }

    /// End-of-round estimate adjustment when no decision was certified,
    /// in strictly decreasing evidence order: commit certificate, lock
    /// release/hold, coordinator fallback.
    fn adopt_for_next_round(&mut self, r: u64, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        let Some(w) = self.rounds.get(r) else {
            return;
        };
        // An affirm-sized commit certificate carries ≥ 1 honest vote
        // quorum observation: adopt it. A conflicting minority lock
        // yields — the locking argument in the module docs shows such a
        // certificate can never exist against a decided value.
        if let Some(v) = self.affirmed_value(&w.commits) {
            self.est = v;
            if self.lock.is_none_or(|(x, _)| x != v) {
                if self.lock.is_some() {
                    ctx.observe(|| ObsKind::LockReleased { round: r });
                }
                self.lock = None;
            }
            return;
        }
        if let Some((x, locked_in)) = self.lock {
            // Locked with no certificate in sight: release only toward
            // affirm-sized *locked-vote* evidence from a later round than
            // the lock (≥ 1 honest process vouches it locked elsewhere);
            // otherwise hold. Without this release two minority lock
            // camps could hold split estimates forever.
            if r > locked_in {
                if let Some(v) = self.affirmed_value(&w.locked_votes) {
                    if v != x {
                        self.est = v;
                        self.lock = None;
                        ctx.observe(|| ObsKind::LockReleased { round: r });
                        return;
                    }
                }
            }
            self.est = x;
            return;
        }
        // Unlocked: follow what the round's coordinator label voted. In
        // a clean round the coordination step already made everyone vote
        // this value; the fallback matters after a round whose `COORD`s
        // were lost or late.
        if let Some(v) = coordinator_pick(&w.coord_votes) {
            self.est = v;
        }
    }

    fn try_advance(&mut self, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        while self.eval(ctx) {}
    }
}

/// The tolerant engine keeps the `◇HP` bag a stack hands it, and the
/// most carriers of each label it has trusted, for the `COORD` wait.
impl<O: TrustedCarriers> Consumes<O> for ByzQuorumConsensus {
    fn consume(&mut self, output: &O) {
        self.trusted.clone_from(output.h_trusted());
        for (label, count) in self.trusted.counted() {
            let count = count.min(self.caps.multiplicity(label));
            let most = self.seen.multiplicity(label);
            if count > most {
                self.seen.insert_n(*label, count - most);
            }
        }
    }
}

impl Process for ByzQuorumConsensus {
    type Msg = ByzMsg;
    type Output = u64;

    fn mutate_payload(msg: &ByzMsg, entropy: u64) -> Option<ByzMsg> {
        Some(mutate_byz_msg(msg, entropy))
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        self.enter_round(self.round, ctx);
        self.try_advance(ctx);
    }

    /// A copy's label is looked up once: its rank admits it and names the
    /// coordinator label.
    fn on_message(&mut self, msg: ByzMsg, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        match msg {
            ByzMsg::Coord {
                id,
                round,
                est,
                locked,
            } => {
                if round >= self.round {
                    let rank = self.caps.rank(&id);
                    let coord = self.is_coord(rank, round);
                    let w = self.rounds.get_mut(round);
                    if coord && w.coord_ledger.admit(rank, &self.caps) {
                        w.coords.push((est, locked));
                    } else {
                        self.shed(round, "COORD", ctx);
                    }
                }
            }
            ByzMsg::Vote {
                id,
                round,
                est,
                locked,
            } => {
                if round >= self.round {
                    let rank = self.caps.rank(&id);
                    let coord = self.is_coord(rank, round);
                    let w = self.rounds.get_mut(round);
                    if w.vote_ledger.admit(rank, &self.caps) {
                        w.votes.insert(est);
                        if locked {
                            w.locked_votes.insert(est);
                        }
                        if coord {
                            w.coord_votes.push((est, locked));
                        }
                    } else {
                        self.shed(round, "VOTE", ctx);
                    }
                }
            }
            ByzMsg::Commit { id, round, val } => {
                if round >= self.round {
                    let rank = self.caps.rank(&id);
                    let w = self.rounds.get_mut(round);
                    if w.commit_ledger.admit(rank, &self.caps) {
                        match val {
                            Some(v) => w.commits.insert(v),
                            None => w.commit_bottoms += 1,
                        }
                    } else {
                        self.shed(round, "COMMIT", ctx);
                    }
                }
            }
            ByzMsg::Decide { id, value } => {
                if self.decide_ledger.admit(self.caps.rank(&id), &self.caps) {
                    self.decide_votes.insert(value);
                } else {
                    self.shed(self.round, "DECIDE", ctx);
                }
            }
        }
        self.try_advance(ctx);
    }

    /// The current phase's grace deadline passed (one of a phase left
    /// earlier was cancelled on leaving): the guards are asked once more,
    /// and nothing is re-armed here.
    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, ByzMsg, u64>) {
        debug_assert_eq!(timer, DEADLINE);
        self.armed = None;
        self.try_advance(ctx);
    }
}

impl Persist for ByzMsg {
    fn save(&self, s: &mut Saver) {
        match self {
            ByzMsg::Vote {
                id,
                round,
                est,
                locked,
            } => {
                s.u8(0);
                id.save(s);
                round.save(s);
                est.save(s);
                locked.save(s);
            }
            ByzMsg::Coord {
                id,
                round,
                est,
                locked,
            } => {
                s.u8(3);
                id.save(s);
                round.save(s);
                est.save(s);
                locked.save(s);
            }
            ByzMsg::Commit { id, round, val } => {
                s.u8(1);
                id.save(s);
                round.save(s);
                val.save(s);
            }
            ByzMsg::Decide { id, value } => {
                s.u8(2);
                id.save(s);
                value.save(s);
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(match l.u8()? {
            0 => ByzMsg::Vote {
                id: Persist::load(l)?,
                round: Persist::load(l)?,
                est: Persist::load(l)?,
                locked: Persist::load(l)?,
            },
            1 => ByzMsg::Commit {
                id: Persist::load(l)?,
                round: Persist::load(l)?,
                val: Persist::load(l)?,
            },
            2 => ByzMsg::Decide {
                id: Persist::load(l)?,
                value: Persist::load(l)?,
            },
            3 => ByzMsg::Coord {
                id: Persist::load(l)?,
                round: Persist::load(l)?,
                est: Persist::load(l)?,
                locked: Persist::load(l)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "ByzMsg",
                    tag,
                })
            }
        })
    }
}

homonym_core::persist_unit_enum!(Phase {
    Vote = 0,
    Commit = 1,
    Coord = 2
});

homonym_core::persist_fields!(ByzWindow {
    coord_ledger,
    coords,
    vote_ledger,
    votes,
    locked_votes,
    coord_votes,
    commit_ledger,
    commits,
    commit_bottoms
});

// `load` refuses what `new` never builds: the quorum arithmetic needs them,
// a copy's rank among the caps names its label in `labels`, and every
// round change moves the ring (`advance_to`, `restart`) with the round.
homonym_core::persist_fields!(ByzQuorumConsensus {
    n,
    f,
    caps,
    labels,
    est,
    lock,
    round,
    phase,
    phase_entered,
    rounds,
    decide_ledger,
    decide_votes,
    decided,
    discarded,
    phase_grace,
    armed,
    seen,
    trusted
} if |c| c.n >= 4 && c.f == (c.n - 1) / 3 && c.caps.len() == c.n
    && c.labels.iter().eq(c.caps.support()) && c.rounds.base() == c.round);

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;
    use homonym_sim::process::Action;

    fn assign8() -> IdentityAssignment {
        IdentityAssignment::round_robin(8, 3)
    }

    fn reliable() -> NetworkModel {
        NetworkModel::reliable(Span::from_ticks(2))
    }

    fn run(
        assign: IdentityAssignment,
        sched: FailureSchedule,
        net: NetworkModel,
        horizon: u64,
        seed: u64,
    ) -> Engine<ByzQuorumConsensus> {
        let a = assign.clone();
        let cfg = SimConfig::new(assign, sched, net).with_seed(seed);
        let mut e = Engine::new(cfg, move |p, _| ByzQuorumConsensus::new(100 + p as u64, &a));
        e.run_until(Time::from_ticks(horizon));
        e
    }

    #[test]
    fn thresholds_follow_the_design_tolerance() {
        let c = ByzQuorumConsensus::new(0, &assign8());
        assert_eq!(c.tolerance(), 2);
        assert_eq!(c.quorum(), 6);
        assert_eq!(c.wait(), 6);
        assert_eq!(c.affirm(), 3);
        // Two quorums intersect in ≥ f + 1 members — so in ≥ 1 honest.
        assert!(2 * c.quorum() - c.n > c.f);
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn too_small_populations_are_rejected() {
        let _ = ByzQuorumConsensus::new(0, &IdentityAssignment::unique(3));
    }

    #[test]
    fn clean_run_decides_a_proposed_value_everywhere() {
        let n = 8;
        let e = run(assign8(), FailureSchedule::none(n), reliable(), 4_000, 7);
        let outcome = e.outcome((0..n).map(|p| 100 + p as u64).collect());
        let report = check_consensus(&outcome, &FailureSchedule::none(n))
            .expect("clean run satisfies full crash validity");
        assert!(outcome.proposals.contains(&report.value));
        assert!(outcome.decisions.iter().all(Option::is_some));
    }

    #[test]
    fn survives_a_permanent_equivocator_within_tolerance() {
        let n = 8;
        let assign = assign8();
        let a = assign.clone();
        let script = FaultScript {
            attacks: vec![ByzClause {
                from: Time::from_ticks(1),
                until: Time::MAX,
                src: ProcSet::from_indices(n, [2]),
                victims: ProcSet::from_indices(n, [0, 1, 3, 4, 5]),
                attack: Attack::Equivocate,
            }],
            salt: 0xB12,
            ..FaultScript::default()
        };
        let cfg = SimConfig::new(assign, FailureSchedule::none(n), reliable())
            .with_seed(11)
            .with_adversary(script);
        let mut e = Engine::new(cfg, move |p, _| ByzQuorumConsensus::new(100 + p as u64, &a));
        e.run_until(Time::from_ticks(8_000));
        let outcome = e.outcome((0..n).map(|p| 100 + p as u64).collect());
        let report = check_byzantine_consensus(&outcome, &FailureSchedule::none(n), 1)
            .expect("one equivocator is within the design tolerance");
        assert!(
            outcome.decisions.iter().all(Option::is_some),
            "every process decides despite the attack (on {})",
            report.value
        );
    }

    #[test]
    fn over_threshold_suppression_stalls_instead_of_lying() {
        let n = 8;
        let assign = assign8();
        let a = assign.clone();
        // f = 3 ≥ n/3 silent-to-everyone-else sources: every receiver
        // tops out at n − 3 = 5 < wait copies, so no phase threshold is
        // ever met — the stack stalls past its bound, it does not decide
        // wrongly.
        let mut script = FaultScript {
            salt: 0xB13,
            ..FaultScript::default()
        };
        for src in [0usize, 1, 2] {
            script.attacks.push(ByzClause {
                from: Time::from_ticks(1),
                until: Time::MAX,
                src: ProcSet::from_indices(n, [src]),
                victims: ProcSet::from_indices(n, (0..n).filter(|&v| v != src)),
                attack: Attack::SelectiveSend,
            });
        }
        let cfg = SimConfig::new(assign, FailureSchedule::none(n), reliable())
            .with_seed(13)
            .with_adversary(script);
        let mut e = Engine::new(cfg, move |p, _| ByzQuorumConsensus::new(100 + p as u64, &a));
        e.run_until(Time::from_ticks(8_000));
        let outcome = e.outcome((0..n).map(|p| 100 + p as u64).collect());
        assert!(
            outcome.decisions.iter().all(Option::is_none),
            "no decision certificate can form past the bound"
        );
    }

    /// What `step` makes `c` emit as a carrier of `me` at tick `at`.
    fn emitted(
        c: &mut ByzQuorumConsensus,
        me: Identity,
        at: u64,
        step: impl FnOnce(&mut ByzQuorumConsensus, &mut ActionSink<'_, ByzMsg, u64>),
    ) -> Vec<Action<ByzMsg, u64>> {
        let mut actions = Vec::new();
        step(
            c,
            &mut ActionSink::new(me, Time::from_ticks(at), &mut actions),
        );
        actions
    }

    /// Drives `c` by hand as a carrier of `me`: `on_start` at tick 0 when
    /// `msgs` is empty, else each message at tick 1. Returns the actions
    /// emitted.
    fn drive(
        c: &mut ByzQuorumConsensus,
        me: Identity,
        msgs: Vec<ByzMsg>,
    ) -> Vec<Action<ByzMsg, u64>> {
        if msgs.is_empty() {
            return emitted(c, me, 0, |c, sink| c.on_start(sink));
        }
        emitted(c, me, 1, |c, sink| {
            for m in msgs {
                c.on_message(m, sink);
            }
        })
    }

    #[test]
    fn affirm_votes_of_a_later_round_pull_the_process_into_it() {
        let mut c = ByzQuorumConsensus::new(7, &assign8());
        let me = Identity::new(0); // rounds 0 and 3 are label 0's
        let vote = ByzMsg::Vote {
            id: Identity::new(1),
            round: 3,
            est: 9,
            locked: false,
        };
        let short = vec![vote; c.affirm() - 1];
        drive(&mut c, me, vec![]);
        drive(&mut c, me, short);
        assert_eq!(c.round, 0, "f copies may all be forged");
        let actions = drive(&mut c, me, vec![vote]);
        assert_eq!((c.round, c.phase), (3, Phase::Coord));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Broadcast(ByzMsg::Coord {
                    round: 3,
                    est: 7,
                    ..
                })
            )),
            "a coordinator carrier opens the round it skipped to: {actions:?}"
        );
    }

    #[test]
    fn coord_is_admitted_from_the_coordinator_label_up_to_its_cap_only() {
        let mut c = ByzQuorumConsensus::new(7, &assign8());
        let me = Identity::new(2);
        let coord = |id, est| ByzMsg::Coord {
            id: Identity::new(id),
            round: 0,
            est,
            locked: false,
        };
        drive(&mut c, me, vec![]);
        // Round 0 is label 0's, carried thrice: label 1's copy is shed,
        // and so is label 0's fourth.
        let msgs = vec![
            coord(1, 1),
            coord(0, 30),
            coord(0, 20),
            coord(0, 25),
            coord(0, 5),
        ];
        let actions = drive(&mut c, me, msgs);
        assert_eq!(c.discarded(), 2);
        let noted = actions
            .iter()
            .filter(|a| matches!(a, Action::Discard))
            .count();
        assert_eq!(noted, 2, "each shed copy is noted to the engine");
        // With all three carriers heard the vote goes out at once, on
        // their minimum — not on the shed 1 or 5.
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Broadcast(ByzMsg::Vote {
                    round: 0,
                    est: 20,
                    locked: false,
                    ..
                })
            )),
            "{actions:?}"
        );
    }

    /// A `◇HP` bag trusting `carriers[l]` carriers of label `l`.
    fn bag(carriers: &[usize]) -> EvtHPOutput {
        let mut h_trusted = Multiset::new();
        for (label, &k) in carriers.iter().enumerate() {
            h_trusted.insert_n(Identity::new(label as u64), k);
        }
        EvtHPOutput::new(h_trusted)
    }

    /// A process of `round_robin(8, 4)` — two carriers a label — that
    /// has seen `◇HP` trust every carrier and then `now`, started at
    /// tick 0 as a carrier of label 1. Round 0 is label 0's.
    fn warmed(now: &[usize]) -> ByzQuorumConsensus {
        let mut c = ByzQuorumConsensus::new(7, &IdentityAssignment::round_robin(8, 4));
        c.consume(&bag(&[2, 2, 2, 2]));
        c.consume(&bag(now));
        c
    }

    fn coord0(est: u64) -> ByzMsg {
        ByzMsg::Coord {
            id: Identity::new(0),
            round: 0,
            est,
            locked: false,
        }
    }

    fn voted(actions: &[Action<ByzMsg, u64>]) -> Option<u64> {
        actions.iter().find_map(|a| match a {
            Action::Broadcast(ByzMsg::Vote { round: 0, est, .. }) => Some(*est),
            _ => None,
        })
    }

    /// Once `◇HP` has seen one of label 0's two carriers go, the other
    /// carrier's `COORD` is all the round waits for: the vote goes out
    /// on it at once, not a `phase_grace` later. The reading survives a
    /// restart, as it does between a log's heights.
    #[test]
    fn a_carrier_hp_saw_go_is_not_waited_for() {
        let me = Identity::new(1);
        let mut c = warmed(&[1, 2, 2, 2]);
        c.restart(7);
        drive(&mut c, me, vec![]);
        let actions = drive(&mut c, me, vec![coord0(20)]);
        assert_eq!(voted(&actions), Some(20), "{actions:?}");
        assert_eq!(c.phase, Phase::Vote);

        // With every carrier still trusted, one `COORD` is not enough.
        let mut c = warmed(&[2, 2, 2, 2]);
        drive(&mut c, me, vec![]);
        let actions = drive(&mut c, me, vec![coord0(20)]);
        assert_eq!(voted(&actions), None, "{actions:?}");
        assert_eq!(c.phase, Phase::Coord);
    }

    /// A detector that trusts nobody — a replica just out of a partition
    /// — still leaves one `COORD` to wait for: the round's grace runs
    /// until it comes.
    #[test]
    fn an_empty_bag_still_waits_for_one_coord() {
        let me = Identity::new(1);
        let mut c = warmed(&[]);
        let started = drive(&mut c, me, vec![]);
        assert_eq!(deadlines_in(&started), [10], "the coordinators' grace");
        assert_eq!(c.phase, Phase::Coord);
        let actions = drive(&mut c, me, vec![coord0(20)]);
        assert_eq!(voted(&actions), Some(20), "{actions:?}");
    }

    /// The hint shortens the wait and nothing else: a `COORD` past the
    /// label's multiplicity, or under another label, is still shed.
    #[test]
    fn an_over_cap_coord_is_still_discarded() {
        let me = Identity::new(1);
        let mut c = warmed(&[1, 2, 2, 2]);
        drive(&mut c, me, vec![]);
        let stray = ByzMsg::Coord {
            id: Identity::new(3),
            round: 0,
            est: 1,
            locked: false,
        };
        let actions = drive(&mut c, me, vec![stray, coord0(30), coord0(5), coord0(2)]);
        assert_eq!(voted(&actions), Some(30), "{actions:?}");
        assert_eq!(c.discarded(), 2, "the stray and the third label-0 copy");
        let w = c.rounds.get(0).expect("round 0 is resident");
        assert_eq!(w.coords, [(30, false), (5, false)]);
    }

    /// Delivers `msgs` at tick `at`; returns the delays of the deadline
    /// timers armed meanwhile.
    fn deadlines_armed(
        c: &mut ByzQuorumConsensus,
        me: Identity,
        at: u64,
        msgs: Vec<ByzMsg>,
    ) -> Vec<u64> {
        let actions = emitted(c, me, at, |c, sink| {
            for m in msgs {
                c.on_message(m, sink);
            }
        });
        deadlines_in(&actions)
    }

    fn deadlines_in(actions: &[Action<ByzMsg, u64>]) -> Vec<u64> {
        let delay = |a: &Action<ByzMsg, u64>| match *a {
            Action::SetTimer(d, DEADLINE) => Some(d.ticks()),
            _ => None,
        };
        actions.iter().filter_map(delay).collect()
    }

    /// `count` round-`round` votes for `est`, spread over the labels (at
    /// most three of one, which every label of [`assign8`] but the last
    /// carries).
    fn votes(round: u64, est: u64, count: usize) -> Vec<ByzMsg> {
        let vote = |i| ByzMsg::Vote {
            id: Identity::new(i as u64 / 3),
            round,
            est,
            locked: false,
        };
        (0..count).map(vote).collect()
    }

    /// As [`votes`], for commit candidates.
    fn commits(round: u64, val: Option<u64>, count: usize) -> Vec<ByzMsg> {
        let commit = |i| ByzMsg::Commit {
            id: Identity::new(i as u64 / 3),
            round,
            val,
        };
        (0..count).map(commit).collect()
    }

    /// Round `round`'s three `COORD`s, all proposing `est`.
    fn coords(round: u64, est: u64) -> Vec<ByzMsg> {
        let coord = ByzMsg::Coord {
            id: Identity::new(round % 3),
            round,
            est,
            locked: false,
        };
        vec![coord; 3]
    }

    /// The only wait of a clean round that depends on the clock is the
    /// unlocked process's wait for the coordinators: it arms the round's
    /// one timer. Every wait a message ends — the `COORD`s arriving, a
    /// vote quorum, a commit quorum — arms none, and neither does the
    /// decided (hence locked) process entering the next round.
    #[test]
    fn a_clean_round_arms_one_deadline_timer() {
        let mut c = ByzQuorumConsensus::new(7, &assign8());
        let me = Identity::new(2);
        let started = emitted(&mut c, me, 0, |c, sink| c.on_start(sink));
        assert_eq!(deadlines_in(&started), [10], "the coordinators' grace");
        assert_eq!(deadlines_armed(&mut c, me, 1, coords(0, 20)), []);
        assert_eq!(c.phase, Phase::Vote);
        let q = c.quorum();
        assert_eq!(deadlines_armed(&mut c, me, 2, votes(0, 20, q)), []);
        assert_eq!(c.phase, Phase::Commit);
        assert_eq!(deadlines_armed(&mut c, me, 3, commits(0, Some(20), q)), []);
        assert_eq!(c.decision(), Some(20));
        assert_eq!((c.round, c.phase), (1, Phase::Vote), "locked: no wait");
    }

    /// Leaving a timed wait takes its deadline with it: the `COORD`s that
    /// end the coordinators' grace cancel the timer it armed, so in a
    /// clean run no deadline ever fires. A wait left in the tick it was
    /// entered hands its timer on to the next, which would time out at
    /// the same instant, and a deadline that fired leaves nothing to
    /// cancel.
    #[test]
    fn leaving_a_timed_phase_cancels_its_deadline() {
        let mut c = ByzQuorumConsensus::new(7, &assign8());
        let me = Identity::new(2);
        emitted(&mut c, me, 0, |c, sink| c.on_start(sink));
        let left = emitted(&mut c, me, 1, |c, sink| {
            for m in coords(0, 20) {
                c.on_message(m, sink);
            }
        });
        let cancelled = |a: &&Action<ByzMsg, u64>| matches!(a, Action::CancelTimer(..));
        let cancels: Vec<_> = left.iter().filter(cancelled).collect();
        assert!(
            matches!(cancels[..], [Action::CancelTimer(at, DEADLINE)] if *at == Time::from_ticks(10)),
            "{left:?}"
        );
        assert_eq!(c.armed, None);

        // A split vote arms the vote phase's timer, which fires and opens
        // the commit phase at tick 11; `wait` bottoms arm its timer, and
        // round 1's votes make the process skip to round 1 in that same
        // tick: the commit phase's timer becomes the coordinators' wait's.
        let vote = |label, est| ByzMsg::Vote {
            id: Identity::new(label),
            round: 0,
            est,
            locked: false,
        };
        let mut split = votes(0, 20, 3);
        split.extend([vote(1, 21), vote(1, 21), vote(1, 21)]);
        assert_eq!(deadlines_armed(&mut c, me, 4, split), [7]);
        let fired = emitted(&mut c, me, 11, |c, sink| c.on_timer(DEADLINE, sink));
        assert_eq!(c.phase, Phase::Commit);
        assert!(!fired.iter().any(|a| cancelled(&a)), "it fired: {fired:?}");
        let w = c.wait();
        assert_eq!(deadlines_armed(&mut c, me, 11, commits(0, None, w)), [10]);
        let skipped = emitted(&mut c, me, 11, |c, sink| {
            for m in votes(1, 20, c.affirm()) {
                c.on_message(m, sink);
            }
        });
        assert_eq!((c.round, c.phase), (1, Phase::Coord));
        assert_eq!(c.armed, Some((1, Phase::Coord)));
        assert_eq!(deadlines_in(&skipped), [], "{skipped:?}");
        assert!(!skipped.iter().any(|a| cancelled(&a)), "{skipped:?}");

        // In a whole clean run, then, no timer fires at all.
        let n = 8;
        let e = run(assign8(), FailureSchedule::none(n), reliable(), 200, 7);
        assert!(e.decisions().iter().all(Option::is_some));
        assert_eq!(e.metrics().timers_fired, 0);
    }

    /// A vote or commit window holding `wait` copies and no quorum is
    /// blocked by the clock alone: one timer for the rest of the grace,
    /// however many more copies arrive, and the phase ends when it fires.
    #[test]
    fn a_wait_without_quorum_arms_one_timer_for_the_remainder() {
        let mut c = ByzQuorumConsensus::new(7, &assign8());
        let me = Identity::new(2);
        emitted(&mut c, me, 0, |c, sink| c.on_start(sink));
        deadlines_armed(&mut c, me, 1, coords(0, 20));
        // Short of `wait` copies only a message can help: no timer.
        let vote = |label, est| ByzMsg::Vote {
            id: Identity::new(label),
            round: 0,
            est,
            locked: false,
        };
        let mut split = votes(0, 20, 3);
        split.extend([vote(1, 21), vote(1, 21)]);
        assert_eq!(deadlines_armed(&mut c, me, 4, split), []);
        // The sixth copy makes it `wait` without a quorum: the vote phase
        // was entered at tick 1, so 7 of its 10 ticks of grace remain.
        assert_eq!(deadlines_armed(&mut c, me, 4, vec![vote(1, 21)]), [7]);
        assert_eq!(deadlines_armed(&mut c, me, 5, vec![vote(2, 21)]), []);
        assert_eq!(c.phase, Phase::Vote);
        let fired = emitted(&mut c, me, 11, |c, sink| c.on_timer(DEADLINE, sink));
        let bottom = |a: &Action<ByzMsg, u64>| {
            matches!(a, Action::Broadcast(ByzMsg::Commit { val: None, .. }))
        };
        assert!(fired.iter().any(bottom), "{fired:?}");
        assert_eq!(c.phase, Phase::Commit);

        // The same in the commit phase, entered at tick 11.
        let w = c.wait();
        assert_eq!(deadlines_armed(&mut c, me, 14, commits(0, None, w)), [7]);
        let fired = emitted(&mut c, me, 21, |c, sink| c.on_timer(DEADLINE, sink));
        // Round 1 opens with the unlocked wait for its coordinators.
        assert_eq!((c.round, c.phase), (1, Phase::Coord));
        assert_eq!(deadlines_in(&fired), [10]);
        assert_eq!(c.armed, Some((1, Phase::Coord)));
    }

    /// One step of a hand-driven engine: a message, or a deadline timer
    /// after the clock moved on.
    #[derive(Debug, Clone)]
    enum Step {
        Msg(ByzMsg),
        Tick(u64),
    }

    /// Decodes a generated tuple into a step. Labels run one past the
    /// assignment's three (an unknown label is shed), rounds up to four
    /// ahead, values over a handful so that quorums and conflicts both
    /// form.
    fn step_of((kind, label, round, value, flag): (u8, u64, u64, u64, bool)) -> Step {
        let id = Identity::new(label);
        Step::Msg(match kind {
            0 | 1 => ByzMsg::Vote {
                id,
                round,
                est: value,
                locked: flag,
            },
            2 | 3 => ByzMsg::Commit {
                id,
                round,
                val: flag.then_some(value),
            },
            4 => ByzMsg::Coord {
                id,
                round,
                est: value,
                locked: flag,
            },
            5 => ByzMsg::Decide { id, value },
            _ => return Step::Tick(1 + value * 4),
        })
    }

    /// Up to 60 random steps.
    fn steps() -> impl proptest::prelude::Strategy<Value = Vec<Step>> {
        use proptest::prelude::*;
        let step = (0u8..7, 0u64..4, 0u64..5, 0u64..4, any::<bool>());
        proptest::collection::vec(step, 0..60usize)
            .prop_map(|raw| raw.into_iter().map(step_of).collect())
    }

    /// Feeds `steps` to `c` as a carrier of label 0 with observation on,
    /// the clock starting at `*now`, and renders every action emitted.
    fn drive_steps(c: &mut ByzQuorumConsensus, now: &mut u64, steps: &[Step]) -> Vec<String> {
        let mut actions = Vec::new();
        for step in steps {
            if let Step::Tick(later) = step {
                *now += later;
            }
            let at = Time::from_ticks(*now);
            let mut sink = ActionSink::new(Identity::new(0), at, &mut actions).with_observing(true);
            match step {
                Step::Msg(m) => c.on_message(*m, &mut sink),
                Step::Tick(_) => c.on_timer(DEADLINE, &mut sink),
            }
        }
        actions.iter().map(|a| format!("{a:?}")).collect()
    }

    proptest::proptest! {
        /// `restart(p)` is `new(p, assign)` handed the same `◇HP`
        /// readings: after any past — here always one that armed a
        /// deadline timer, a certified decision, shed copies and windows
        /// of rounds ahead, a carrier of labels 0 and 2 seen to go, then
        /// random traffic on top, which may fire or cancel the timer —
        /// the restarted engine encodes to the same bytes as a fresh one
        /// that consumed the readings (so a deadline marker is cleared
        /// too, and the reading kept) and answers any future with the
        /// same actions.
        #[test]
        fn a_restarted_engine_is_a_fresh_one(
            past in steps(),
            future in steps(),
            proposal in 0u64..4,
        ) {
            let assign = assign8();
            let mut used = ByzQuorumConsensus::new(7, &assign);
            let readings = [bag(&[3, 3, 2]), bag(&[2, 3, 1])];
            for reading in &readings {
                used.consume(reading);
            }
            let mut now = 0;
            drive(&mut used, Identity::new(0), vec![]);
            let decide = |label| Step::Msg(ByzMsg::Decide { id: Identity::new(label), value: 2 });
            let opening = [decide(0), decide(0), decide(9), decide(1), step_of((0, 1, 4, 1, true))];
            drive_steps(&mut used, &mut now, &opening);
            proptest::prop_assert!(used.armed.is_some());
            drive_steps(&mut used, &mut now, &past);
            proptest::prop_assert_eq!(used.decision(), Some(2));
            proptest::prop_assert!(used.discarded() > 0);
            proptest::prop_assert!(used.rounds.resident() > 0);

            used.restart(proposal);
            let mut fresh = ByzQuorumConsensus::new(proposal, &assign);
            for reading in &readings {
                fresh.consume(reading);
            }
            proptest::prop_assert_eq!(used.coords_awaited(Identity::new(0)), 2);
            proptest::prop_assert_eq!(used.discarded(), 0);
            proptest::prop_assert_eq!(used.decision(), None);
            proptest::prop_assert_eq!(
                homonym_core::wire::to_bytes(&used),
                homonym_core::wire::to_bytes(&fresh)
            );
            let started = drive(&mut used, Identity::new(0), vec![]);
            let expected = drive(&mut fresh, Identity::new(0), vec![]);
            proptest::prop_assert_eq!(format!("{started:?}"), format!("{expected:?}"));
            let (mut t_used, mut t_fresh) = (now, now);
            proptest::prop_assert_eq!(
                drive_steps(&mut used, &mut t_used, &future),
                drive_steps(&mut fresh, &mut t_fresh, &future)
            );
            proptest::prop_assert_eq!(
                homonym_core::wire::to_bytes(&used),
                homonym_core::wire::to_bytes(&fresh)
            );
        }
    }

    /// A snapshot holding what `new` never builds is refused: before the
    /// check, one with no labels decoded and panicked on its first `VOTE`
    /// (`round % labels.len()`), and one with its labels out of the caps'
    /// order would name the wrong coordinator by rank. A ring whose base
    /// is past the round took that `VOTE` as one of an expired round.
    #[test]
    fn a_snapshot_new_would_never_build_is_refused() {
        use homonym_core::wire::{from_bytes, to_bytes};
        let fresh = ByzQuorumConsensus::new(0, &assign8());
        let hostile: [fn(&mut ByzQuorumConsensus); 7] = [
            |c| c.labels.clear(),
            |c| c.labels.reverse(),
            |c| c.labels.push(Identity::new(9)),
            |c| c.n = 3,
            |c| c.f += 1,
            |c| c.caps.insert(Identity::new(0)),
            |c| c.rounds.advance_to(1),
        ];
        for (i, corrupt) in hostile.iter().enumerate() {
            let mut c = fresh.clone();
            corrupt(&mut c);
            let decoded = from_bytes::<ByzQuorumConsensus>(&to_bytes(&c)).map(|mut c| {
                let vote = step_of((0, 1, 0, 1, false));
                drive_steps(&mut c, &mut 0, &[vote]);
            });
            assert!(
                matches!(decoded, Err(WireError::BadValue { .. })),
                "corruption {i} accepted"
            );
        }
        assert!(from_bytes::<ByzQuorumConsensus>(&to_bytes(&fresh)).is_ok());
    }

    #[test]
    fn window_ledger_sheds_super_cap_copies() {
        let assign = assign8();
        let mut c = ByzQuorumConsensus::new(0, &assign);
        let id = assign.id_of(0);
        let cap = assign.multiplicity(id);
        let rank = c.caps.rank(&id);
        let w = c.rounds.get_mut(0);
        for _ in 0..cap {
            assert!(w.vote_ledger.admit(rank, &c.caps));
        }
        assert!(!w.vote_ledger.admit(rank, &c.caps));
        assert_eq!(w.vote_ledger.discarded(), 1);
    }
}
