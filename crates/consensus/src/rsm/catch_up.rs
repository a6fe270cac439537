//! Catching laggards up: the ring, the fingerprint, the `Commit` tallies
//! and state claims under the label caps, the answer throttle, the layout
//! of a state transfer — and the replica's one liveness clock.
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
//!     with its [`StatePart`] `{ index: i, count }`, which states the
//!     words' layout.
//!
//! Both tally under the Byzantine stack's per-label caps: a label carried
//! by `k` processes contributes at most `k` copies, so when every corrupt
//! process sends at most one copy per broadcast, as the simulated
//! adversary does, `commit_quorum = f + 1` matching copies imply a
//! correct witness. A cap bounds a *label*, not a sender: a corrupt
//! carrier of a label with `f + 1` or more carriers can send every copy
//! of the quorum itself. In the crash model a quorum of 1 is sound. A state's parts tally one word at a
//! time, per `(height, count, index, word)`; the state is adopted once
//! every index has a word with that many copies, which certifies what
//! matching whole states would. The laggard moves to the senders' height,
//! publishes the heights of the tail it did not have (it passes the
//! heights below the tail without their values) and retires its client's
//! commands the table says committed. It holds at most one claim per
//! process and that many candidate words per index, and drops them all
//! whenever its status chain (next section) finds it stalled. A part
//! that cannot belong to a replica's state — an index past its count, a
//! count with no room for the table or more tail than a ring or the
//! heights hold, a height with no successor — is discarded.
//!
//! # Pull what you missed
//!
//! The third case above fires only on the laggard's own traffic, and a
//! laggard whose engine sits in a phase sends none (the engines never
//! retransmit: a second copy is indistinguishable from a namesake's);
//! nor does a commit reach it in passing, since one is broadcast only
//! with news ("A decided height stops talking" in `heights`). So a
//! replica that may be behind **asks**, with the one truthful thing it
//! can say: its last commit.
//!
//! * **Status.** The replica's one liveness clock is a log-level timer
//!   chain with base period [`ANSWER_INTERVAL`], which also ends an idle
//!   wait ("An idle replica waits"). A stall counts from a height's
//!   *boot*: a firing that finds no engine booted since the previous
//!   firing repeats `Commit { h − 1, log[h − 1], next }` and doubles the
//!   gap, up to `ANSWER_INTERVAL × MAX_COMMIT_AHEAD`. A firing that would
//!   find a boot would only return the chain to its base period, so it
//!   is never armed: the boot cancels it and arms the one a period later,
//!   and the chain's one timer is always a firing that acts. (That timer
//!   takes the boot's place in its tick, not the skipped firing's.) A
//!   healthy service never sends a status; a system stalled behind a
//!   partition backs off instead of flooding the partition's queue.
//! * **Answer.** A replica at height `h` receiving `Commit { h', … }`
//!   with `h' + 1 < h` (checked: a forged height near `u64::MAX` has no
//!   successor) answers as for a height-`h' + 1` engine message from the
//!   past — the entry or its state, under the same throttle; `f + 1`
//!   answers certify it for the asker.
//! * **Chain.** A replica that adopts an entry or a state broadcasts its
//!   `Commit` with or without news: it is behind and has just moved, so
//!   its peers answer with the next entry at once — one round trip per
//!   entry inside their rings; one for a state (`count` broadcasts from
//!   each peer), then one per entry committed meanwhile.
//!
//! A status is a truthful commit: it adds to the tally of whoever is
//! still at `h − 1`, which is what rescues a replica stalled at height 0
//! (its peers, stalled at height 1 or slow before GST, repeat
//! `Commit { 0, … }`). Entries are adopted only on `commit_quorum`
//! matching copies under the label caps, so a Byzantine sender of stale
//! statuses buys at most one answer per ring height, and one state, per
//! `ANSWER_INTERVAL` from each correct replica. The price of asking
//! lazily: after a long stall the chain's next firing is up to
//! `ANSWER_INTERVAL × MAX_COMMIT_AHEAD` away, which a replica stranded
//! again right after booting waits out (`docs/log_service.md`, "Open");
//! one entering an idle wait brings the chain back first.
//!
//! # An idle replica waits
//!
//! A no-op height costs what any height costs and serves nobody, and
//! under sparse open-loop arrivals most heights are no-ops. So a replica
//! that moves up with nothing to propose (no due command of its own, no
//! announced one held) and did not adopt its entry does not boot the next
//! height's engine yet. It keeps the wait's end, [`ANSWER_INTERVAL`] from
//! now (persisted), and arms no timer of its own: the status chain ends
//! the wait. A chain backed off past two periods is brought back to fire
//! one period from now; a firing inside the wait fires again exactly at
//! its end, and one at or after the end boots the height and returns the
//! chain to its base period — so a wait lasts one period, two at most.
//! The firing inside the wait only re-arms, but stays: its timer puts
//! the boot after whatever was sent before it in the end's tick, a
//! peer's announcement among them, which the boot then proposes (arming
//! the end at the wait's entry cost `commit_ticks_p50` 12 → 13 at 5 of
//! 12 seeds of `log_faults_open`). The replica boots at the earliest of
//!
//! 1. the wait's end;
//! 2. its own client's head command arriving;
//! 3. a `Commit` whose `next` gives it something to propose;
//! 4. engine traffic for the height, buffered before it got there
//!    included: a peer already runs it.
//!
//! Booting proposes what the replica has then, replays the traffic
//! buffered for the height and counts as progress: a wait is not a
//! stall. A replica that adopted its entry is behind and boots at once;
//! so does height 0, and so does every replica of a closed loop.
//!
//! A command arriving during a wait is proposed at once, and an idle
//! service runs one no-op height per wait. Safety is untouched — the
//! wait only delays an engine's start — and the latency cost is at most
//! two [`ANSWER_INTERVAL`]s for the height after the wait's start, which
//! any trigger above cuts short. Ticks per height count the waits. A
//! forged `next` or forged engine traffic can end a wait early, which
//! costs the no-op height the replica would have run anyway.

use std::collections::{BTreeMap, VecDeque};

use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::multiset::Multiset;
use homonym_core::time::{Span, Time};
use homonym_sim::process::ActionSink;
use homonym_sim::ObsKind;

use super::proposals::{table_words, Proposals};
use super::{LogEntry, RsmOptions, Sink, StatePart, ANSWER_INTERVAL, MAX_COMMIT_AHEAD, STATUS_TAG};
use crate::conflict::WindowLedger;

/// Words of a state before the table: the value at its height and the
/// fingerprint.
const STATE_HEAD: usize = 2;

/// A sender label's `Multiset::rank` among the caps, looked up once per
/// copy.
type Rank = Option<(usize, usize)>;

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
            let certified = candidates.iter().find(|(_, c)| c.len() >= quorum);
            certified.map(|&(word, _)| word)
        };
        self.words.iter().map(word).collect()
    }
}

/// What the tallies certify: the entry at the replica's height, or a
/// state through `height`.
pub(super) enum Certified {
    Entry(u64),
    State { height: u64, words: Vec<u64> },
}

/// The catch-up part of a replica.
#[derive(Clone)]
pub(super) struct CatchUp {
    opts: RsmOptions,
    /// The assignment's labels with their multiplicities: the admission
    /// caps for `Commit` tallies.
    caps: Multiset<Identity>,
    /// The last `MAX_COMMIT_AHEAD` committed heights, oldest first (the
    /// back is the one below the replica's): each one's value and when it
    /// was last answered (its own commit counts, broadcast or not).
    ring: VecDeque<(u64, Time)>,
    state_hash: u64,
    /// `Commit` tallies for heights ≥ the local height.
    tallies: BTreeMap<u64, CommitTally>,
    /// State transfer claims about heights ≥ the local height, at most
    /// one per process of the system, emptied whenever this replica
    /// asks again.
    states: Vec<StateTally>,
    /// When any height older than the ring was last answered.
    stale_answer: Time,
    pub(super) clock: Clock,
}

homonym_core::persist_fields!(CatchUp {
    opts,
    caps,
    ring,
    state_hash,
    tallies,
    states,
    stale_answer,
    clock
});

/// What makes `opts` unfit for a replica of `n` processes, if anything: a
/// quorum of none, or a state — [`MAX_COMMIT_AHEAD`] words plus one for
/// the fingerprint and one per two processes — that does not fit
/// `u16::MAX` parts.
fn flaw(opts: &RsmOptions, n: usize) -> Option<&'static str> {
    let head = (STATE_HEAD + table_words(n)) as u64;
    if opts.commit_quorum == 0 {
        Some("commit quorum must be positive")
    } else if (MAX_COMMIT_AHEAD - 1).saturating_add(head) > u64::from(u16::MAX) {
        Some("a state fits its parts' count")
    } else {
        None
    }
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

// Every method that says something takes the replica's height `at` and
// its `Proposals`, whose client's due command rides on every `Commit`.
impl CatchUp {
    /// Panics if `opts` do not fit the assignment.
    pub(super) fn new(opts: RsmOptions, assign: &IdentityAssignment) -> Self {
        if let Some(flaw) = flaw(&opts, assign.n()) {
            panic!("{flaw}");
        }
        CatchUp {
            opts,
            caps: assign.multiset(),
            ring: VecDeque::new(),
            state_hash: 0,
            tallies: BTreeMap::new(),
            states: Vec::new(),
            stale_answer: Time::ZERO,
            clock: Clock::new(),
        }
    }

    /// Whether a decoded replica of `n` processes at `height` can be in
    /// this state: options `new` takes, one cap per process, a ring no
    /// longer than the height or the options allow, and no more claims
    /// than processes, each at or above the height and of a state that
    /// [fits](Self::fits).
    pub(super) fn holds(&self, height: u64, n: usize) -> bool {
        let claim = |c: &StateTally| c.height >= height && self.fits(c.height, c.words.len());
        flaw(&self.opts, n).is_none()
            && self.caps.len() == n
            && self.ring.len() as u64 <= height.min(MAX_COMMIT_AHEAD)
            && self.states.len() <= n
            && self.states.iter().all(claim)
    }

    pub(super) fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// Ring entries, tallied heights and state claims.
    pub(super) fn retained(&self) -> usize {
        self.ring.len() + self.tallies.len() + self.states.len()
    }

    /// Whether a state of `count` words through `height` can be a
    /// replica's (see "Catch-up rule" above).
    fn fits(&self, height: u64, count: usize) -> bool {
        let head = STATE_HEAD + table_words(self.caps.len());
        let tail = count.checked_sub(head).map(|tail| tail as u64);
        let fits = tail.is_some_and(|tail| tail < MAX_COMMIT_AHEAD && tail <= height);
        fits && height != u64::MAX
    }

    /// Commits `value` at `height`: into the fingerprint and the ring.
    pub(super) fn commit<M>(&mut self, height: u64, value: u64, ctx: &mut Sink<'_, M>) {
        self.state_hash = mix(self.state_hash, height, value);
        self.record(height, value, ctx);
    }

    /// Keeps `value` as committed at `height` — in the ring, its oldest
    /// entry out — and publishes it. Said or not, the commit opens the
    /// height's answer throttle: the tail of its copies still in flight
    /// asks nothing.
    fn record<M>(&mut self, height: u64, value: u64, ctx: &mut Sink<'_, M>) {
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

    /// The replica moved to height `to`: what was tallied below it is moot.
    pub(super) fn advance(&mut self, to: u64) {
        while let Some(decided) = self.tallies.first_entry() {
            if *decided.key() >= to {
                break;
            }
            decided.remove();
        }
        self.states.retain(|claim| claim.height >= to);
    }

    /// Repeats the last commit, `Commit { at − 1, log[at − 1] }`, with the
    /// current `next`: a truthful certificate copy whatever it is sent
    /// for. Before the first commit there is nothing to repeat.
    pub(super) fn repeat_last<M>(&self, at: u64, props: &mut Proposals, ctx: &mut Sink<'_, M>) {
        if let Some(&(value, _)) = self.ring.back() {
            props.say(at - 1, value, None, ctx);
        }
    }

    /// Tallies a `Commit` about `height`, plain or a part of a state, under
    /// the per-label caps, and says whether it counted; old news is
    /// dropped. A label nobody carries leaves no entry behind: a Byzantine
    /// homonym can invent labels, heights and values without end.
    pub(super) fn tally<M>(
        &mut self,
        height: u64,
        value: u64,
        id: Identity,
        state: Option<StatePart>,
        at: u64,
        ctx: &mut Sink<'_, M>,
    ) -> bool {
        if height < at {
            return false; // old news
        }
        let rank = self.caps.rank(&id);
        let tallied = rank.is_some()
            && match state {
                None => self.tally_commit(height, value, rank, at),
                Some(part) => self.tally_part(height, value, part, rank),
            };
        if !tallied {
            ctx.note_discard();
        }
        tallied
    }

    fn tally_commit(&mut self, height: u64, value: u64, rank: Rank, at: u64) -> bool {
        if height - at >= MAX_COMMIT_AHEAD {
            return false;
        }
        let copies = self.tallies.entry(height).or_default();
        copies.entry(value).or_default().admit(rank, &self.caps)
    }

    /// Tallies `word` at `part.index` of a state through `height`, unless
    /// no replica's state has that part, or it would be a new claim or a
    /// new word for an index once every process could have sent one.
    fn tally_part(&mut self, height: u64, word: u64, part: StatePart, rank: Rank) -> bool {
        let StatePart { index, count } = part;
        let count = usize::from(count);
        if usize::from(index) >= count || !self.fits(height, count) {
            return false;
        }
        let most = self.caps.len();
        let Some(claim) = find_or_push(
            &mut self.states,
            most,
            |claim| (claim.height, claim.words.len()) == (height, count),
            || StateTally {
                height,
                words: vec![Vec::new(); count],
            },
        ) else {
            return false;
        };
        let candidates = &mut claim.words[usize::from(index)];
        let copies = find_or_push(
            candidates,
            most,
            |&(w, _)| w == word,
            || (word, WindowLedger::default()),
        );
        copies.is_some_and(|(_, copies)| copies.admit(rank, &self.caps))
    }

    /// What the tallies certify for a replica at `at`: its entry first,
    /// else a state, whose claim is taken out.
    pub(super) fn certified(&mut self, at: u64) -> Option<Certified> {
        let quorum = self.opts.commit_quorum;
        let entry = self.tallies.get(&at).and_then(|per_value| {
            let mut values = per_value.iter();
            values.find_map(|(&value, copies)| (copies.len() >= quorum).then_some(value))
        });
        if let Some(value) = entry {
            return Some(Certified::Entry(value));
        }
        let mut claims = self.states.iter().enumerate();
        let (i, words) = claims.find_map(|(i, claim)| Some((i, claim.certified(quorum)?)))?;
        let height = self.states.swap_remove(i).height;
        Some(Certified::State { height, words })
    }

    /// Answers a laggard's height-`height` traffic, `height < at`, at
    /// most once per [`ANSWER_INTERVAL`]: inside the ring with the
    /// committed entry, throttled per height from its commit instant;
    /// below it with a state transfer, through one slot shared by every
    /// older height.
    pub(super) fn answer_past<M>(
        &mut self,
        height: u64,
        at: u64,
        props: &mut Proposals,
        ctx: &mut Sink<'_, M>,
    ) {
        debug_assert!(height < at, "only a committed height is past");
        let now = ctx.local_now();
        let entry = height.checked_sub(at - self.ring.len() as u64);
        let last = match entry {
            Some(i) => &mut self.ring[i as usize].1,
            None => &mut self.stale_answer,
        };
        if now < *last + ANSWER_INTERVAL {
            return;
        }
        *last = now;
        match entry {
            Some(i) => props.say(height, self.ring[i as usize].0, None, ctx),
            None => self.send_state(at, props, ctx),
        }
    }

    /// Broadcasts the state through the last commit, one [`StatePart`] at
    /// a time.
    fn send_state<M>(&self, at: u64, props: &mut Proposals, ctx: &mut Sink<'_, M>) {
        let Some(tail) = self.ring.len().checked_sub(1) else {
            return;
        };
        let table = table_words(self.caps.len());
        // `new` checked that a full ring's state fits.
        let count = (STATE_HEAD + table + tail) as u16;
        for index in 0..count {
            let word = match usize::from(index) {
                0 => self.ring[tail].0,
                1 => self.state_hash,
                i if i < STATE_HEAD + table => props.table_word(i - STATE_HEAD),
                i => self.ring[i - STATE_HEAD - table].0,
            };
            props.say(at - 1, word, Some(StatePart { index, count }), ctx);
        }
    }

    /// Takes a certified state through `height`: publishes the heights of
    /// the tail a replica at `at` did not have and takes the fingerprint
    /// as it is. If that skips height 0, the replica registers no
    /// decision. Returns the words of the per-proposer table.
    pub(super) fn adopt<'w, M>(
        &mut self,
        height: u64,
        words: &'w [u64],
        at: u64,
        ctx: &mut Sink<'_, M>,
    ) -> &'w [u64] {
        let (head, tail) = words.split_at(STATE_HEAD + table_words(self.caps.len()));
        let first = height - tail.len() as u64;
        self.ring.clear();
        for (h, &v) in (first..=height).zip(tail.iter().chain(&head[..1])) {
            if h >= at {
                self.record(h, v, ctx);
            } else {
                self.ring.push_back((v, ctx.local_now()));
            }
        }
        self.state_hash = head[1];
        &head[STATE_HEAD..]
    }

    /// The status timer fired, at a firing that acts: a stalled replica
    /// drops its state transfer claims (answers to an earlier ask) and
    /// repeats its last commit as a status. Returns whether an idle wait
    /// ended, so that the height's engine boots.
    pub(super) fn status_tick<M>(
        &mut self,
        at: u64,
        props: &mut Proposals,
        ctx: &mut Sink<'_, M>,
    ) -> bool {
        let firing = self.clock.fire(ctx.local_now(), !self.ring.is_empty());
        if firing == Firing::Repeat {
            self.states.clear();
            self.repeat_last(at, props, ctx);
        }
        self.clock.arm(ctx);
        firing == Firing::Boot
    }
}

/// What a firing of the status timer does: fire again at an idle wait's
/// end, boot the height at it, or repeat the last commit when stalled.
#[derive(PartialEq, Eq)]
enum Firing {
    ReArm,
    Boot,
    Repeat,
}

/// The replica's one liveness clock, the status chain of "Pull what you
/// missed", which also ends an idle wait. Its timer is armed only for a
/// firing that acts, one at a time.
#[derive(Clone)]
pub(super) struct Clock {
    /// Whether the replica booted a height's engine since the chain's
    /// last firing, armed or not: it moved, and is not stalled.
    moved: bool,
    /// The chain's period after its next firing: [`ANSWER_INTERVAL`]
    /// while heights commit, doubling with every status sent from one
    /// height.
    status_gap: Span,
    /// When the chain's next firing falls — the one its timer is armed
    /// for, or, while `moved`, the one before it, which would only find
    /// the boot and is never armed.
    status_due: Time,
    /// While the replica waits before booting the current height's
    /// engine, when the wait ends; `None` once the engine runs.
    idle_until: Option<Time>,
}

homonym_core::persist_fields!(Clock {
    moved,
    status_gap,
    status_due,
    idle_until
});

impl Clock {
    fn new() -> Self {
        Clock {
            moved: false,
            status_gap: ANSWER_INTERVAL,
            status_due: Time::ZERO,
            idle_until: None,
        }
    }

    pub(super) fn idle_until(&self) -> Option<Time> {
        self.idle_until
    }

    /// Starts the chain: its first firing is a period from now.
    pub(super) fn start<M, O>(&mut self, ctx: &mut ActionSink<'_, M, O>) {
        self.status_due = ctx.local_now() + self.status_gap;
        self.arm(ctx);
    }

    /// The replica booted its height's engine: the chain counts it as
    /// progress, and skips the firing that would only find that out.
    pub(super) fn boot<M, O>(&mut self, ctx: &mut ActionSink<'_, M, O>) {
        self.shift(ctx, Self::note_boot);
    }

    /// The replica waits until `end` to boot: a chain backed off past two
    /// periods is brought back to fire at the wait's end.
    pub(super) fn wait<M, O>(&mut self, end: Time, ctx: &mut ActionSink<'_, M, O>) {
        self.shift(ctx, |clock| {
            clock.idle_until = Some(end);
            if clock.status_due > end + ANSWER_INTERVAL {
                clock.status_due = end;
            }
        });
    }

    /// A boot ends any wait and counts as progress.
    fn note_boot(&mut self) {
        self.idle_until = None;
        self.moved = true;
    }

    /// The chain's first firing from `status_due` on that acts — one that
    /// would find a boot is skipped — and so the one its timer is armed
    /// for.
    fn acts_at(&self) -> Time {
        if self.moved && self.idle_until.is_none() {
            self.status_due + ANSWER_INTERVAL
        } else {
            self.status_due
        }
    }

    /// Plays the skipped firing at `status_due` once it is due (before
    /// the event at hand when both fall in one tick): the chain returns
    /// to its base period.
    fn play_moved_firing(&mut self, now: Time) {
        if self.moved && self.idle_until.is_none() && self.status_due <= now {
            self.moved = false;
            self.status_gap = ANSWER_INTERVAL;
            self.status_due += ANSWER_INTERVAL;
        }
    }

    /// Applies `change`, cancelling and re-arming the timer if the firing
    /// that acts moved: a superseded firing never fires.
    fn shift<M, O>(&mut self, ctx: &mut ActionSink<'_, M, O>, change: impl FnOnce(&mut Self)) {
        self.play_moved_firing(ctx.local_now());
        let armed = self.acts_at();
        change(self);
        if self.acts_at() != armed {
            ctx.cancel_timer(armed, STATUS_TAG);
            self.arm(ctx);
        }
    }

    /// Arms the status timer for the firing that acts.
    fn arm<M, O>(&self, ctx: &mut ActionSink<'_, M, O>) {
        let at = self.acts_at();
        ctx.set_timer(at.saturating_since(ctx.local_now()), STATUS_TAG);
    }

    /// The status timer fired at `now`, at a firing that acts, and the
    /// chain moves on to its next firing (armed by the caller). With
    /// nothing to `repeat` (at height 0), a stalled chain keeps its base
    /// period, so that the first commit finds it ready; otherwise the gap
    /// doubles up to `ANSWER_INTERVAL × MAX_COMMIT_AHEAD`.
    fn fire(&mut self, now: Time, repeat: bool) -> Firing {
        self.play_moved_firing(now);
        debug_assert_eq!(self.status_due, now, "only a firing that acts is armed");
        let base = ANSWER_INTERVAL;
        let (firing, due) = match self.idle_until {
            Some(end) if now < end => (Firing::ReArm, end),
            Some(_) => {
                self.status_gap = base;
                self.note_boot();
                (Firing::Boot, now + base)
            }
            None => {
                if repeat {
                    let cap = base.saturating_mul(MAX_COMMIT_AHEAD);
                    self.status_gap = self.status_gap.saturating_mul(2).min(cap);
                }
                (Firing::Repeat, now + self.status_gap)
            }
        };
        self.status_due = due;
        firing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsm::tests::*;
    use crate::rsm::RsmMsg;
    use homonym_core::prelude::*;
    use homonym_core::wire::WireError;
    use homonym_sim::prelude::*;
    use homonym_sim::process::{Action, Process};
    use homonym_sim::workload::{WorkloadConfig, NOOP};

    impl CatchUp {
        /// The values in the ring, oldest first.
        pub(in crate::rsm) fn ring_values(&self) -> Vec<u64> {
            self.ring.iter().map(|&(value, _)| value).collect()
        }
    }

    /// `commit_quorum` matching copies certify an entry, each label
    /// counting at most as often as it is carried; a copy past its
    /// label's cap is a discard.
    #[test]
    fn an_entry_is_certified_at_the_quorum_under_the_label_caps() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut catch_up = CatchUp::new(RsmOptions { commit_quorum: 3 }, &assign);
        let mut actions: Vec<ByzAction> = Vec::new();
        let mut sink = ActionSink::new(assign.id_of(0), Time::ZERO, &mut actions);
        for _ in 0..3 {
            catch_up.tally(0, 42, assign.id_of(0), None, 0, &mut sink);
        }
        assert!(catch_up.certified(0).is_none(), "two copies of one label");
        catch_up.tally(0, 42, assign.id_of(1), None, 0, &mut sink);
        assert!(matches!(catch_up.certified(0), Some(Certified::Entry(42))));
        assert!(matches!(actions[..], [Action::Discard]), "{actions:?}");
    }

    /// The words a replica's state can have: the head and the table, a
    /// tail shorter than a ring and no longer than the heights below it,
    /// at a height with a successor.
    #[test]
    fn a_state_fits_only_what_a_replica_could_send() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let catch_up = CatchUp::new(RsmOptions::crash(), &assign);
        let head = STATE_HEAD + table_words(4);
        let ring = MAX_COMMIT_AHEAD as usize;
        for (height, count, fits) in [
            (0, head - 1, false),
            (0, head, true),
            (0, head + 1, false),
            (5, head + 5, true),
            (5, head + 6, false),
            (1_000, head + ring - 1, true),
            (1_000, head + ring, false),
            (u64::MAX, head, false),
            (u64::MAX - 1, head, true),
        ] {
            assert_eq!(
                catch_up.fits(height, count),
                fits,
                "{count} words at {height}"
            );
        }
    }

    /// A snapshot is refused when it holds a claim no part could have
    /// made, one below the replica's height, or more claims than
    /// processes: adopting any of them would index past the state or move
    /// the replica back.
    #[test]
    fn a_snapshot_with_a_claim_no_part_could_make_is_refused() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        actions_of(&mut node, 0, |n, s| n.commit(NOOP, false, s));
        let (mut copies, caps) = (WindowLedger::default(), assign.multiset());
        for p in 0..2 {
            assert!(copies.admit(caps.rank(&assign.id_of(p)), &caps));
        }
        let claim = |height, count| StateTally {
            height,
            words: vec![vec![(7, copies.clone())]; count],
        };
        let head = STATE_HEAD + table_words(4);
        let decodes = |states: Vec<StateTally>| {
            let mut snapshot = node.clone();
            snapshot.catch_up.states = states;
            let bytes = homonym_core::wire::to_bytes(&snapshot);
            homonym_core::wire::from_bytes::<ByzLog>(&bytes)
        };
        assert!(decodes(vec![claim(1, head)]).is_ok());
        for (states, why) in [
            (vec![claim(1, 1)], "one word"),
            (vec![claim(0, head)], "below the height"),
            (vec![claim(1, head); 5], "five claims"),
        ] {
            let refused = matches!(decodes(states), Err(WireError::BadValue { .. }));
            assert!(refused, "{why}");
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
    fn commit_certificates_respect_label_caps() {
        // One label carried twice: two copies from that label tally at
        // most 2, so a quorum of 3 cannot be met by one equivocating
        // homonym pair alone.
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = WorkloadConfig::default().queues(4);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        node.catch_up.opts.commit_quorum = 3;
        let label = assign.id_of(0);
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(label, Time::ZERO, &mut actions);
        for _ in 0..5 {
            node.catch_up.tally(0, 42, label, None, 0, &mut sink);
        }
        assert_eq!(node.height(), 0);
        node.drain_certified(&mut sink);
        assert_eq!(node.height(), 0, "capped tally must not certify");
        // A second label closes the quorum.
        let other = assign.id_of(1);
        node.catch_up.tally(0, 42, other, None, 0, &mut sink);
        node.drain_certified(&mut sink);
        assert_eq!(short_log(&node), [42]);
    }

    /// How many parts a state of `n` processes with `tail` values below
    /// its height travels as.
    pub(super) fn parts_of(n: usize, tail: u64) -> usize {
        STATE_HEAD + table_words(n) + tail as usize
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
        assert_eq!(node.catch_up.ring.len() as u64, cap);

        let answers = |node: &mut ByzLog, at, h| {
            commits_sent(node, at, |n, s| {
                n.catch_up
                    .answer_past(h, n.heights.height(), &mut n.proposals, s)
            })
        };
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
        let state = |node: &mut ByzLog, at, h| {
            parts_in(&actions_of(node, at, |n, s| {
                n.catch_up
                    .answer_past(h, n.heights.height(), &mut n.proposals, s)
            }))
        };
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
        assert_eq!(node.catch_up.ring.len() as u64, cap);
    }

    /// A replica that stays at one height repeats its last commit from
    /// the status timer: first once a whole period has passed since it
    /// booted the height's engine, then at doubling gaps up to
    /// `ANSWER_INTERVAL × MAX_COMMIT_AHEAD`; a commit takes the chain
    /// back to its base period. At height 0 there is nothing to repeat
    /// and the chain does not back off.
    #[test]
    fn a_stalled_replica_repeats_its_last_commit_on_a_doubling_schedule() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let base = ANSWER_INTERVAL.ticks();
        let cap = base * MAX_COMMIT_AHEAD;
        let mut clock = Timers::default();
        let started = clock.at(&mut node, 0, |n, s| n.on_start(s));
        assert_eq!(timers_in(&started, STATUS_TAG), [base]);
        let quiet = |at, gap| (at, vec![], vec![gap]);
        let height_0 = said(&clock.run(&mut node, 2 * base));
        assert_eq!(height_0, [quiet(base, base), quiet(2 * base, base)]);
        // It commits height 0 with nothing to propose and waits: the
        // firing inside the wait fires again at its end, which boots
        // height 1, and the firing after that, which would only count
        // the boot as progress, is never armed: the next one is a period
        // later.
        let booted = 3 * base + 1;
        clock.at(&mut node, booted - base, |n, s| n.commit(7, false, s));
        let moved = said(&clock.run(&mut node, booted + base));
        let into_wait = quiet(3 * base, booted - 3 * base);
        assert_eq!(moved, [into_wait, quiet(booted, 2 * base)]);
        let (mut at, mut gap) = (booted + base, base);
        while gap < cap {
            at += gap;
            gap *= 2;
            let stalled = said(&clock.run(&mut node, at));
            assert_eq!(stalled, [(at, vec![(0, 7, NOOP)], vec![gap])]);
        }
        at += cap;
        let capped = said(&clock.run(&mut node, at));
        assert_eq!(capped, [(at, vec![(0, 7, NOOP)], vec![cap])]);
        // Its next wait brings the backed-off chain back to the wait's
        // end, and the chain returns to its base period.
        let booted = at + 1 + base;
        let entered = clock.at(&mut node, at + 1, |n, s| n.commit(8, false, s));
        assert_eq!(timers_in(&entered, STATUS_TAG), [base]);
        let stalled_again = said(&clock.run(&mut node, booted + 2 * base));
        let again = [
            quiet(booted, 2 * base),
            (booted + 2 * base, vec![(1, 8, NOOP)], vec![2 * base]),
        ];
        assert_eq!(stalled_again, again);
    }

    /// An idle wait is not a stall: the replica sends no status until it
    /// has sat a whole period past the boot that ends the wait, however
    /// long it has been at the height.
    #[test]
    fn an_idle_wait_is_not_a_stall() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let base = ANSWER_INTERVAL.ticks();
        let mut clock = Timers::default();
        clock.at(&mut node, 0, |n, s| n.on_start(s));
        clock.at(&mut node, 1, |n, s| n.commit(7, false, s));
        let fired = clock.run(&mut node, 4 * base);
        let boot = fired.iter().find(|(_, a)| booted_in(a) == Some(1));
        let &(booted, _) = boot.expect("the wait ends");
        assert_eq!(booted, 1 + base, "a wait of one interval");
        let status = fired.iter().find(|(_, a)| !commits_in(a).is_empty());
        let &(asked, ref actions) = status.expect("a stall is still noticed");
        assert!(
            asked >= booted + base,
            "a status {} ticks after the boot",
            asked - booted
        );
        assert_eq!(commits_in(actions), [(0, 7, NOOP)]);
    }

    /// A status firing that a wait supersedes is cancelled, not left to
    /// fire: the one timer of the chain is always the firing that acts.
    /// Here a backed-off chain is brought back by a wait, and the firing
    /// it had armed never comes.
    #[test]
    fn a_superseded_status_is_cancelled_and_never_fires() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let base = ANSWER_INTERVAL.ticks();
        let mut clock = Timers::default();
        clock.at(&mut node, 0, |n, s| n.on_start(s));
        // Behind, it adopts height 0, stalls at height 1 and backs off:
        // statuses at 2 and 4 periods, the next armed for 8. The firing
        // at 1 period, which would only have found the boot, never
        // comes.
        let adopted = clock.at(&mut node, 1, |n, s| n.commit(7, true, s));
        assert_eq!(timers_in(&adopted, STATUS_TAG), [2 * base - 1]);
        let statuses = said(&clock.run(&mut node, 4 * base));
        assert_eq!(
            statuses,
            [
                (2 * base, vec![(0, 7, NOOP)], vec![2 * base]),
                (4 * base, vec![(0, 7, NOOP)], vec![4 * base]),
            ]
        );
        assert_eq!(clock.pending(), [(8 * base, STATUS_TAG)]);
        // A wait from 5 periods on brings the chain back to its end; the
        // firing armed for 8 periods is cancelled.
        let entered = clock.at(&mut node, 5 * base + 1, |n, s| n.commit(8, false, s));
        let due = Time::from_ticks(8 * base);
        let superseded =
            |a: &ByzAction| matches!(*a, Action::CancelTimer(t, STATUS_TAG) if t == due);
        assert!(entered.iter().any(superseded), "{entered:?}");
        assert_eq!(timers_in(&entered, STATUS_TAG), [base]);
        let fired = clock.run(&mut node, 16 * base);
        assert!(fired.iter().all(|&(at, _)| at != 8 * base), "{fired:?}");
        let firings: Vec<u64> = fired.iter().map(|&(at, _)| at).collect();
        assert_eq!(
            firings[..2],
            [6 * base + 1, 8 * base + 1],
            "end, then a stall"
        );
    }

    /// A replica with nothing to propose that did not adopt its last
    /// entry holds the next height's engine back for one
    /// `ANSWER_INTERVAL`, and arms no timer of its own for it: a `Commit`
    /// with nothing to propose leaves it waiting, a status firing inside
    /// the wait fires again at its end, and that boots the height on a
    /// no-op.
    #[test]
    fn an_idle_replica_waits_one_answer_interval_then_boots() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let wait = ANSWER_INTERVAL.ticks();
        let mut clock = Timers::default();
        clock.at(&mut node, 0, |n, s| n.on_start(s));
        let entered = clock.at(&mut node, 5, |n, s| n.commit(NOOP, false, s));
        assert_eq!(timers_in(&entered, STATUS_TAG), []);
        assert_eq!(engine_heights(&entered), [], "no engine runs yet");
        assert_eq!(node.idle_until(), Some(Time::from_ticks(5 + wait)));
        let nothing = commit_carrying(&assign, NOOP);
        clock.at(&mut node, 7, |n, s| n.on_message(nothing, s));
        let fired = clock.run(&mut node, 5 + wait);
        let [(inside, early), (end, booted)] = &fired[..] else {
            panic!("{fired:?}");
        };
        assert_eq!((*inside, timers_in(early, STATUS_TAG)), (wait, vec![5]));
        assert_eq!(engine_heights(early), [], "still waiting");
        assert_eq!(*end, 5 + wait);
        assert_eq!(booted_in(booted), Some(1), "{booted:?}");
        assert_eq!(node.idle_until(), None);
        // A replica that adopted its entry is behind: it never waits.
        let adopted = actions_of(&mut node, 20, |n, s| n.commit(NOOP, true, s));
        assert_eq!(node.idle_until(), None);
        assert_eq!(booted_in(&adopted), Some(2));
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
    /// period past its boot repeat `Commit { 0, … }`, `commit_quorum` of
    /// which certify height 0 for it — after which it says so at once
    /// and, should it stall again, has something to repeat.
    #[test]
    fn a_replica_stalled_at_height_0_is_rescued_by_its_peers_statuses() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let idle = || byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let base = ANSWER_INTERVAL.ticks();
        let mut straggler = idle();
        let mut its_clock = Timers::default();
        its_clock.at(&mut straggler, 0, |n, s| n.on_start(s));
        let fired = its_clock.run(&mut straggler, 2 * base);
        let silent = |fired: &[Fired]| fired.iter().all(|(_, a)| commits_in(a).is_empty());
        assert!(fired.len() == 2 && silent(&fired), "nothing to repeat");
        // Two peers commit height 0 silently (no news), wait, boot height
        // 1 and stall there.
        let mut statuses = Vec::new();
        for _ in 0..idle().catch_up.opts.commit_quorum {
            let mut peer = idle();
            let mut clock = Timers::default();
            clock.at(&mut peer, 0, |n, s| n.on_start(s));
            let committed = clock.at(&mut peer, 3, |n, s| n.commit(7, false, s));
            assert!(commits_in(&committed).is_empty());
            let moved = clock.run(&mut peer, 3 * base + 2);
            assert!(silent(&moved), "it left height 0");
            let [(at, stalled)] = &clock.run(&mut peer, 3 * base + 3)[..] else {
                panic!("no firing");
            };
            assert_eq!(*at, 3 + 3 * base, "a period past the boot's firing");
            statuses.extend_from_slice(stalled);
        }
        assert_eq!(commits_in(&statuses), [(0, 7, NOOP); 2]);
        let heard = 3 * base + 4;
        its_clock.run(&mut straggler, heard);
        let mut adopted = Vec::new();
        for status in statuses {
            if let Action::Broadcast(msg) = status {
                adopted.extend(its_clock.at(&mut straggler, heard, |n, s| n.on_message(msg, s)));
            }
        }
        assert_eq!(short_log(&straggler), [7]);
        assert_eq!(commits_in(&adopted), [(0, 7, NOOP)], "adopted: it says so");
        // From here on it can ask for itself. The firing due at 4 periods
        // would only find that it moved: it is cancelled, and the next
        // one asks.
        let due = Time::from_ticks(4 * base);
        let moved = |a: &ByzAction| matches!(*a, Action::CancelTimer(t, STATUS_TAG) if t == due);
        assert!(adopted.iter().any(moved), "{adopted:?}");
        let asked = said(&its_clock.run(&mut straggler, 5 * base));
        let stalled = (5 * base, vec![(0, 7, NOOP)], vec![2 * base]);
        assert_eq!(asked, [stalled]);
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
        // asks at the second firing, the first being the one that would
        // only have found those boots.
        let mut laggard = byz_rsm_node(&assign, client);
        let mut clock = Timers::default();
        clock.at(&mut laggard, 0, |n, s| n.on_start(s));
        for &value in &log[..5] {
            clock.at(&mut laggard, 0, |n, s| n.commit(value, false, s));
        }
        let t = base.ticks();
        let [(_, asked)] = &clock.run(&mut laggard, 2 * t)[..] else {
            panic!("one firing, the one that asks");
        };
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
            let (quorum, ahead) = (node.catch_up.opts.commit_quorum, MAX_COMMIT_AHEAD);
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
        node.catch_up.opts.commit_quorum = 1;
        let forged = Identity::new(9_999);
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(forged, Time::ZERO, &mut actions);
        let kept = node.retained();
        let count = parts_of(4, 1) as u16;
        for height in 0..MAX_COMMIT_AHEAD {
            for value in [13, height, u64::MAX - height] {
                node.catch_up
                    .tally(height, value, forged, None, 0, &mut sink);
                let part = StatePart {
                    index: (value % u64::from(count)) as u16,
                    count,
                };
                node.catch_up
                    .tally(height + 1, value, forged, Some(part), 0, &mut sink);
            }
        }
        node.drain_certified(&mut sink);
        assert_eq!(node.height(), 0, "forged label must not certify");
        assert_eq!(node.retained(), kept, "forged label left an entry");
    }
}
