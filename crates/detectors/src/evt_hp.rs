//! Figure 6: `◇HP` in `HPS[∅]`, plus the Corollary 2 `HΩ` extraction.
//!
//! A polling-based detector for homonymous systems with partially
//! synchronous processes and eventually timely links, **without membership
//! knowledge**:
//!
//! * Task T1 runs in rounds: broadcast `POLLING(r, id(p))`, wait
//!   `timeout_p`, then gather into `h_trusted_p` the multiset of sender
//!   identifiers of `P_REPLY(r, r', id(p), id(q))` messages whose round
//!   interval covers the current round (`r ≤ r_p ≤ r'`).
//! * Task T2 answers a poll `POLLING(r_q, id(q))` with a **single**
//!   `P_REPLY(latest_r_p[id(q)] + 1, r_q, id(q), id(p))` covering every
//!   round not yet answered for that identifier — so homonymous pollers
//!   sharing an identifier are all served by one reply, and each correct
//!   process contributes exactly one identifier instance per round.
//! * Receiving a reply for an already-passed round (`r < r_p`) increases
//!   `timeout_p`, adapting to the unknown post-GST latency `δ` and process
//!   speeds (Lemma 5).
//!
//! Task T2's reply is **addressed**: it names the polled identifier, and a
//! process carrying another one drops it at the first line of its handler.
//! [`Process::addressee`] says so to the engine, which then delivers a
//! `P_REPLY` to the carriers of `id(q)` only — homonymous pollers are all
//! served because they all carry it, and the other `(ℓ − 1)/ℓ` of the
//! system is spared an event that did nothing. A `POLLING` names its
//! *sender*, not a reader: everyone answers it, so it is addressed to no
//! one. The detector says what it said, to fewer listeners.
//!
//! `HΩ` is extracted without extra communication (Corollary 2): after each
//! round, `h_leader_p ← min(h_trusted_p)` and `h_multiplicity_p ←
//! mult(h_leader_p)`.
//!
//! The paper's round-interval comparisons are implemented inclusively
//! (`r ≤ r_p ≤ r'`): a reply generated for exactly the current round
//! must count, otherwise no reply would ever match during lock-step
//! executions.
//!
//! # What a process holds
//!
//! A round end (lines 12-17) reads one thing from the replies a process
//! holds: the multiset of sender identifiers whose interval covers
//! `r_p`. The process keeps exactly that, per label, as a frontier:
//!
//! * how many of the label's held replies cover `r_p`;
//! * the label's change points after `r_p`, in round order, each a round
//!   and the signed net by which the count moves there. A reply
//!   `[from, to]` adds one at `from` — on the count itself when
//!   `from ≤ r_p` — and takes one away at `to + 1`; a point that nets
//!   zero goes.
//!
//! A continuation `[b + 1, c]` of a replier's run cancels the run's end
//! at `b + 1` and puts one at `c + 1`, so replies in a row from one
//! replier are one run whichever order they arrive in — Figure 6 lets a
//! *sender* cover a whole round interval with one `P_REPLY` so that one
//! message serves every homonymous poller, and this is the receiver-side
//! dual.
//!
//! A label's count and points sit together in one slot of a table, every
//! slot with room for as many points, a small label's slot at its own
//! index. What a reply costs: it finds its label's slot without a search,
//! adds to the count or looks through the slot's points from the back,
//! and moves at most the points after the one it touches. A reply nearly
//! always ends at or after every point its label has, so the look stops
//! at the last point or the one before it. What a round end costs: one
//! walk over the slots, which reads the bag off the counts (rebuilding
//! `h_trusted_p` only when they differ) and adds each label's first
//! point to its count when that point lies at `r_p + 1`. On the n = 32
//! detector run `durable_cycle` checkpoints, no label ever has more than
//! two points. When a reply finds its label's slot with fewer than two
//! free, every slot doubles its room; a label without a small index (`⊥`
//! among them) has a slot after the indexed ones, found by a scan.
//!
//! This is exact. The count a label has at round `r` is the number of
//! its held intervals covering `r`; a difference array stores that
//! function — the count at `r_p` and the nets after it — and merging
//! adjacent runs leaves it as it was. Rounds only grow, so nothing
//! before `r_p` is ever read again. The timeout adaptation (lines 33-34)
//! is evaluated before the reply is held and is untouched.
//!
//! It stays bounded, which a list of replies did not. Two carriers of
//! one label adapt different `timeout_p` — each counts its *own* late
//! replies — so their round counters drift apart. Every reply the faster
//! carrier's polls draw is addressed to the shared identifier, and the
//! slower carrier has to hold each of them: they cover rounds it has not
//! reached. Its own polls draw nothing (the repliers' `latest_r` for the
//! label is already past them), and it never catches up. Held one entry
//! per reply, that list grew linearly with the run: on the `log_steady`
//! benchmark stack (n = 8, ℓ = 4, workload seed 1), 100 000 ticks in,
//! the faster carrier of each of the four labels held 8 replies and the
//! slower one 1 339, 4 368, 1 720 and 7 296. Held as a count, a
//! replier's run is one start and one end that moves with each
//! continuation, however far the rounds drift: at most n runs, on every
//! process of the runs `tests/detector_state_bounds.rs` pins, at every
//! probe.
//!
//! # What a history holds
//!
//! A round end publishes an [`EvtHpSnapshot`] only when it has news: it
//! is the process's first, the gathered bag differs from the previous
//! round's, or the `HΩ` pair or `timeout_p` differs from the snapshot
//! last published. A history is therefore the list of *change points* of
//! the output, not one entry per round, and it stops growing when the
//! detector stabilises (three or four entries a process on a fault-free
//! run, however long).
//!
//! Nothing is lost. `◇HP` and `HΩ` constrain what `h_trusted_p` and
//! `(h_leader_p, h_multiplicity_p)` do *eventually*, and
//! `homonym_core::properties` reads a history as the step function of the
//! variable: the value at time `t` is the last entry at or before `t`, a
//! history converges where its last change is. Dropping an entry that
//! repeats the one before it leaves that function as it was — failure
//! detector classes are closed under such sampling (Lynch & Sastry's
//! asynchronous failure detectors take it as part of the definition) —
//! and this crate's `tests/detector_props.rs` checks it against the
//! variables themselves, tick by tick.
//!
//! On an entry, `round` is the round whose end produced the output and
//! `timeout` the `timeout_p` that round ended with; both stay
//! diagnostics. A round end that published nothing left the bag, the
//! pair and the timeout as the last entry has them. Whoever wants the
//! rounds themselves reads the recorder: a `DetectorEpoch` observation
//! is still emitted at every round end, changed or not.

use homonym_core::classes::{EvtHPOutput, HOmegaOutput, HSigmaOutput};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::{Consumes, TrustedCarriers};
use homonym_core::time::Span;
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::ObsKind;
use std::sync::Arc;

/// Protocol messages of Figure 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvtHpMsg {
    /// `POLLING(r, id)` — the sender (some process with identifier `id`)
    /// polls for round `r`.
    Polling {
        /// The poller's current round.
        round: u64,
        /// The poller's identifier.
        id: Identity,
    },
    /// `P_REPLY(from, to, target, sender)` — one reply covering every round
    /// in `[from, to]` for the polled identifier `target`.
    PReply {
        /// First round covered.
        from: u64,
        /// Last round covered.
        to: u64,
        /// The identifier that was polled.
        target: Identity,
        /// The replier's identifier (what `h_trusted` accumulates).
        sender: Identity,
    },
}

/// Returns a static class name for a message, for metrics classifiers.
#[must_use]
pub fn classify_evt_hp(msg: &EvtHpMsg) -> &'static str {
    match msg {
        EvtHpMsg::Polling { .. } => "POLLING",
        EvtHpMsg::PReply { .. } => "P_REPLY",
    }
}

/// The Byzantine payload mutation of a Figure 6 message (the
/// `Process::mutate_payload` hook of every `◇HP`-speaking process): the
/// carried **identifier** is forged by a small deterministic
/// perturbation — a corrupt homonym claiming a namesake's (or a
/// phantom's) identity. Forged `P_REPLY` senders pollute the victims'
/// `h_trusted` bags — under homonymy the forgery is indistinguishable
/// from an honest namesake's reply — and forged `POLLING` identifiers
/// make victims track (and answer) phantom pollers. Rounds and reply
/// windows stay intact so receivers accept the copy as in-protocol.
#[must_use]
pub fn mutate_evt_hp_msg(msg: &EvtHpMsg, entropy: u64) -> EvtHpMsg {
    let forge = |id: Identity| Identity::new(id.raw().wrapping_add(1 + entropy % 3));
    match *msg {
        EvtHpMsg::Polling { round, id } => EvtHpMsg::Polling {
            round,
            id: forge(id),
        },
        EvtHpMsg::PReply {
            from,
            to,
            target,
            sender,
        } => EvtHpMsg::PReply {
            from,
            to,
            target,
            sender: forge(sender),
        },
    }
}

/// Snapshot published at a round end that has news ("What a history
/// holds" in the module docs): the `◇HP` output together with the `HΩ`
/// view extracted from it.
///
/// One pointer wide: the fields live behind an `Arc` and are read
/// through `Deref` (`snap.h_omega`), so a history entry of a stack with
/// this detector underneath costs what the other half's output costs —
/// 32 bytes with a log entry beside it, not 48. A snapshot is allocated
/// once per published change point (three or four a process on a quiet
/// run). On the wire it is its fields, not a shared reference.
#[derive(Clone, PartialEq, Eq)]
pub struct EvtHpSnapshot(Arc<EvtHpReading>);

/// The fields of an [`EvtHpSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvtHpReading {
    /// The `◇HP` variable `h_trusted_p`, shared with every other
    /// snapshot published since the bag last changed.
    pub evt_hp: Arc<EvtHPOutput>,
    /// The Corollary 2 extraction `(h_leader_p, h_multiplicity_p)`.
    pub h_omega: HOmegaOutput,
    /// The round whose end produced this output (diagnostic, not part of
    /// the class).
    pub round: u64,
    /// The adaptive timeout at the end of that round (diagnostic).
    pub timeout: u64,
}

impl EvtHpSnapshot {
    /// Wraps one round end's reading.
    #[must_use]
    pub fn new(reading: EvtHpReading) -> Self {
        EvtHpSnapshot(Arc::new(reading))
    }
}

impl std::ops::Deref for EvtHpSnapshot {
    type Target = EvtHpReading;

    fn deref(&self) -> &EvtHpReading {
        &self.0
    }
}

impl std::fmt::Debug for EvtHpSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Splits a recorded snapshot history into the two class histories.
#[must_use]
pub fn split_snapshots(
    hist: &homonym_core::properties::History<EvtHpSnapshot>,
) -> (
    homonym_core::properties::History<EvtHPOutput>,
    homonym_core::properties::History<HOmegaOutput>,
) {
    let evt = hist
        .iter()
        .map(|(t, s)| (*t, EvtHPOutput::clone(&s.evt_hp)))
        .collect();
    let omg = hist.iter().map(|(t, s)| (*t, s.h_omega)).collect();
    (evt, omg)
}

/// A snapshot's trusted carriers are its `◇HP` bag.
impl TrustedCarriers for EvtHpSnapshot {
    fn h_trusted(&self) -> &Multiset<Identity> {
        &self.evt_hp.h_trusted
    }
}

/// A consumer stacked on the detector reads `HΩ` from every published
/// snapshot: its reading then equals the process's `h_omega` from the
/// first round end on (the pair moves only with a published bag).
impl Consumes<EvtHpSnapshot> for HOmegaOutput {
    fn consume(&mut self, output: &EvtHpSnapshot) {
        *self = output.h_omega;
    }
}

/// An `HΣ` reading has nothing to take from `◇HP` (Figure 9 reads both
/// detectors in one process).
impl Consumes<EvtHpSnapshot> for HSigmaOutput {}

const ROUND: TimerTag = TimerTag(0);

/// Identifiers below this use direct-indexed tables: the membership's
/// `latest_r`, and the held replies' slots.
const DENSE: u64 = 256;

/// Points a slot of the held replies has room for when it is made.
const STRIDE: u32 = 4;

/// One cell of the held replies. A label's slot is a head — `key` the
/// label, `net` its count covering `r_p`, `len` how many points follow —
/// and room for `stride` points, of which the first `len` are used: `key`
/// a round after `r_p`, `net` what the count moves by there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    key: u64,
    net: i32,
    len: u32,
}

/// The replies a process holds, as the round end reads them ("What a
/// process holds"): a slot of `stride + 1` [`Cell`]s per label, in label
/// order. The first `dense` slots are direct-indexed — a label below
/// [`DENSE`] at slot `label` — and one slot follows per other label. A
/// slot, once made, stays, holding nothing when no reply of its label
/// is held (as the membership keeps every identifier it answered).
#[derive(Debug)]
struct Held {
    cells: Vec<Cell>,
    dense: u32,
    /// Points every slot has room for: doubled when a reply finds its
    /// label's slot with fewer than two free, never shrunk.
    stride: u32,
}

impl Held {
    const fn new() -> Self {
        Held {
            cells: Vec::new(),
            dense: 0,
            stride: STRIDE,
        }
    }

    /// Cells a slot takes.
    fn width(&self) -> usize {
        self.stride as usize + 1
    }

    /// The labels with replies covering `r_p`, in label order, and how
    /// many each.
    fn counts(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let heads = self.cells.chunks_exact(self.width()).map(|slot| slot[0]);
        heads
            .filter(|head| head.net > 0)
            .map(|head| (head.key, head.net as usize))
    }

    /// Runs held: the replies covering `r_p` and the points where more
    /// start ([`EvtHpProcess::pending_len`]).
    fn runs(&self) -> usize {
        let runs = |slot: &[Cell]| {
            let starts = slot[1..=slot[0].len as usize].iter();
            slot[0].net as usize + starts.map(|p| p.net.max(0) as usize).sum::<usize>()
        };
        self.cells.chunks_exact(self.width()).map(runs).sum()
    }

    /// Holds a reply `[from, to]` at round `r ≤ to`: one more for
    /// `sender` over those rounds, on its count now or at a point later,
    /// and one fewer from `to + 1` on. A malformed interval (`from > to`)
    /// covers nothing and is not held.
    fn hold(&mut self, r: u64, from: u64, to: u64, sender: Identity) {
        if from > to {
            return;
        }
        let at = self.slot(sender.raw());
        let width = self.width();
        let (head, points) = self.cells[at..at + width].split_at_mut(1);
        let head = &mut head[0];
        if from <= r {
            head.net += 1;
        } else {
            shift(head, points, from, 1);
        }
        if let Some(after) = to.checked_add(1) {
            shift(head, points, after, -1);
        }
    }

    /// Where `label`'s slot starts, with room for the two points a reply
    /// may add.
    fn slot(&mut self, label: u64) -> usize {
        if label < u64::from(self.dense) {
            let at = label as usize * self.width();
            if self.cells[at].len + 2 <= self.stride {
                return at;
            }
        }
        self.make_slot(label)
    }

    /// [`Held::slot`] when `label` has no slot yet or too full a one:
    /// makes the slot (a direct-indexed label makes every one below it
    /// too), then widens every slot if need be.
    #[cold]
    fn make_slot(&mut self, label: u64) -> usize {
        let width = self.width();
        let sparse = self.dense as usize * width;
        let at = if label < DENSE {
            if label >= u64::from(self.dense) {
                self.insert_slots(sparse, u64::from(self.dense)..=label);
                self.dense = label as u32 + 1;
            }
            label as usize * width
        } else {
            let slots = self.cells[sparse..].chunks_exact(width);
            let at = sparse + slots.take_while(|slot| slot[0].key < label).count() * width;
            if self.cells.get(at).is_none_or(|head| head.key != label) {
                self.insert_slots(at, label..=label);
            }
            at
        };
        if self.cells[at].len + 2 <= self.stride {
            return at;
        }
        self.widen();
        at / width * self.width()
    }

    /// Makes a slot holding nothing for each label of `labels`, from cell
    /// `at` on; the slots there move up.
    fn insert_slots(&mut self, at: usize, labels: std::ops::RangeInclusive<u64>) {
        let (width, end) = (self.width(), self.cells.len());
        for label in labels {
            self.cells.resize(self.cells.len() + width, Cell::default());
            let head = self.cells.len() - width;
            self.cells[head].key = label;
        }
        self.cells[at..].rotate_left(end - at);
    }

    /// Doubles the points every slot has room for.
    fn widen(&mut self) {
        let (width, more) = (self.width(), self.stride as usize);
        let mut cells = Vec::with_capacity(self.cells.len() / width * (width + more));
        for slot in self.cells.chunks_exact(width) {
            cells.extend_from_slice(slot);
            cells.extend(std::iter::repeat_n(Cell::default(), more));
        }
        self.cells = cells;
        self.stride *= 2;
    }

    /// Moves every count from round `r` to `r + 1`: a slot's first point
    /// is its earliest after `r`, and one at `r + 1` joins the count.
    fn advance(&mut self, r: u64) {
        for slot in self.cells.chunks_exact_mut(self.stride as usize + 1) {
            let (head, points) = slot.split_at_mut(1);
            let head = &mut head[0];
            let len = head.len as usize;
            if len > 0 && points[0].key == r + 1 {
                head.net += points[0].net;
                points.copy_within(1..len, 0);
                head.len -= 1;
            }
        }
    }

    /// Writes the slots that hold something, in label order, for a
    /// process at round `r`: how many, then per slot the label, its count
    /// covering `r`, how many points follow, and each as its round's step
    /// from the one before (from `r` for the first) and its zigzagged
    /// net. Where a slot sits and how wide it is are not written: they
    /// follow from the labels and the points.
    fn save(&self, s: &mut Saver, r: u64) {
        let slots = self.cells.chunks_exact(self.width());
        let held = slots.filter(|slot| slot[0].net != 0 || slot[0].len != 0);
        s.len(held.clone().count());
        for slot in held {
            let head = slot[0];
            s.u64(head.key);
            s.u32(head.net as u32);
            s.len(head.len as usize);
            let mut before = r;
            for point in &slot[1..=head.len as usize] {
                s.u64(point.key - before);
                s.u32(zigzag(point.net));
                before = point.key;
            }
        }
    }

    /// Reads what [`Held::save`] writes and nothing else — labels in
    /// order, each holding something, its points after `r` in round
    /// order, none of zero net, no count below zero — so what it returns
    /// a run could have reached, and it encodes to the bytes it came
    /// from.
    fn load(l: &mut Loader<'_>, r: u64) -> Result<Self, WireError> {
        let bad = |what| WireError::BadValue { what };
        let slots = l.len()?;
        let mut held = Held {
            cells: l.vec_for(slots.saturating_mul(STRIDE as usize + 1)),
            ..Held::new()
        };
        let mut last = None;
        for _ in 0..slots {
            let label = l.u64()?;
            if last.is_some_and(|last| last >= label) {
                return Err(bad("held labels out of order"));
            }
            last = Some(label);
            let count = l.u32()?;
            let len = l.len()?;
            if count == 0 && len == 0 {
                return Err(bad("held label holding nothing"));
            }
            // The label's count at each of its points: never below zero.
            let mut running = i32::try_from(count).map_err(|_| bad("held count out of range"))?;
            // Labels come in order: the slot goes at the end, after an
            // empty one for each direct-indexed label it skips.
            let first = if label < DENSE {
                let skipped = u64::from(held.dense);
                held.dense = label as u32 + 1;
                skipped
            } else {
                label
            };
            held.insert_slots(held.cells.len(), first..=label);
            let mut at = held.cells.len() - held.width();
            held.cells[at].net = running;
            let mut before = r;
            for i in 0..len {
                let round = before
                    .checked_add(l.u64()?)
                    .ok_or(bad("held round past u64"))?;
                if round <= r {
                    return Err(bad("held point at or before r_p"));
                }
                if round <= before {
                    return Err(bad("held rounds not increasing"));
                }
                let net = unzigzag(l.u32()?);
                if net == 0 {
                    return Err(bad("held point of zero net"));
                }
                running = running
                    .checked_add(net)
                    .filter(|&count| count >= 0)
                    .ok_or(bad("held count out of range"))?;
                if i == held.stride as usize {
                    let slot = at / held.width();
                    held.widen();
                    at = slot * held.width();
                }
                held.cells[at + 1 + i] = Cell {
                    key: round,
                    net,
                    len: 0,
                };
                held.cells[at].len += 1;
                before = round;
            }
        }
        Ok(held)
    }
}

/// Moves the count of the slot headed by `head` by `net` from `round`
/// (after `r_p`) on: the point there changes, goes when it nets zero, or
/// is made in round order. Searched from the back, since a reply nearly
/// always ends at or after every point its label has; `points` has room
/// for one more.
fn shift(head: &mut Cell, points: &mut [Cell], round: u64, net: i32) {
    let len = head.len as usize;
    let points = &mut points[..=len];
    let mut i = len;
    while i > 0 && points[i - 1].key > round {
        i -= 1;
    }
    if i > 0 && points[i - 1].key == round {
        points[i - 1].net += net;
        if points[i - 1].net == 0 {
            points.copy_within(i..len, i - 1);
            head.len -= 1;
        }
    } else {
        points.copy_within(i..len, i + 1);
        points[i] = Cell {
            key: round,
            net,
            len: 0,
        };
        head.len += 1;
    }
}

/// `clone_from` reuses the target's cells.
impl Clone for Held {
    fn clone(&self) -> Self {
        Held {
            cells: self.cells.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cells.clone_from(&source.cells);
        self.dense = source.dense;
        self.stride = source.stride;
    }
}

/// The Figure 6 process.
#[derive(Debug)]
pub struct EvtHpProcess {
    h_omega: HOmegaOutput,
    round: u64,
    timeout: u64,
    /// `identifier -> latest_r` for small dense identifiers
    /// (`raw < DENSE`): a direct-indexed table, since the paper's
    /// homonymy degree ℓ is tiny and identifiers are usually `0..ℓ`.
    /// Entry `0` doubles as "never answered" — exactly the initial
    /// `latest_r` the sparse path would insert.
    mship_dense: Vec<u64>,
    /// `identifier -> latest_r` fallback for large/`⊥` identifiers: a
    /// sorted, binary-searched vector (still cheaper than a tree).
    mship: Vec<(Identity, u64)>,
    /// The held replies as the round end reads them ("What a process
    /// holds").
    held: Held,
    /// The `◇HP` variable `h_trusted_p`, held once: rebuilt only when the
    /// membership actually changes, and shared by every snapshot
    /// published since instead of re-wrapped (or copied) each round.
    snapshot: Arc<EvtHPOutput>,
    /// The `HΩ` pair and `timeout_p` of the snapshot last published
    /// (its bag is `snapshot`); `None` until the first round ends.
    published: Option<(HOmegaOutput, u64)>,
    adaptive: bool,
    started: bool,
}

impl EvtHpProcess {
    /// Creates a Figure 6 process with the paper's initial values
    /// (`r_p = 1`, `timeout_p = 1`, empty membership).
    #[must_use]
    pub fn new() -> Self {
        EvtHpProcess {
            // Arbitrary initial HΩ view; the class only constrains the
            // eventual output. Set at start to (id(p), 1).
            h_omega: HOmegaOutput::new(Identity::BOTTOM, 1),
            round: 1,
            timeout: 1,
            mship_dense: Vec::new(),
            mship: Vec::new(),
            held: Held::new(),
            snapshot: Arc::default(),
            published: None,
            adaptive: true,
            started: false,
        }
    }

    /// **Ablation**: freezes `timeout_p` at `ticks` and disables the
    /// lines 33-34 adaptation. With a timeout below the (unknown) round
    /// trip the detector provably never converges — the experiment
    /// `exp ablation` uses this to show the adaptation is load-bearing
    /// (Lemma 5).
    #[must_use]
    pub fn with_fixed_timeout(mut self, ticks: u64) -> Self {
        self.timeout = ticks.max(1);
        self.adaptive = false;
        self
    }

    /// Current `h_trusted_p`.
    #[must_use]
    pub fn h_trusted(&self) -> &Multiset<Identity> {
        &self.snapshot.h_trusted
    }

    /// Current `HΩ` extraction.
    #[must_use]
    pub fn h_omega(&self) -> HOmegaOutput {
        self.h_omega
    }

    /// Current round `r_p`.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current adaptive `timeout_p` in ticks.
    #[must_use]
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Runs of held replies — those covering `r_p` plus those starting
    /// later — a diagnostic for the boundedness tests: replies in a row
    /// from one replier are one run, however far a homonym's rounds have
    /// drifted (see "What a process holds" in the module docs).
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.held.runs()
    }

    fn poll(&self, ctx: &mut ActionSink<'_, EvtHpMsg, EvtHpSnapshot>) {
        ctx.broadcast(EvtHpMsg::Polling {
            round: self.round,
            id: ctx.my_id(),
        });
        ctx.set_timer(Span::from_ticks(self.timeout), ROUND);
    }

    fn end_round(&mut self, ctx: &mut ActionSink<'_, EvtHpMsg, EvtHpSnapshot>) {
        // Lines 12-17: the gathered bag — one identifier instance per
        // covering reply — is the count itself. Once the detector has
        // converged every round gathers the same membership, so the
        // common case skips the bag rebuild, the HΩ extraction and the
        // snapshot re-wrap entirely — the round then allocates nothing.
        let r = self.round;
        let trusted = self.h_trusted().counted().map(|(id, n)| (id.raw(), n));
        let changed = !trusted.eq(self.held.counts());
        if changed {
            let mut bag = Multiset::new();
            for (label, count) in self.held.counts() {
                bag.insert_n(Identity::new(label), count);
            }
            // Corollary 2: HΩ extraction, no communication.
            if let Some(&leader) = bag.min_elem() {
                let mult = bag.multiplicity(&leader);
                let next = HOmegaOutput::new(leader, mult);
                if next != self.h_omega {
                    ctx.observe(|| ObsKind::LeaderFlip {
                        round: r,
                        leader,
                        multiplicity: u32::try_from(mult).unwrap_or(u32::MAX),
                    });
                }
                self.h_omega = next;
            }
            self.snapshot = Arc::new(EvtHPOutput::new(bag));
        }
        let trusted = self.h_trusted().len();
        ctx.observe(|| ObsKind::DetectorEpoch {
            round: r,
            trusted: u32::try_from(trusted).unwrap_or(u32::MAX),
            changed,
        });
        // A history records changes, not rounds ("What a history holds").
        let said = Some((self.h_omega, self.timeout));
        if changed || self.published != said {
            ctx.publish(EvtHpSnapshot::new(EvtHpReading {
                evt_hp: Arc::clone(&self.snapshot),
                h_omega: self.h_omega,
                round: r,
                timeout: self.timeout,
            }));
            self.published = said;
        }
        self.held.advance(r);
        self.round += 1;
        self.poll(ctx);
    }
}

/// `clone_from` reuses the target's tables, so an engine restoring a
/// snapshot into itself allocates nothing for a process that holds no
/// more than it did.
impl Clone for EvtHpProcess {
    fn clone(&self) -> Self {
        EvtHpProcess {
            mship_dense: self.mship_dense.clone(),
            mship: self.mship.clone(),
            held: self.held.clone(),
            snapshot: Arc::clone(&self.snapshot),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let EvtHpProcess {
            h_omega,
            round,
            timeout,
            mship_dense,
            mship,
            held,
            snapshot,
            published,
            adaptive,
            started,
        } = source;
        self.h_omega = *h_omega;
        self.round = *round;
        self.timeout = *timeout;
        self.mship_dense.clone_from(mship_dense);
        self.mship.clone_from(mship);
        self.held.clone_from(held);
        self.snapshot.clone_from(snapshot);
        self.published = *published;
        self.adaptive = *adaptive;
        self.started = *started;
    }
}

impl Default for EvtHpProcess {
    fn default() -> Self {
        EvtHpProcess::new()
    }
}

impl Process for EvtHpProcess {
    type Msg = EvtHpMsg;
    type Output = EvtHpSnapshot;

    fn mutate_payload(msg: &EvtHpMsg, entropy: u64) -> Option<EvtHpMsg> {
        Some(mutate_evt_hp_msg(msg, entropy))
    }

    /// A `P_REPLY` is read at the polled identifier alone (the first line
    /// of its arm in `on_message`); a `POLLING` is answered by everyone.
    fn addressee(msg: &EvtHpMsg) -> Option<Identity> {
        match *msg {
            EvtHpMsg::Polling { .. } => None,
            EvtHpMsg::PReply { target, .. } => Some(target),
        }
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, EvtHpMsg, EvtHpSnapshot>) {
        self.started = true;
        self.h_omega = HOmegaOutput::new(ctx.my_id(), 1);
        self.poll(ctx);
    }

    fn on_message(&mut self, msg: EvtHpMsg, ctx: &mut ActionSink<'_, EvtHpMsg, EvtHpSnapshot>) {
        match msg {
            // Task T2, lines 22-31.
            EvtHpMsg::Polling { round, id } => {
                let latest: &mut u64 = if id.raw() < DENSE {
                    let idx = id.raw() as usize;
                    if self.mship_dense.len() <= idx {
                        self.mship_dense.resize(idx + 1, 0);
                    }
                    &mut self.mship_dense[idx]
                } else {
                    let slot = match self.mship.binary_search_by_key(&id, |&(i, _)| i) {
                        Ok(i) => i,
                        Err(i) => {
                            self.mship.insert(i, (id, 0));
                            i
                        }
                    };
                    &mut self.mship[slot].1
                };
                if *latest < round {
                    ctx.broadcast(EvtHpMsg::PReply {
                        from: *latest + 1,
                        to: round,
                        target: id,
                        sender: ctx.my_id(),
                    });
                    *latest = round;
                }
            }
            // Reply handling: lines 13-16 (gathering) + 33-34 (adaptation).
            EvtHpMsg::PReply {
                from,
                to,
                target,
                sender,
            } => {
                if target != ctx.my_id() {
                    return;
                }
                // Lines 33-34: a reply whose interval starts before the
                // current round arrived late; widen the timeout.
                if self.adaptive && from < self.round {
                    self.timeout += 1;
                }
                if to >= self.round {
                    self.held.hold(self.round, from, to, sender);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, EvtHpMsg, EvtHpSnapshot>) {
        debug_assert_eq!(timer, ROUND);
        self.end_round(ctx);
    }
}

homonym_core::persist_enum!(EvtHpMsg {
    Polling = 0 { round, id },
    PReply = 1 { from, to, target, sender },
});

homonym_core::persist_fields!(EvtHpReading {
    evt_hp,
    h_omega,
    round,
    timeout
});

/// A snapshot is saved as its fields: through the `Arc` it would take an
/// alias-table tag per history entry, and no two entries share one.
impl Persist for EvtHpSnapshot {
    fn save(&self, s: &mut Saver) {
        EvtHpReading::save(self, s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        EvtHpReading::load(l).map(EvtHpSnapshot::new)
    }
}

/// A process is its fields in declaration order, its held replies per
/// label holding something: the count covering `r_p`, then each point
/// as its round's step from the one before and its zigzagged net.
impl Persist for EvtHpProcess {
    fn save(&self, s: &mut Saver) {
        let EvtHpProcess {
            h_omega,
            round,
            timeout,
            mship_dense,
            mship,
            held,
            snapshot,
            published,
            adaptive,
            started,
        } = self;
        h_omega.save(s);
        round.save(s);
        timeout.save(s);
        mship_dense.save(s);
        mship.save(s);
        held.save(s, *round);
        snapshot.save(s);
        published.save(s);
        adaptive.save(s);
        started.save(s);
    }

    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let h_omega = Persist::load(l)?;
        let round = Persist::load(l)?;
        let timeout = Persist::load(l)?;
        let mship_dense = Persist::load(l)?;
        let mship = Persist::load(l)?;
        let held = Held::load(l, round)?;
        Ok(EvtHpProcess {
            h_omega,
            round,
            timeout,
            mship_dense,
            mship,
            held,
            snapshot: Persist::load(l)?,
            published: Persist::load(l)?,
            adaptive: Persist::load(l)?,
            started: Persist::load(l)?,
        })
    }
}

/// A net as a varint that keeps a small one small whatever its sign.
fn zigzag(net: i32) -> u32 {
    ((net << 1) ^ (net >> 31)) as u32
}

fn unzigzag(v: u32) -> i32 {
    (v >> 1) as i32 ^ -((v & 1) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;

    fn hps_network(gst: u64, delta: u64) -> NetworkModel {
        NetworkModel::PartialSync {
            gst: Time::from_ticks(gst),
            delta: Span::from_ticks(delta),
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 40,
                max_delay: Span::from_ticks(30),
            },
        }
    }

    fn run_fig6(
        assign: IdentityAssignment,
        sched: FailureSchedule,
        network: NetworkModel,
        horizon: u64,
        seed: u64,
    ) -> (Vec<History<EvtHPOutput>>, Vec<History<HOmegaOutput>>) {
        let cfg = SimConfig::new(assign, sched, network).with_seed(seed);
        let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
        engine.set_classifier(classify_evt_hp);
        engine.run_until(Time::from_ticks(horizon));
        let mut evt = Vec::new();
        let mut omg = Vec::new();
        for h in engine.histories() {
            let (e, o) = split_snapshots(h);
            evt.push(e);
            omg.push(o);
        }
        (evt, omg)
    }

    #[test]
    fn converges_in_partial_synchrony_with_homonyms() {
        let assign = IdentityAssignment::round_robin(5, 2); // A B A B A
        let sched = FailureSchedule::none(5)
            .with_crash(1, Time::from_ticks(30))
            .with_crash(4, Time::from_ticks(80));
        let (evt, omg) = run_fig6(assign.clone(), sched.clone(), hps_network(60, 3), 1200, 7);
        let rep = check_evt_hp(&evt, &sched, &assign).expect("◇HP class valid");
        assert!(
            rep.stabilization >= Time::from_ticks(60),
            "cannot converge before GST"
        );
        let orep = check_h_omega(&omg, &sched, &assign).expect("HΩ class valid");
        // Correct: p0(A), p2(A), p3(B) -> leader A with multiplicity 2.
        assert_eq!(orep.leader, Identity::new(0));
        assert_eq!(orep.multiplicity, 2);
    }

    #[test]
    fn converges_under_synchronous_links_immediately() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let sched = FailureSchedule::none(4);
        let (evt, _) = run_fig6(
            assign.clone(),
            sched.clone(),
            NetworkModel::reliable(Span::TICK),
            400,
            3,
        );
        let rep = check_evt_hp(&evt, &sched, &assign).expect("◇HP class valid");
        assert!(rep.stabilization < Time::from_ticks(100));
    }

    #[test]
    fn anonymous_system_counts_alive_bottoms() {
        // All processes share ⊥: h_trusted converges to ⊥^|Correct|,
        // which is exactly the AP-style alive count.
        let assign = IdentityAssignment::anonymous(4);
        let sched = FailureSchedule::none(4).with_crash(0, Time::from_ticks(25));
        let (evt, omg) = run_fig6(assign.clone(), sched.clone(), hps_network(40, 2), 900, 11);
        check_evt_hp(&evt, &sched, &assign).expect("◇HP class valid");
        let orep = check_h_omega(&omg, &sched, &assign).expect("HΩ class valid");
        assert_eq!(orep.leader, Identity::BOTTOM);
        assert_eq!(orep.multiplicity, 3);
    }

    #[test]
    fn unique_ids_reduce_to_classical_leader_election() {
        let assign = IdentityAssignment::unique(5);
        let sched = FailureSchedule::none(5).with_crash(0, Time::from_ticks(10));
        let (_, omg) = run_fig6(assign.clone(), sched.clone(), hps_network(30, 2), 900, 5);
        let orep = check_h_omega(&omg, &sched, &assign).expect("HΩ class valid");
        // Smallest *correct* identifier: B (p0=A crashed).
        assert_eq!(orep.leader, Identity::new(1));
        assert_eq!(orep.multiplicity, 1);
    }

    #[test]
    fn timeout_adapts_and_stops_growing_after_convergence() {
        let assign = IdentityAssignment::unique(3);
        let sched = FailureSchedule::none(3);
        let cfg = SimConfig::new(assign, sched, hps_network(50, 4)).with_seed(9);
        let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
        engine.run_until(Time::from_ticks(2000));
        for p in 0..3 {
            let hist = engine.histories()[p].clone();
            let final_timeout = hist.last().expect("rounds ran").1.timeout;
            assert!(final_timeout >= 1);
            // The timeout must stop growing well before the horizon:
            // find the last round where it changed.
            let last_growth = hist
                .windows(2)
                .rev()
                .find(|w| w[1].1.timeout != w[0].1.timeout)
                .map(|w| w[1].0);
            if let Some(t) = last_growth {
                assert!(
                    t < Time::from_ticks(1500),
                    "timeout still growing at {t} (final {final_timeout})"
                );
            }
        }
    }

    #[test]
    fn one_reply_serves_all_homonymous_pollers() {
        // Two homonyms poll with the same identifier; every other process
        // must answer each identifier-round at most once.
        let assign =
            IdentityAssignment::custom(vec![Identity::new(0), Identity::new(0), Identity::new(1)]);
        let sched = FailureSchedule::none(3);
        let cfg = SimConfig::new(assign, sched, NetworkModel::reliable(Span::TICK)).with_seed(1);
        let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
        engine.set_classifier(classify_evt_hp);
        engine.run_until(Time::from_ticks(300));
        let m = engine.metrics().by_class.clone();
        // Each receiver answers each *identifier* (2 distinct) once per
        // round, so P_REPLY ≈ 2 × POLLING. Without identifier-level dedup
        // each *poller* (3 of them) would be answered: ≈ 3 × POLLING.
        assert!(
            m["P_REPLY"] * 10 <= m["POLLING"] * 22,
            "reply dedup failed: {m:?}"
        );
        assert!(
            m["P_REPLY"] * 10 >= m["POLLING"] * 15,
            "replies unexpectedly scarce: {m:?}"
        );
    }

    /// A continuation that arrives before its predecessor still
    /// coalesces: `[r, r]`, `[r + 2, r + 2]`, then `[r + 1, r + 1]` from
    /// one replier are one run, covering each of the three rounds once.
    #[test]
    fn a_run_completed_out_of_order_is_one_run() {
        let (me, sender) = (Identity::new(1), Identity::new(2));
        let mut actions = Vec::new();
        let mut proc = EvtHpProcess::new();
        let r = proc.round();
        for (from, to) in [(r, r), (r + 2, r + 2), (r + 1, r + 1)] {
            let mut sink = ActionSink::new(me, Time::ZERO, &mut actions);
            proc.on_message(
                EvtHpMsg::PReply {
                    from,
                    to,
                    target: me,
                    sender,
                },
                &mut sink,
            );
        }
        assert_eq!(proc.pending_len(), 1);
        for trusted in [1, 1, 1, 0] {
            proc.on_timer(ROUND, &mut ActionSink::new(me, Time::ZERO, &mut actions));
            assert_eq!(proc.h_trusted().multiplicity(&sender), trusted);
        }
    }

    /// A label's held replies as written: `(label, count, [(step, net)])`.
    type Written<'a> = (u64, u32, &'a [(u64, i32)]);

    /// The bytes of a process at round 5 whose held replies are `held`,
    /// laid out as [`Held::save`] lays them out.
    fn held_bytes(held: &[Written<'_>]) -> Vec<u8> {
        let proc = EvtHpProcess {
            round: 5,
            ..EvtHpProcess::new()
        };
        let mut s = Saver::new();
        proc.h_omega.save(&mut s);
        proc.round.save(&mut s);
        proc.timeout.save(&mut s);
        proc.mship_dense.save(&mut s);
        proc.mship.save(&mut s);
        s.len(held.len());
        for &(label, count, points) in held {
            s.u64(label);
            s.u32(count);
            s.len(points.len());
            for &(step, net) in points {
                s.u64(step);
                s.u32(zigzag(net));
            }
        }
        proc.snapshot.save(&mut s);
        proc.published.save(&mut s);
        proc.adaptive.save(&mut s);
        proc.started.save(&mut s);
        s.finish()
    }

    fn decode(bytes: &[u8]) -> Result<EvtHpProcess, WireError> {
        homonym_core::wire::from_bytes(bytes)
    }

    fn refused(what: &'static str) -> Option<WireError> {
        Some(WireError::BadValue { what })
    }

    /// Held replies in the one form a process holds them decode to a
    /// process that encodes to the same bytes and gathers what they
    /// say: label 1 has two replies covering round 5, one ending with it
    /// and one two rounds later; `⊥`, which has no direct-indexed slot,
    /// has one starting at round 7.
    #[test]
    fn held_replies_decode_to_what_they_say() {
        let bytes = held_bytes(&[(1, 2, &[(1, -1), (2, -1)]), (u64::MAX, 0, &[(2, 1)])]);
        let mut proc = decode(&bytes).expect("a process can hold this");
        assert_eq!(homonym_core::wire::to_bytes(&proc), bytes);
        assert_eq!(proc.pending_len(), 3);
        let (me, one) = (Identity::new(7), Identity::new(1));
        let mut actions = Vec::new();
        for (ones, bottoms) in [(2, 0), (1, 0), (1, 1), (0, 1)] {
            proc.on_timer(ROUND, &mut ActionSink::new(me, Time::ZERO, &mut actions));
            assert_eq!(proc.h_trusted().multiplicity(&one), ones);
            assert_eq!(proc.h_trusted().multiplicity(&Identity::BOTTOM), bottoms);
        }
    }

    #[test]
    fn a_held_point_of_zero_net_is_refused() {
        let bytes = held_bytes(&[(1, 2, &[(1, -1), (2, 0)])]);
        assert_eq!(decode(&bytes).err(), refused("held point of zero net"));
    }

    #[test]
    fn held_points_out_of_round_order_are_refused() {
        let bytes = held_bytes(&[(1, 2, &[(1, -1), (0, -1)])]);
        assert_eq!(decode(&bytes).err(), refused("held rounds not increasing"));
    }

    #[test]
    fn a_held_point_at_r_p_is_refused() {
        let bytes = held_bytes(&[(1, 2, &[(0, -1), (1, -1)])]);
        assert_eq!(decode(&bytes).err(), refused("held point at or before r_p"));
    }

    /// What the held replies replace: one entry per reply, as Figure 6
    /// states it, with the same round-end reading.
    struct NaiveReplies {
        held: Vec<(u64, u64, Identity)>,
        round: u64,
        timeout: u64,
    }

    impl NaiveReplies {
        fn reply(&mut self, from: u64, to: u64, sender: Identity) {
            if from < self.round {
                self.timeout += 1;
            }
            if to >= self.round {
                self.held.push((from, to, sender));
            }
        }

        /// Ends the round: the sorted senders covering it.
        fn end_round(&mut self) -> Vec<Identity> {
            let r = self.round;
            let covers = |&&(from, to, _): &&(u64, u64, Identity)| from <= r && r <= to;
            let mut gather: Vec<Identity> = self.held.iter().filter(covers).map(|h| h.2).collect();
            gather.sort_unstable();
            self.held.retain(|&(_, to, _)| to > r);
            self.round += 1;
            gather
        }
    }

    proptest::proptest! {
        /// Coalescing on arrival is invisible: under random reply streams
        /// — runs that continue where the same sender's (or, to tempt a
        /// merge that ignores the sender, another's) last reply ended,
        /// the same interval twice as two homonymous repliers send it,
        /// continuations that arrive after their successor, late
        /// replies, gaps, overlaps, malformed intervals, intervals from
        /// round 0 and to `u64::MAX`, from small labels and from `⊥`,
        /// which has no direct-indexed slot — the process gathers the
        /// naive list's multiset at every round end and adapts the same
        /// timeout.
        #[test]
        fn coalesced_replies_gather_what_the_naive_list_gathers(
            steps in proptest::collection::vec((0u8..16, 0usize..4, 0u64..6, 0u64..5), 1..120usize),
        ) {
            const FILL: u8 = 13;
            const SENDERS: [Identity; 4] =
                [Identity::new(0), Identity::new(1), Identity::new(2), Identity::BOTTOM];
            let me = Identity::new(7);
            let mut actions = Vec::new();
            let mut proc = EvtHpProcess::new();
            let mut model = NaiveReplies { held: Vec::new(), round: 1, timeout: 1 };
            // Where each sender's latest well-formed reply ended.
            let mut last_to = [0u64; 4];
            // The rounds each sender's last skip ahead left out.
            let mut gap = [None::<(u64, u64)>; 4];
            let mut last = (1, 1, 0);
            for (kind, s, a, b) in steps {
                let (from, to, s) = match kind {
                    0..=2 => {
                        let mut sink = ActionSink::new(me, Time::ZERO, &mut actions);
                        proc.on_timer(ROUND, &mut sink);
                        actions.clear();
                        let gathered = model.end_round();
                        let trusted: Vec<Identity> = proc.h_trusted().iter().copied().collect();
                        proptest::prop_assert_eq!(&trusted, &gathered);
                        proptest::prop_assert_eq!(proc.h_trusted().len(), gathered.len());
                        proptest::prop_assert_eq!(proc.round(), model.round);
                        continue;
                    }
                    // The sender's run continues.
                    3..=6 => (last_to[s] + 1, last_to[s] + 1 + b, s),
                    // Starts where a *different* sender's run ended.
                    7 => (last_to[(s + 1) % 4] + 1, last_to[(s + 1) % 4] + 1 + b, s),
                    // A homonymous replier sends the same interval.
                    8 => last,
                    // Anywhere around the current round: late, overlapping, gapped.
                    9 | 10 => {
                        let from = (model.round + a).saturating_sub(3);
                        (from, from + b, s)
                    }
                    // Malformed, and adjacent to the sender's run.
                    11 => (last_to[s] + 1, (last_to[s] + 1).saturating_sub(1 + a), s),
                    // The sender's run skips ahead, leaving a gap.
                    12 => {
                        let from = last_to[s] + 2 + a;
                        gap[s] = Some((last_to[s] + 1, from - 1));
                        (from, from + b, s)
                    }
                    // The gap's reply arrives after its successor.
                    FILL => match gap[s].take() {
                        Some((from, to)) => (from, to, s),
                        None => (last_to[s] + 1, last_to[s] + 1 + b, s),
                    },
                    // From round 0: late unless it also covers this one.
                    14 => (0, (model.round + b).saturating_sub(2), s),
                    // Never ends.
                    _ => ((model.round + a).saturating_sub(3), u64::MAX, s),
                };
                if from <= to {
                    // A filled gap lies behind its sender's run, and no
                    // reply continues one that never ends.
                    if kind != FILL && to < u64::MAX {
                        last_to[s] = to;
                    }
                    last = (from, to, s);
                }
                let sender = SENDERS[s];
                let mut sink = ActionSink::new(me, Time::ZERO, &mut actions);
                proc.on_message(EvtHpMsg::PReply { from, to, target: me, sender }, &mut sink);
                model.reply(from, to, sender);
                proptest::prop_assert_eq!(proc.timeout(), model.timeout);
                proptest::prop_assert!(proc.pending_len() <= model.held.len());
            }
        }
    }

    proptest::proptest! {
        /// What a process holds survives the codec: cut at any step of a
        /// random reply stream — late, gapped, overlapping, never ending,
        /// from small labels, a skipped one, and two with no
        /// direct-indexed slot — it decodes, encodes to the bytes it came
        /// from, and then goes on as the original does, byte for byte.
        #[test]
        fn a_decoded_process_goes_on_as_the_original(
            steps in proptest::collection::vec((0u8..4, 0usize..4, 0u64..9, 0u64..6), 1..100usize),
            cut in 0usize..100,
        ) {
            const SENDERS: [Identity; 4] =
                [Identity::new(0), Identity::new(2), Identity::new(DENSE + 1), Identity::BOTTOM];
            let me = Identity::new(7);
            let mut actions = Vec::new();
            let mut proc = EvtHpProcess::new();
            let mut copy = None;
            for (step, (kind, s, a, b)) in steps.into_iter().enumerate() {
                if step == cut {
                    let bytes = homonym_core::wire::to_bytes(&proc);
                    let decoded = decode(&bytes);
                    proptest::prop_assert!(decoded.is_ok(), "{decoded:?}");
                    copy = decoded.ok();
                }
                for p in std::iter::once(&mut proc).chain(copy.as_mut()) {
                    let mut sink = ActionSink::new(me, Time::ZERO, &mut actions);
                    if kind == 0 {
                        p.on_timer(ROUND, &mut sink);
                    } else {
                        let from = (p.round() + a).saturating_sub(2);
                        let to = if kind == 3 { u64::MAX } else { from + b };
                        let sender = SENDERS[s];
                        p.on_message(EvtHpMsg::PReply { from, to, target: me, sender }, &mut sink);
                    }
                }
                actions.clear();
                if let Some(copy) = &copy {
                    let bytes = homonym_core::wire::to_bytes(copy);
                    proptest::prop_assert_eq!(bytes, homonym_core::wire::to_bytes(&proc));
                }
            }
        }
    }

    proptest::proptest! {
        /// The [`Process::addressee`] contract, on whatever state the
        /// process is in: a message addressed to another label emits no
        /// action and leaves every persisted byte as it was. Judged
        /// through `addressee` itself, so it fails the day that is
        /// widened to a message that *is* read elsewhere — a `POLLING`,
        /// say, which everyone answers.
        #[test]
        fn a_message_addressed_elsewhere_is_a_no_op(
            steps in proptest::collection::vec((0u8..3, 0u64..4, 0u64..8, 0u64..8), 0..60usize),
            last in (0u8..2, 0u64..4, 0u64..40, 0u64..40, 0u64..4),
        ) {
            let me = Identity::new(1);
            let mut actions = Vec::new();
            let mut proc = EvtHpProcess::new();
            proc.on_start(&mut ActionSink::new(me, Time::ZERO, &mut actions));
            for (kind, label, a, b) in steps {
                let mut sink = ActionSink::new(me, Time::ZERO, &mut actions);
                let label = Identity::new(label);
                match kind {
                    0 => proc.on_timer(ROUND, &mut sink),
                    1 => proc.on_message(EvtHpMsg::Polling { round: a + b, id: label }, &mut sink),
                    _ => proc.on_message(
                        EvtHpMsg::PReply { from: a, to: a + b, target: label, sender: Identity::new(b % 4) },
                        &mut sink,
                    ),
                }
            }
            actions.clear();
            let (kind, label, from, to, sender) = last;
            let msg = match kind {
                0 => EvtHpMsg::Polling { round: to, id: Identity::new(label) },
                _ => EvtHpMsg::PReply {
                    from,
                    to,
                    target: Identity::new(label),
                    sender: Identity::new(sender),
                },
            };
            if EvtHpProcess::addressee(&msg).is_some_and(|label| label != me) {
                let before = homonym_core::wire::to_bytes(&proc);
                proc.on_message(msg, &mut ActionSink::new(me, Time::ZERO, &mut actions));
                proptest::prop_assert!(actions.is_empty());
                proptest::prop_assert_eq!(homonym_core::wire::to_bytes(&proc), before);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let sched = FailureSchedule::none(4).with_crash(2, Time::from_ticks(20));
        let run = |seed| run_fig6(assign.clone(), sched.clone(), hps_network(30, 3), 500, seed);
        assert_eq!(run(21), run(21));
    }
}
