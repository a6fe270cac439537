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
//! `r_p`. The process keeps exactly that, as a count and where it moves:
//!
//! * per label with replies covering `r_p`, how many, and how many of
//!   those end with it (`to = r_p`);
//! * the change points `(round, label, (starts, ends))` after `r_p`: a
//!   reply `[from, to]` starts at `from` and ends at `to + 1`.
//!
//! A reply that already covers `r_p` is one more on the count; one that
//! starts at `r_p + 1` where a reply of the same label ends with `r_p`
//! continues it; any other starts at `from`. A start and an end of one
//! label at one round cancel, so replies in a row from one replier are
//! one run whichever order they arrive in — Figure 6 lets a *sender*
//! cover a whole round interval with one `P_REPLY` so that one message
//! serves every homonymous poller, and this is the receiver-side dual. A
//! round end reads the bag off the count (rebuilding `h_trusted_p` only
//! when they differ), drops what ended with the round, applies the
//! change points of the next one and drains them.
//!
//! This is exact. The count a label has at round `r` is the number of
//! its held intervals covering `r`; a difference array stores that
//! function, and merging adjacent runs leaves it as it was. Rounds only
//! grow, so nothing before `r_p` is ever read again. The timeout
//! adaptation (lines 33-34) is evaluated before the reply is held and is
//! untouched.
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
use homonym_core::query::Consumes;
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

/// Round extractor for trace annotation: a poll's round, or the last
/// round a reply covers.
#[must_use]
pub fn round_of_evt_hp(msg: &EvtHpMsg) -> Option<u64> {
    match msg {
        EvtHpMsg::Polling { round, .. } => Some(*round),
        EvtHpMsg::PReply { to, .. } => Some(*to),
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

/// Identifiers below this use the direct-indexed membership table.
const MSHIP_DENSE: u64 = 256;

/// The Figure 6 process.
#[derive(Debug, Clone)]
pub struct EvtHpProcess {
    h_omega: HOmegaOutput,
    round: u64,
    timeout: u64,
    /// `identifier -> latest_r` for small dense identifiers
    /// (`raw < MSHIP_DENSE`): a direct-indexed table, since the paper's
    /// homonymy degree ℓ is tiny and identifiers are usually `0..ℓ`.
    /// Entry `0` doubles as "never answered" — exactly the initial
    /// `latest_r` the sparse path would insert.
    mship_dense: Vec<u64>,
    /// `identifier -> latest_r` fallback for large/`⊥` identifiers: a
    /// sorted, binary-searched vector (still cheaper than a tree).
    mship: Vec<(Identity, u64)>,
    /// The held replies as the round end reads them ("What a process
    /// holds"): per label, in label order, how many held replies cover
    /// `r_p` (never zero) and how many of those end with it (`to = r_p`).
    covering: Vec<(Identity, u32, u32)>,
    /// Where a label's count moves after `r_p`: `(round, label, (starts,
    /// ends))` in `(round, label)` order, never both counts nonzero.
    changes: Vec<(u64, Identity, (u32, u32))>,
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
            covering: Vec::new(),
            changes: Vec::new(),
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
        let covering: usize = self
            .covering
            .iter()
            .map(|&(_, count, _)| count as usize)
            .sum();
        let starts: usize = self
            .changes
            .iter()
            .map(|&(_, _, (starts, _))| starts as usize)
            .sum();
        covering + starts
    }

    /// Holds a reply `[from, to]` with `to ≥ r_p`: one more for `sender`
    /// over those rounds, as a count now and change points later. A
    /// malformed interval (`from > to`) covers nothing and is not held.
    fn hold(&mut self, from: u64, to: u64, sender: Identity) {
        if from > to {
            return;
        }
        let r = self.round;
        let at = self.covering.binary_search_by_key(&sender, |c| c.0);
        if from <= r {
            let i = at.unwrap_or_else(|i| {
                self.covering.insert(i, (sender, 0, 0));
                i
            });
            self.covering[i].1 += 1;
            if to == r {
                self.covering[i].2 += 1;
                return;
            }
        } else {
            match at {
                // It continues a reply that ends with this round.
                Ok(i) if from == r + 1 && self.covering[i].2 > 0 => self.covering[i].2 -= 1,
                _ => self.change(from, sender, true),
            }
        }
        if let Some(end) = to.checked_add(1) {
            self.change(end, sender, false);
        }
    }

    /// One more start (or end) of `label`'s count at `round`, cancelling
    /// an end (or start) already there.
    fn change(&mut self, round: u64, label: Identity, start: bool) {
        match self
            .changes
            .binary_search_by(|c| (c.0, c.1).cmp(&(round, label)))
        {
            Ok(i) => {
                let (starts, ends) = &mut self.changes[i].2;
                let (more, fewer) = if start {
                    (starts, ends)
                } else {
                    (ends, starts)
                };
                if *fewer == 0 {
                    *more += 1;
                } else if *fewer > 1 {
                    *fewer -= 1;
                } else {
                    self.changes.remove(i);
                }
            }
            Err(i) => {
                let moves = if start { (1, 0) } else { (0, 1) };
                self.changes.insert(i, (round, label, moves));
            }
        }
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
        let gathered = self
            .covering
            .iter()
            .map(|(label, count, _)| (label, *count as usize));
        let changed = !self.h_trusted().counted().eq(gathered);
        if changed {
            let mut bag = Multiset::new();
            for &(label, count, _) in &self.covering {
                bag.insert_n(label, count as usize);
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
        // Move the count to round r + 1: what ended with r leaves, the
        // change points at r + 1 apply (none lie earlier: each was placed
        // after the round it was held in).
        let due = self.changes.partition_point(|c| c.0 <= r + 1);
        for &(_, label, (starts, ends)) in &self.changes[..due] {
            match self.covering.binary_search_by_key(&label, |c| c.0) {
                Ok(i) => self.covering[i].1 = self.covering[i].1 + starts - ends,
                Err(i) => self.covering.insert(i, (label, starts, 0)),
            }
        }
        self.changes.drain(..due);
        self.covering.retain_mut(|c| {
            c.1 -= std::mem::take(&mut c.2);
            c.1 > 0
        });
        self.round += 1;
        self.poll(ctx);
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
                let latest: &mut u64 = if id.raw() < MSHIP_DENSE {
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
                    self.hold(from, to, sender);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, EvtHpMsg, EvtHpSnapshot>) {
        debug_assert_eq!(timer, ROUND);
        self.end_round(ctx);
    }
}

impl Persist for EvtHpMsg {
    fn save(&self, s: &mut Saver) {
        match self {
            EvtHpMsg::Polling { round, id } => {
                s.u8(0);
                round.save(s);
                id.save(s);
            }
            EvtHpMsg::PReply {
                from,
                to,
                target,
                sender,
            } => {
                s.u8(1);
                from.save(s);
                to.save(s);
                target.save(s);
                sender.save(s);
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(match l.u8()? {
            0 => EvtHpMsg::Polling {
                round: Persist::load(l)?,
                id: Persist::load(l)?,
            },
            1 => EvtHpMsg::PReply {
                from: Persist::load(l)?,
                to: Persist::load(l)?,
                target: Persist::load(l)?,
                sender: Persist::load(l)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "EvtHpMsg",
                    tag,
                })
            }
        })
    }
}

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

homonym_core::persist_fields!(EvtHpProcess {
    h_omega,
    round,
    timeout,
    mship_dense,
    mship,
    covering,
    changes,
    snapshot,
    published,
    adaptive,
    started
});

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
        /// round 0 and to `u64::MAX` — the process gathers the naive
        /// list's multiset at every round end and adapts the same
        /// timeout.
        #[test]
        fn coalesced_replies_gather_what_the_naive_list_gathers(
            steps in proptest::collection::vec((0u8..16, 0u64..3, 0u64..6, 0u64..5), 1..120usize),
        ) {
            const FILL: u8 = 13;
            let me = Identity::new(7);
            let mut actions = Vec::new();
            let mut proc = EvtHpProcess::new();
            let mut model = NaiveReplies { held: Vec::new(), round: 1, timeout: 1 };
            // Where each sender's latest well-formed reply ended.
            let mut last_to = [0u64; 3];
            // The rounds each sender's last skip ahead left out.
            let mut gap = [None::<(u64, u64)>; 3];
            let mut last = (1, 1, Identity::new(0));
            for (kind, s, a, b) in steps {
                let sender = Identity::new(s);
                let s = s as usize;
                let (from, to, sender) = match kind {
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
                    3..=6 => (last_to[s] + 1, last_to[s] + 1 + b, sender),
                    // Starts where a *different* sender's run ended.
                    7 => (last_to[(s + 1) % 3] + 1, last_to[(s + 1) % 3] + 1 + b, sender),
                    // A homonymous replier sends the same interval.
                    8 => last,
                    // Anywhere around the current round: late, overlapping, gapped.
                    9 | 10 => {
                        let from = (model.round + a).saturating_sub(3);
                        (from, from + b, sender)
                    }
                    // Malformed, and adjacent to the sender's run.
                    11 => (last_to[s] + 1, (last_to[s] + 1).saturating_sub(1 + a), sender),
                    // The sender's run skips ahead, leaving a gap.
                    12 => {
                        let from = last_to[s] + 2 + a;
                        gap[s] = Some((last_to[s] + 1, from - 1));
                        (from, from + b, sender)
                    }
                    // The gap's reply arrives after its successor.
                    FILL => match gap[s].take() {
                        Some((from, to)) => (from, to, sender),
                        None => (last_to[s] + 1, last_to[s] + 1 + b, sender),
                    },
                    // From round 0: late unless it also covers this one.
                    14 => (0, (model.round + b).saturating_sub(2), sender),
                    // Never ends.
                    _ => ((model.round + a).saturating_sub(3), u64::MAX, sender),
                };
                if from <= to {
                    // A filled gap lies behind its sender's run, and no
                    // reply continues one that never ends.
                    if kind != FILL && to < u64::MAX {
                        last_to[sender.raw() as usize] = to;
                    }
                    last = (from, to, sender);
                }
                let mut sink = ActionSink::new(me, Time::ZERO, &mut actions);
                proc.on_message(EvtHpMsg::PReply { from, to, target: me, sender }, &mut sink);
                model.reply(from, to, sender);
                proptest::prop_assert_eq!(proc.timeout(), model.timeout);
                proptest::prop_assert!(proc.pending_len() <= model.held.len());
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
