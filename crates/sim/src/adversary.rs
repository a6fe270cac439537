//! The environment's moves — link faults and Byzantine attacks —
//! consulted at copy-routing time by the event engine and by the
//! reference interpreter. The lock-step engine has none: an adversarial
//! Figure 7 run is `HSigmaStepProcess` on the event engine.
//!
//! A [`FaultScript`] is the **lowered, engine-facing** form of an
//! adversarial scenario, one list per kind of move:
//!
//! * [`LinkClause`]s, each active during a half-open time window and
//!   matching a set of (source, destination) process pairs, decide the
//!   fate of individual message copies *after* the
//!   [`NetworkModel`](crate::network::NetworkModel) has routed them;
//! * [`ByzClause`]s turn selected *senders* corrupt during a window: each
//!   mounts one [`Attack`] on its copies to chosen victims — equivocating,
//!   corrupting payloads, replaying stale broadcasts, or suppressing
//!   copies.
//!
//! The declarative layer that composes partitions, overlays, churn and
//! Byzantine attacks into these clauses lives in the `homonym-chaos`
//! crate; keeping only the lowered form here leaves `homonym-sim`
//! dependency-free and the hot path branch-predictable.
//!
//! # Determinism contract
//!
//! A script preserves the engine's two standing guarantees:
//!
//! * **`(time, seq)` dispatch order** — clauses never reorder copies;
//!   they only drop a copy, move its delivery time forward, or rewrite
//!   its payload in place, and the rewritten copy re-enters the queue
//!   with its original insertion sequence, so ties still break by send
//!   order.
//! * **Stream isolation** — link clauses and attacks draw from two
//!   dedicated RNG streams, both seeded from the run seed and the
//!   script's [`salt`](FaultScript::salt), so installing a script does
//!   not perturb the network stream (processes draw none). A run with no
//!   script — or an empty / never-activating one — is byte-identical to
//!   a run of an engine that never had the hook.
//!
//! [`LinkClause`]s are evaluated **in order** and compose: deferrals and
//! delays accumulate, and a drop is terminal. [`ByzClause`]s do not
//! compose — the **first** active clause matching a broadcast's sender
//! decides the whole broadcast's attack (one corrupt process runs one
//! attack at a time). Whether a clause applies is judged at **send
//! time** (the model routes each copy when it is broadcast), so a window
//! `[from, until)` affects copies *sent* inside it.
//!
//! A copy's fate is therefore judged against the link clauses **active
//! at its send time** only: [`FaultScript::active_at`] names them, with
//! the interval of send times over which the set stays the same, and
//! [`FaultScript::fate_among`] is the one loop that applies them.
//! [`FaultScript::fate`] does both per copy, which is what the
//! stateless reference interpreter calls; the event engine keeps the
//! active set between copies and asks for a
//! new one only when its clock leaves the interval — twice per window
//! instead of a scan of every clause per copy.
//!
//! What a matched [`ByzClause`] does to a broadcast — the plan, the
//! replay cache, and each copy left honest, forged or suppressed, with
//! its count and its `AttackFired` event — is the crate-private
//! `ByzBroadcast`, which the event engine runs; the reference interpreter
//! spells the same rule out on its own.

use std::sync::Arc;

use homonym_core::time::{Span, Time};
use homonym_obs::{ObsKind, Recorder};
use rand::rngs::StdRng;
use rand::Rng;

use crate::network::percent_roll;

/// A set of process indices, stored as a bitmap (`n` is small and known
/// when the script is lowered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSet {
    words: Vec<u64>,
}

impl ProcSet {
    /// The empty set over a system of `n` processes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        ProcSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set `{0, …, n-1}`.
    #[must_use]
    pub fn all(n: usize) -> Self {
        let mut s = ProcSet::empty(n);
        for p in 0..n {
            s.insert(p);
        }
        s
    }

    /// Builds a set from process indices (all must be `< n`).
    ///
    /// # Panics
    ///
    /// Panics if some index is `>= n`.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, procs: I) -> Self {
        let mut s = ProcSet::empty(n);
        for p in procs {
            assert!(p < n, "process {p} out of range for n={n}");
            s.insert(p);
        }
        s
    }

    fn insert(&mut self, p: usize) {
        self.words[p / 64] |= 1 << (p % 64);
    }

    /// Whether `p` is in the set (indices beyond the universe are not).
    #[must_use]
    pub fn contains(&self, p: usize) -> bool {
        self.words
            .get(p / 64)
            .is_some_and(|w| w & (1 << (p % 64)) != 0)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// What an active clause does to a matching copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEffect {
    /// The copy is lost.
    Drop,
    /// The copy is held and delivered no earlier than the given instant
    /// (a partition healing at that time releasing its queued traffic).
    /// Copies already routed later than it are unaffected.
    DeferUntil(Time),
    /// The copy is delayed by a fixed extra span.
    Delay(Span),
    /// The copy is lost with the given probability (percent, saturating
    /// at 100), drawn from the adversary's own RNG stream.
    Lose(u8),
}

/// One fault clause: an effect applied to copies sent during
/// `[from, until)` from a process in `src` to a process in `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkClause {
    /// First instant (inclusive) at which the clause is active.
    pub from: Time,
    /// First instant at which the clause is no longer active (use
    /// [`Time::MAX`] for a clause that never deactivates).
    pub until: Time,
    /// Matching senders.
    pub src: ProcSet,
    /// Matching receivers.
    pub dst: ProcSet,
    /// Effect on matching copies.
    pub effect: LinkEffect,
}

impl LinkClause {
    fn links(&self, src: usize, dst: usize) -> bool {
        self.src.contains(src) && self.dst.contains(dst)
    }
}

/// The environment's moves in one run: the link clauses, the Byzantine
/// clauses, and the salt that decorrelates their two RNG streams from
/// the engine's network stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// Link faults, in evaluation order (they compose).
    pub links: Vec<LinkClause>,
    /// Byzantine attacks, in evaluation order (the first match wins).
    pub attacks: Vec<ByzClause>,
    /// Mixed into the run seed for the link and the Byzantine streams,
    /// so two scripts with different salts draw decorrelated loss masks
    /// and forgeries.
    pub salt: u64,
}

impl FaultScript {
    /// The first instant from which no clause of either list is active
    /// anymore, or `None` when some clause never deactivates (a
    /// permanently corrupt process, say). An empty script is quiescent
    /// from [`Time::ZERO`].
    #[must_use]
    pub fn quiescent_after(&self) -> Option<Time> {
        let ends = self.links.iter().map(|c| c.until);
        let mut end = Time::ZERO;
        for until in ends.chain(self.attacks.iter().map(|c| c.until)) {
            if until == Time::MAX {
                return None;
            }
            end = end.max(until);
        }
        Some(end)
    }

    /// Whether any clause can draw from the script's streams: a lossy
    /// link clause, or an attack that mutates payloads.
    #[must_use]
    pub fn draws_entropy(&self) -> bool {
        self.links
            .iter()
            .any(|c| matches!(c.effect, LinkEffect::Lose(_)))
            || self.attacks.iter().any(|c| c.attack.draws_entropy())
    }

    /// Writes into `active` the indices, in evaluation order, of the
    /// link clauses whose window contains `t`, and returns the half-open
    /// interval `[from, until)` of send times around `t` over which that
    /// set cannot change (no window opens or closes inside it).
    pub fn active_at(&self, t: Time, active: &mut Vec<u32>) -> (Time, Time) {
        active.clear();
        let (mut from, mut until) = (Time::ZERO, Time::MAX);
        for (i, clause) in self.links.iter().enumerate() {
            if clause.from <= t && t < clause.until {
                active.push(u32::try_from(i).expect("clause count fits u32"));
                from = from.max(clause.from);
                until = until.min(clause.until);
            } else if t < clause.from {
                until = until.min(clause.from);
            } else {
                from = from.max(clause.until);
            }
        }
        (from, until)
    }

    /// The fate of one copy sent at `sent_at` from `src` to `dst` that
    /// the network already routed to arrive at `base`: the (possibly
    /// deferred) delivery time, or `None` when a link clause drops the
    /// copy.
    ///
    /// Only [`LinkEffect::Lose`] draws from `rng`, and only for copies
    /// that match its clause and are still live — the draw sequence is a
    /// deterministic function of the run seed and the broadcast order.
    pub fn fate(
        &self,
        sent_at: Time,
        src: usize,
        dst: usize,
        base: Time,
        rng: &mut StdRng,
    ) -> Option<Time> {
        let mut active = Vec::new();
        self.active_at(sent_at, &mut active);
        self.fate_among(&active, src, dst, base, rng)
    }

    /// [`FaultScript::fate`] of a copy sent at an instant whose active
    /// link clauses are `active` (from [`FaultScript::active_at`]).
    pub fn fate_among(
        &self,
        active: &[u32],
        src: usize,
        dst: usize,
        base: Time,
        rng: &mut StdRng,
    ) -> Option<Time> {
        let mut at = base;
        for &i in active {
            let clause = &self.links[i as usize];
            if !clause.links(src, dst) {
                continue;
            }
            match clause.effect {
                LinkEffect::Drop => return None,
                LinkEffect::DeferUntil(t) => at = at.max(t),
                LinkEffect::Delay(d) => at += d,
                LinkEffect::Lose(percent) => {
                    if percent_roll(rng, percent) {
                        return None;
                    }
                }
            }
        }
        Some(at)
    }

    /// Whether a broadcast by `src` at `sent_at` must be recorded in the
    /// engine's replay cache: some replay clause names `src` and has not
    /// yet permanently deactivated. Recording starts at tick 0 (so the
    /// first in-window broadcast can replay the last pre-window one) and
    /// continues between windows, but stops after the last window closes
    /// — the cache can never be read again, and cloning every further
    /// payload would be pure hot-path waste.
    #[must_use]
    pub fn records_replay_at(&self, sent_at: Time, src: usize) -> bool {
        self.attacks
            .iter()
            .any(|c| c.attack == Attack::Replay && c.src.contains(src) && sent_at < c.until)
    }

    /// The union bitmap of every replay clause's corrupt-sender set, with
    /// trailing zero words trimmed so masks built over different universe
    /// sizes compare structurally. The divergence planner forfeits
    /// sharing between scripts whose masks differ: their engines fill the
    /// replay cache differently *from tick 0*, so their prefixes are not
    /// interchangeable.
    #[must_use]
    pub fn replay_source_mask(&self) -> Vec<u64> {
        let mut mask: Vec<u64> = Vec::new();
        for c in self.attacks.iter().filter(|c| c.attack == Attack::Replay) {
            if mask.len() < c.src.words.len() {
                mask.resize(c.src.words.len(), 0);
            }
            for (m, w) in mask.iter_mut().zip(&c.src.words) {
                *m |= w;
            }
        }
        while mask.last() == Some(&0) {
            mask.pop();
        }
        mask
    }

    /// Plans one broadcast performed by `src` at `sent_at`: the first
    /// active attack naming `src` as corrupt, with one entropy draw from
    /// `rng` iff the attack mutates payloads. `None` (the common case)
    /// means the broadcast is honest and costs nothing.
    pub fn plan(&self, sent_at: Time, src: usize, rng: &mut StdRng) -> Option<ByzPlan> {
        let (i, clause) = self
            .attacks
            .iter()
            .enumerate()
            .find(|(_, c)| c.matches(sent_at, src))?;
        let tweak = if clause.attack.draws_entropy() {
            rng.gen::<u64>()
        } else {
            0
        };
        Some(ByzPlan { clause: i, tweak })
    }

    /// The directive for the copy routed to `dst` under `plan`
    /// (draw-free; per-copy corruption entropy is derived from the plan's
    /// broadcast draw via [`mix64`]).
    #[must_use]
    pub fn directive(&self, plan: &ByzPlan, dst: usize) -> ByzDirective {
        let clause = &self.attacks[plan.clause];
        if !clause.victims.contains(dst) {
            return ByzDirective::Original;
        }
        match clause.attack {
            Attack::Equivocate => ByzDirective::Equivocate(plan.tweak),
            Attack::Corrupt => ByzDirective::Corrupt(mix64(plan.tweak, dst as u64)),
            Attack::Replay => ByzDirective::Replay,
            Attack::SelectiveSend => ByzDirective::Suppress,
        }
    }
}

/// SplitMix64-style finalizer used to derive per-copy corruption entropy
/// from a per-broadcast draw — one RNG draw per attacked broadcast, not
/// one per copy, keeps the Byzantine stream's draw count independent of
/// the victim set (and therefore shareable by the divergence planner).
#[must_use]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The attack a corrupt sender mounts on the copies it sends to the
/// victims of its [`ByzClause`]. Destinations outside the victim set
/// receive the sender's honest copy — which is exactly what makes
/// equivocation nasty under homonymy: the corrupt process stays
/// indistinguishable from its honest homonyms to everyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Victims receive one consistent *alternative* payload per broadcast
    /// (a fresh deterministic variant drawn from the Byzantine stream),
    /// everyone else the original — the classic equivocation attack.
    Equivocate,
    /// Each victim copy is independently corrupted (per-copy entropy
    /// derived from the broadcast's draw via [`mix64`]).
    Corrupt,
    /// Victim copies are replaced by the sender's **previous** broadcast
    /// payload (the engine keeps a one-deep replay cache per corrupt
    /// sender). Before the sender has broadcast anything, the replayed
    /// copy degenerates to the original.
    Replay,
    /// Victim copies are silently suppressed — the corrupt sender
    /// "forgets" part of its broadcast.
    SelectiveSend,
}

impl Attack {
    /// Whether planning a broadcast under this attack consumes one draw
    /// from the Byzantine RNG stream (payload-mutating attacks do; replay
    /// and suppression are draw-free).
    fn draws_entropy(self) -> bool {
        matches!(self, Attack::Equivocate | Attack::Corrupt)
    }
}

/// One Byzantine clause: processes in `src` mount `attack` on their
/// copies to `victims` of every broadcast they perform during
/// `[from, until)` (use [`Time::MAX`] for a permanently corrupt process,
/// the BFT-model faulty process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzClause {
    /// First instant (inclusive) at which the clause is active.
    pub from: Time,
    /// First instant at which the clause is no longer active.
    pub until: Time,
    /// The corrupt senders.
    pub src: ProcSet,
    /// The destinations whose copies are attacked.
    pub victims: ProcSet,
    /// The attack they mount.
    pub attack: Attack,
}

impl ByzClause {
    fn matches(&self, sent_at: Time, src: usize) -> bool {
        self.from <= sent_at && sent_at < self.until && self.src.contains(src)
    }
}

/// The resolved attack plan for one broadcast: which clause fired and the
/// broadcast's entropy draw (zero for draw-free effects). Obtain one from
/// [`FaultScript::plan`] and query per-copy directives through
/// [`FaultScript::directive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzPlan {
    clause: usize,
    tweak: u64,
}

/// What happens to one routed copy under an active [`ByzPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzDirective {
    /// The copy passes through untouched (destination outside the victim
    /// set, or no plan at all).
    Original,
    /// Deliver the broadcast's consistent alternative payload, derived
    /// from the carried entropy (same value for every victim of one
    /// broadcast).
    Equivocate(u64),
    /// Deliver an independently corrupted payload derived from the
    /// carried per-copy entropy.
    Corrupt(u64),
    /// Deliver the sender's previously cached broadcast payload.
    Replay,
    /// Suppress the copy.
    Suppress,
}

/// A process's payload-mutation hook, `Process::mutate_payload`.
pub(crate) type MutateHook<M> = fn(&M, u64) -> Option<M>;

/// Applies a payload-mutation hook, failing loudly when the program under
/// attack defines no corruption semantics.
pub(crate) fn forge<M>(mutate: MutateHook<M>, original: &M, entropy: u64) -> M {
    mutate(original, entropy).unwrap_or_else(|| {
        panic!(
            "a Byzantine clause matched a broadcast of {}, but its process does \
             not override mutate_payload; implement the hook for the program \
             under attack",
            std::any::type_name::<M>()
        )
    })
}

/// The Byzantine side of one attacked broadcast, as the event engine
/// runs it: the script, the plan it resolved to,
/// and the stale payload a replay clause substitutes. Opened once per
/// broadcast, consulted once per routed copy.
pub(crate) struct ByzBroadcast<M> {
    script: Arc<FaultScript>,
    plan: ByzPlan,
    replayed: Option<M>,
}

/// What a copy of an attacked broadcast becomes.
pub(crate) enum ByzCopy<M> {
    /// The sender's own payload: the destination is no victim, or a
    /// replay found nothing cached.
    Honest,
    /// This payload in place of the sender's.
    Forged(M),
    /// Nothing: the copy is never sent.
    Suppressed,
}

/// Where a rewritten copy is accounted: the engine's clock, its two
/// counters and its recorder.
pub(crate) struct ByzLedger<'a> {
    pub(crate) now: Time,
    pub(crate) forged: &'a mut u64,
    pub(crate) suppressed: &'a mut u64,
    pub(crate) recorder: Option<&'a mut Recorder>,
}

impl<M: Clone> ByzBroadcast<M> {
    /// Consults `script` about the broadcast of `msg` by `src` at `now`:
    /// one plan and at most one draw from `rng`, whatever the number of
    /// copies. `None` — no script, one without attacks, or no attack
    /// naming `src` now — is an honest broadcast. `replay_cache` holds the last
    /// payload of every replay-listed sender and is updated on each of
    /// their broadcasts until their last window closes, attacked or not:
    /// `replace` hands back the previous payload, which is what an active
    /// replay clause substitutes, so the first in-window broadcast
    /// replays the last honest one.
    pub(crate) fn open(
        script: Option<&Arc<FaultScript>>,
        now: Time,
        src: usize,
        msg: &M,
        rng: &mut StdRng,
        replay_cache: &mut [Option<M>],
    ) -> Option<Self> {
        let script = script.filter(|s| !s.attacks.is_empty())?;
        let plan = script.plan(now, src, rng);
        let replayed = if script.records_replay_at(now, src) {
            replay_cache[src].replace(msg.clone())
        } else {
            None
        };
        Some(ByzBroadcast {
            script: Arc::clone(script),
            plan: plan?,
            replayed,
        })
    }

    /// The copy `dst` gets in place of `original`. A forged or suppressed
    /// copy is counted and reported to `ledger` here, when it is routed:
    /// it is the corrupt sender's act, whatever becomes of the copy.
    pub(crate) fn rewrite(
        &self,
        dst: usize,
        original: &M,
        mutate: MutateHook<M>,
        ledger: ByzLedger<'_>,
    ) -> ByzCopy<M> {
        let (kind, forged) = match self.script.directive(&self.plan, dst) {
            ByzDirective::Original => return ByzCopy::Honest,
            ByzDirective::Suppress => ("suppress", None),
            ByzDirective::Equivocate(e) => ("equivocate", Some(forge(mutate, original, e))),
            ByzDirective::Corrupt(e) => ("corrupt", Some(forge(mutate, original, e))),
            ByzDirective::Replay => match &self.replayed {
                Some(old) => ("replay", Some(old.clone())),
                // Nothing broadcast before the clause activated: the
                // replayed copy degenerates to the honest one.
                None => return ByzCopy::Honest,
            },
        };
        if let Some(rec) = ledger.recorder {
            let victim = u32::try_from(dst).unwrap_or(u32::MAX);
            rec.record(ledger.now, dst, ObsKind::AttackFired { kind, victim });
        }
        match forged {
            Some(msg) => {
                *ledger.forged += 1;
                ByzCopy::Forged(msg)
            }
            None => {
                *ledger.suppressed += 1;
                ByzCopy::Suppressed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn links(clauses: impl IntoIterator<Item = LinkClause>) -> FaultScript {
        FaultScript {
            links: clauses.into_iter().collect(),
            ..FaultScript::default()
        }
    }

    fn clause(
        from: u64,
        until: u64,
        src: &[usize],
        dst: &[usize],
        effect: LinkEffect,
    ) -> LinkClause {
        LinkClause {
            from: Time::from_ticks(from),
            until: Time::from_ticks(until),
            src: ProcSet::from_indices(8, src.iter().copied()),
            dst: ProcSet::from_indices(8, dst.iter().copied()),
            effect,
        }
    }

    #[test]
    fn proc_set_membership_and_size() {
        let s = ProcSet::from_indices(100, [0, 63, 64, 99]);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1) && !s.contains(100) && !s.contains(640));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(ProcSet::empty(3).is_empty());
        assert_eq!(ProcSet::all(70).len(), 70);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn proc_set_rejects_out_of_range() {
        let _ = ProcSet::from_indices(4, [4]);
    }

    #[test]
    fn empty_script_is_transparent_and_quiescent() {
        let s = FaultScript::default();
        assert!(s.links.is_empty() && s.attacks.is_empty());
        assert_eq!(s.quiescent_after(), Some(Time::ZERO));
        assert_eq!(
            s.fate(Time::from_ticks(3), 0, 1, Time::from_ticks(5), &mut rng()),
            Some(Time::from_ticks(5))
        );
    }

    #[test]
    fn window_is_half_open_on_send_time() {
        let s = links([clause(10, 20, &[0], &[1], LinkEffect::Drop)]);
        let mut r = rng();
        let base = Time::from_ticks(100);
        assert!(s.fate(Time::from_ticks(9), 0, 1, base, &mut r).is_some());
        assert!(s.fate(Time::from_ticks(10), 0, 1, base, &mut r).is_none());
        assert!(s.fate(Time::from_ticks(19), 0, 1, base, &mut r).is_none());
        assert!(s.fate(Time::from_ticks(20), 0, 1, base, &mut r).is_some());
        // Non-matching link or direction: unaffected.
        assert!(s.fate(Time::from_ticks(15), 1, 0, base, &mut r).is_some());
        assert!(s.fate(Time::from_ticks(15), 0, 2, base, &mut r).is_some());
    }

    #[test]
    fn defer_takes_max_of_base_and_heal() {
        let s = links([clause(
            0,
            50,
            &[0],
            &[1],
            LinkEffect::DeferUntil(Time::from_ticks(50)),
        )]);
        let mut r = rng();
        // Base before heal: pushed to heal.
        assert_eq!(
            s.fate(Time::from_ticks(5), 0, 1, Time::from_ticks(7), &mut r),
            Some(Time::from_ticks(50))
        );
        // Base after heal: untouched.
        assert_eq!(
            s.fate(Time::from_ticks(5), 0, 1, Time::from_ticks(60), &mut r),
            Some(Time::from_ticks(60))
        );
    }

    #[test]
    fn clauses_compose_in_order() {
        let s = links([
            clause(
                0,
                100,
                &[0],
                &[1],
                LinkEffect::DeferUntil(Time::from_ticks(40)),
            ),
            clause(0, 100, &[0], &[1], LinkEffect::Delay(Span::from_ticks(3))),
        ]);
        let mut r = rng();
        assert_eq!(
            s.fate(Time::from_ticks(1), 0, 1, Time::from_ticks(2), &mut r),
            Some(Time::from_ticks(43))
        );
    }

    #[test]
    fn lose_percent_boundaries() {
        let never = links([clause(0, 100, &[0], &[1], LinkEffect::Lose(0))]);
        let always = links([clause(0, 100, &[0], &[1], LinkEffect::Lose(100))]);
        let mut r = rng();
        for _ in 0..100 {
            assert!(never
                .fate(Time::ZERO, 0, 1, Time::from_ticks(1), &mut r)
                .is_some());
            assert!(always
                .fate(Time::ZERO, 0, 1, Time::from_ticks(1), &mut r)
                .is_none());
        }
    }

    /// The plain rule: every clause in order, judged at `sent_at`.
    fn scan(
        script: &FaultScript,
        sent_at: Time,
        (src, dst): (usize, usize),
        base: Time,
        rng: &mut StdRng,
    ) -> Option<Time> {
        let mut at = base;
        for c in &script.links {
            if !(c.from <= sent_at && sent_at < c.until && c.links(src, dst)) {
                continue;
            }
            match c.effect {
                LinkEffect::Drop => return None,
                LinkEffect::DeferUntil(t) => at = at.max(t),
                LinkEffect::Delay(d) => at += d,
                LinkEffect::Lose(percent) => {
                    if percent_roll(rng, percent) {
                        return None;
                    }
                }
            }
        }
        Some(at)
    }

    proptest::proptest! {
        /// The active set computed at `t` gives every copy sent anywhere
        /// in the returned interval — its two ends included — the fate
        /// the plain scan gives it, with the same draws: over
        /// overlapping, nested, empty and never-ending windows, at random
        /// instants and at every window boundary.
        #[test]
        fn fate_among_the_active_clauses_equals_the_plain_scan(
            spec in proptest::collection::vec(
                (0u64..40, 0u64..32, 1u8..16, 1u8..16, 0u8..4, 0u64..51),
                0..8usize,
            ),
            instants in proptest::collection::vec(0u64..90, 1..6usize),
            seed in proptest::any::<u64>(),
        ) {
            let bits = |mask: u8| (0..4).filter(move |b| mask >> b & 1 == 1);
            let mut script = FaultScript { salt: seed, ..FaultScript::default() };
            let mut instants = instants;
            for &(from, len, src, dst, kind, arg) in &spec {
                // `len` 0 is an empty window, 31 one that never ends.
                let until = if len == 31 { u64::MAX } else { from + len };
                instants.extend([from.saturating_sub(1), from, until.saturating_sub(1), until]);
                script.links.push(LinkClause {
                    from: Time::from_ticks(from),
                    until: Time::from_ticks(until),
                    src: ProcSet::from_indices(4, bits(src)),
                    dst: ProcSet::from_indices(4, bits(dst)),
                    effect: match kind {
                        0 => LinkEffect::Drop,
                        1 => LinkEffect::DeferUntil(Time::from_ticks(2 * arg)),
                        2 => LinkEffect::Delay(Span::from_ticks(arg)),
                        _ => LinkEffect::Lose(2 * arg as u8),
                    },
                });
            }
            let (mut plain, mut routed) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut active = Vec::new();
            for &t in &instants {
                let t = Time::from_ticks(t);
                let (from, until) = script.active_at(t, &mut active);
                proptest::prop_assert!(from <= t && (t < until || t == Time::MAX));
                let last = Time::from_ticks(until.ticks().saturating_sub(1)).max(from);
                for sent_at in [from, t, last] {
                    for link in (0..4).flat_map(|s| (0..4).map(move |d| (s, d))) {
                        let base = sent_at + Span::TICK;
                        proptest::prop_assert_eq!(
                            script.fate_among(&active, link.0, link.1, base, &mut routed),
                            scan(&script, sent_at, link, base, &mut plain),
                            "sent at {} over {:?}, set of {}", sent_at, link, t
                        );
                    }
                }
            }
            proptest::prop_assert_eq!(routed.gen::<u64>(), plain.gen::<u64>());
        }
    }

    fn byz_clause(
        from: u64,
        until: u64,
        src: &[usize],
        victims: ProcSet,
        attack: Attack,
    ) -> ByzClause {
        ByzClause {
            from: Time::from_ticks(from),
            until: Time::from_ticks(until),
            src: ProcSet::from_indices(8, src.iter().copied()),
            victims,
            attack,
        }
    }

    fn attacks(salt: u64, attacks: impl IntoIterator<Item = ByzClause>) -> FaultScript {
        FaultScript {
            attacks: attacks.into_iter().collect(),
            salt,
            ..FaultScript::default()
        }
    }

    #[test]
    fn byzantine_plan_matches_first_active_clause_only() {
        let victims = |p: &[usize]| ProcSet::from_indices(8, p.iter().copied());
        let s = attacks(
            1,
            [
                byz_clause(10, 20, &[0], victims(&[1, 2]), Attack::SelectiveSend),
                byz_clause(0, 100, &[0], victims(&[3]), Attack::Equivocate),
            ],
        );
        let mut r = rng();
        // Outside every window / wrong sender: no plan, no draw.
        assert!(s.plan(Time::from_ticks(200), 0, &mut r).is_none());
        assert!(s.plan(Time::from_ticks(15), 1, &mut r).is_none());
        // In both windows: the first clause wins (draw-free suppression).
        let p = s.plan(Time::from_ticks(15), 0, &mut r).expect("active");
        assert_eq!(s.directive(&p, 1), ByzDirective::Suppress);
        assert_eq!(s.directive(&p, 3), ByzDirective::Original);
        // After the first window: the equivocation clause (one draw).
        let p = s.plan(Time::from_ticks(50), 0, &mut r).expect("active");
        assert!(matches!(s.directive(&p, 3), ByzDirective::Equivocate(_)));
        assert_eq!(s.directive(&p, 1), ByzDirective::Original);
    }

    #[test]
    fn byzantine_corruption_entropy_is_per_copy_but_draws_once() {
        let s = attacks(
            0,
            [byz_clause(0, 10, &[0], ProcSet::all(8), Attack::Corrupt)],
        );
        let mut a = rng();
        let mut b = rng();
        let p1 = s.plan(Time::ZERO, 0, &mut a).expect("active");
        let p2 = s.plan(Time::ZERO, 0, &mut b).expect("active");
        assert_eq!(p1, p2, "same stream, same draw");
        let (ByzDirective::Corrupt(e1), ByzDirective::Corrupt(e2)) =
            (s.directive(&p1, 1), s.directive(&p1, 2))
        else {
            panic!("victims must be corrupted");
        };
        assert_ne!(e1, e2, "per-copy entropy must differ across victims");
        // The plan drew exactly once: both streams stay aligned.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn byzantine_quiescence_and_bookkeeping() {
        let victims = ProcSet::from_indices(8, [1]);
        let s = attacks(
            3,
            [
                byz_clause(5, 30, &[2], victims.clone(), Attack::Replay),
                byz_clause(0, 12, &[4], victims, Attack::SelectiveSend),
            ],
        );
        assert_eq!(s.quiescent_after(), Some(Time::from_ticks(30)));
        assert!(!s.draws_entropy(), "replay and suppression are draw-free");
        assert!(s.records_replay_at(Time::ZERO, 2));
        assert!(!s.records_replay_at(Time::ZERO, 4));
        let mut open = s.clone();
        open.attacks.push(ByzClause {
            from: Time::ZERO,
            until: Time::MAX,
            src: ProcSet::from_indices(8, [0]),
            victims: ProcSet::all(8),
            attack: Attack::Equivocate,
        });
        assert_eq!(open.quiescent_after(), None);
        assert!(open.draws_entropy());
        let empty = attacks(9, []);
        assert!(empty.attacks.is_empty());
        assert_eq!(empty.quiescent_after(), Some(Time::ZERO));
    }

    #[test]
    fn quiescence_tracks_latest_window() {
        let mut s = links([
            clause(0, 10, &[0], &[1], LinkEffect::Drop),
            clause(5, 30, &[1], &[0], LinkEffect::Delay(Span::TICK)),
        ]);
        assert_eq!(s.quiescent_after(), Some(Time::from_ticks(30)));
        s.links.push(LinkClause {
            from: Time::ZERO,
            until: Time::MAX,
            src: ProcSet::all(2),
            dst: ProcSet::all(2),
            effect: LinkEffect::Lose(1),
        });
        assert_eq!(s.quiescent_after(), None);
    }
}
