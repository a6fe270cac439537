//! Figure 9: consensus in `HAS[HΩ, HΣ]` — any number of crashes, no
//! knowledge of `n` or `t`.
//!
//! The round structure shares the Leaders' Coordination Phase and Phase 0
//! with Figure 8, but Phases 1 and 2 wait for **quora** provided by an
//! `HΣ` detector instead of `n − t` message counts:
//!
//! * each `PH1`/`PH2` message carries the sender's identifier, its current
//!   **sub-round** `sr`, and its current label set `D2.h_labels`;
//! * a process exits the phase when, for some pair
//!   `(x, mset) ∈ D2.h_quora` and some sub-round `sr`, it has received a
//!   set `M` of messages of that sub-round, all carrying label `x`, whose
//!   sender-identifier **multiset equals `mset`** (homonyms are counted
//!   with multiplicity);
//! * whenever a process's own `h_labels` grows, or it sees a message from
//!   a higher sub-round, it increments `sr` and re-broadcasts with its
//!   refreshed labels (lines 32-36 / 55-59) — this is what makes quora
//!   eventually match despite labels arriving asynchronously;
//! * Phase 1 can be short-cut by any `PH2` of the same round (adopting its
//!   `est2`), Phase 2 by any `COORD` of the next round (lines 23-24 /
//!   43-44), so quorum-forming processes drag the others along.
//!
//! Agreement follows from `HΣ` quorum intersection (Lemma 9): two quora
//! of the same round share a sender, whose `est2` does not change between
//! sub-rounds.

use std::collections::{BTreeMap, BTreeSet};

use homonym_core::classes::Label;
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::{Consumes, HOmegaSource, HSigmaSource};
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

use crate::conflict::crash_model_pick;
use crate::round_window::{RoundRing, Window};

/// A `PH1`/`PH2` payload: sender identifier, round, sub-round, labels,
/// estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumMsg {
    /// Sender's identifier (quora are multisets of these).
    pub id: Identity,
    /// Sender's round.
    pub round: u64,
    /// Sender's sub-round within the phase.
    pub sr: u64,
    /// The sender's `D2.h_labels` at broadcast time.
    pub labels: BTreeSet<Label>,
    /// `est1` in Phase 1 messages; `est2` in Phase 2 (`None` = `⊥`).
    pub est: Option<u64>,
}

/// Protocol messages of Figure 9.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fig9Msg {
    /// `COORD(id, r, est1)` — Leaders' Coordination Phase.
    Coord {
        /// Sender's identifier.
        id: Identity,
        /// Sender's round.
        round: u64,
        /// Sender's estimate.
        est: u64,
    },
    /// `PH0(r, est1)` — leader value dissemination.
    Ph0 {
        /// Sender's round.
        round: u64,
        /// The leader's estimate.
        est: u64,
    },
    /// `PH1(id, r, sr, labels, est1)`.
    Ph1(QuorumMsg),
    /// `PH2(id, r, sr, labels, est2)`.
    Ph2(QuorumMsg),
    /// `DECIDE(v)` — reliable decision propagation (Task T2).
    Decide {
        /// The decided value.
        value: u64,
    },
}

/// Returns a static class name for a message, for metrics classifiers.
#[must_use]
pub fn classify_fig9(msg: &Fig9Msg) -> &'static str {
    match msg {
        Fig9Msg::Coord { .. } => "COORD",
        Fig9Msg::Ph0 { .. } => "PH0",
        Fig9Msg::Ph1(_) => "PH1",
        Fig9Msg::Ph2(_) => "PH2",
        Fig9Msg::Decide { .. } => "DECIDE",
    }
}

/// Round extractor for trace annotation: the round a phase message
/// belongs to (`DECIDE` relays are round-free).
#[must_use]
pub fn round_of_fig9(msg: &Fig9Msg) -> Option<u64> {
    match msg {
        Fig9Msg::Coord { round, .. } | Fig9Msg::Ph0 { round, .. } => Some(*round),
        Fig9Msg::Ph1(q) | Fig9Msg::Ph2(q) => Some(q.round),
        Fig9Msg::Decide { .. } => None,
    }
}

/// The Byzantine payload mutation of a Figure 9 message (the
/// `Process::mutate_payload` hook of every Figure 9 process): estimates
/// and decision values are shifted by a small entropy-derived delta;
/// identifiers, rounds, sub-rounds and label sets stay intact so quorum
/// gathering accepts the forged copy and feeds the phantom value into
/// `find_quorum`.
#[must_use]
pub fn mutate_fig9_msg(msg: &Fig9Msg, entropy: u64) -> Fig9Msg {
    let delta = 1 + entropy % 7;
    let forge_quorum = |q: &QuorumMsg| QuorumMsg {
        est: Some(q.est.map_or(delta, |v| v.wrapping_add(delta))),
        ..q.clone()
    };
    match msg {
        Fig9Msg::Coord { id, round, est } => Fig9Msg::Coord {
            id: *id,
            round: *round,
            est: est.wrapping_add(delta),
        },
        Fig9Msg::Ph0 { round, est } => Fig9Msg::Ph0 {
            round: *round,
            est: est.wrapping_add(delta),
        },
        Fig9Msg::Ph1(q) => Fig9Msg::Ph1(forge_quorum(q)),
        Fig9Msg::Ph2(q) => Fig9Msg::Ph2(forge_quorum(q)),
        Fig9Msg::Decide { value } => Fig9Msg::Decide {
            value: value.wrapping_add(delta),
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    LeadersCoordination,
    Zero,
    One,
    Two,
}

const TICK: TimerTag = TimerTag(0);

/// One round's buffered protocol state. `COORD`/`PH0` aggregate at
/// arrival (the guards only need a count, a minimum and a first value);
/// the quorum phases must keep the full [`QuorumMsg`]s — identifiers,
/// sub-rounds and label sets all feed `find_quorum` — so those live in
/// vectors whose allocations the round ring recycles as rounds expire.
#[derive(Debug, Default, Clone)]
struct Fig9Window {
    /// Whether *any* `COORD` of this round was seen (the Phase 2
    /// next-round short-cut, lines 43-44).
    coord_seen: bool,
    /// `COORD`s carrying my identifier: how many, and their minimum
    /// estimate (meaningful iff `coord_mine_count > 0`).
    coord_mine_count: usize,
    coord_mine_min: u64,
    /// First `PH0` value received, plus the received count (accounting).
    ph0_first: Option<u64>,
    ph0_count: usize,
    /// `PH1` quorum messages of this round.
    ph1: Vec<QuorumMsg>,
    /// `PH2` quorum messages of this round.
    ph2: Vec<QuorumMsg>,
}

impl Window for Fig9Window {
    fn reset(&mut self) {
        self.coord_seen = false;
        self.coord_mine_count = 0;
        self.coord_mine_min = 0;
        self.ph0_first = None;
        self.ph0_count = 0;
        self.ph1.clear();
        self.ph2.clear();
    }
}

/// The Figure 9 consensus process, generic over its detectors
/// `D1 ∈ HΩ` and `D2 ∈ HΣ`.
#[derive(Debug, Clone)]
pub struct QuorumConsensus<D1, D2> {
    d1: D1,
    d2: D2,
    est1: u64,
    est2: Option<u64>,
    round: u64,
    sr: u64,
    current_labels: BTreeSet<Label>,
    phase: Phase,
    rounds: RoundRing<Fig9Window>,
    decided: bool,
    tick: Span,
}

impl<D1: HOmegaSource, D2: HSigmaSource> QuorumConsensus<D1, D2> {
    /// Creates a process proposing `proposal`. Neither `n` nor `t` is
    /// needed.
    #[must_use]
    pub fn new(proposal: u64, d1: D1, d2: D2) -> Self {
        QuorumConsensus {
            d1,
            d2,
            est1: proposal,
            est2: None,
            round: 0,
            sr: 1,
            current_labels: BTreeSet::new(),
            phase: Phase::Two, // overwritten by the first next_round()
            rounds: RoundRing::new(),
            decided: false,
            tick: Span::TICK,
        }
    }

    /// Adjusts the guard re-evaluation period (default: every tick).
    #[must_use]
    pub fn with_tick(mut self, tick: Span) -> Self {
        self.tick = tick;
        self
    }

    /// The round this process is currently executing.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether this process has decided.
    #[must_use]
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// Number of protocol messages currently buffered (all phases).
    /// Stays bounded because every round advance prunes past rounds.
    #[must_use]
    pub fn buffered_messages(&self) -> usize {
        self.rounds
            .iter()
            .map(|w| w.coord_mine_count + w.ph0_count + w.ph1.len() + w.ph2.len())
            .sum()
    }

    /// Number of rounds currently holding buffered state: the process's
    /// lookahead window, recycled as rounds expire (see
    /// `crate::round_window`).
    #[must_use]
    pub fn resident_rounds(&self) -> usize {
        self.rounds.resident()
    }

    fn next_round(&mut self, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        self.round += 1;
        self.phase = Phase::LeadersCoordination;
        let r = self.round;
        self.rounds.advance_to(r);
        ctx.publish(r);
        ctx.broadcast(Fig9Msg::Coord {
            id: ctx.my_id(),
            round: r,
            est: self.est1,
        });
    }

    fn decide(&mut self, v: u64, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        ctx.broadcast(Fig9Msg::Decide { value: v });
        ctx.decide(v);
        self.decided = true;
        ctx.halt();
    }

    fn enter_phase1(&mut self, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        self.phase = Phase::One;
        self.sr = 1;
        self.current_labels = self.d2.h_sigma(ctx.local_now()).h_labels;
        ctx.broadcast(Fig9Msg::Ph1(QuorumMsg {
            id: ctx.my_id(),
            round: self.round,
            sr: self.sr,
            labels: self.current_labels.clone(),
            est: Some(self.est1),
        }));
    }

    fn enter_phase2(&mut self, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        self.phase = Phase::Two;
        self.sr = 1;
        self.current_labels = self.d2.h_sigma(ctx.local_now()).h_labels;
        ctx.broadcast(Fig9Msg::Ph2(QuorumMsg {
            id: ctx.my_id(),
            round: self.round,
            sr: self.sr,
            labels: self.current_labels.clone(),
            est: self.est2,
        }));
    }

    /// Lines 25-28 / 45-48: find a sub-round `sr` and a pair `(x, mset)`
    /// such that the received messages of that sub-round carrying label
    /// `x` contain a sub-multiset of senders equal to `mset`; returns the
    /// chosen message set `M`.
    fn find_quorum<'m>(
        quora: &BTreeMap<Label, Multiset<Identity>>,
        msgs: &'m [QuorumMsg],
    ) -> Option<Vec<&'m QuorumMsg>> {
        let mut srs: Vec<u64> = msgs.iter().map(|m| m.sr).collect();
        srs.sort_unstable();
        srs.dedup();
        for &sr in &srs {
            for (x, mset) in quora {
                if mset.is_empty() {
                    continue;
                }
                let cands: Vec<&QuorumMsg> = msgs
                    .iter()
                    .filter(|m| m.sr == sr && m.labels.contains(x))
                    .collect();
                let available: Multiset<Identity> = cands.iter().map(|m| m.id).collect();
                if !mset.is_subset(&available) {
                    continue;
                }
                // Greedy selection: for each identifier, the first
                // mult(id) candidates in arrival order.
                let mut need: BTreeMap<Identity, usize> =
                    mset.counted().map(|(i, c)| (*i, c)).collect();
                let mut chosen = Vec::with_capacity(mset.len());
                for c in cands {
                    if let Some(k) = need.get_mut(&c.id) {
                        if *k > 0 {
                            *k -= 1;
                            chosen.push(c);
                        }
                    }
                }
                debug_assert_eq!(chosen.len(), mset.len());
                return Some(chosen);
            }
        }
        None
    }

    /// Lines 32-36 / 55-59: sub-round refresh. Returns whether it fired.
    fn refresh_subround(
        &mut self,
        msgs_have_higher_sr: bool,
        ctx: &mut ActionSink<'_, Fig9Msg, u64>,
    ) -> bool {
        let labels_now = self.d2.h_sigma(ctx.local_now()).h_labels;
        if labels_now == self.current_labels && !msgs_have_higher_sr {
            return false;
        }
        self.sr += 1;
        self.current_labels = labels_now;
        let msg = QuorumMsg {
            id: ctx.my_id(),
            round: self.round,
            sr: self.sr,
            labels: self.current_labels.clone(),
            est: if self.phase == Phase::One {
                Some(self.est1)
            } else {
                self.est2
            },
        };
        ctx.broadcast(if self.phase == Phase::One {
            Fig9Msg::Ph1(msg)
        } else {
            Fig9Msg::Ph2(msg)
        });
        true
    }

    /// Re-evaluates the current phase guard; returns whether the process
    /// advanced.
    fn eval(&mut self, ctx: &mut ActionSink<'_, Fig9Msg, u64>) -> bool {
        let now = ctx.local_now();
        let my_id = ctx.my_id();
        let r = self.round;
        match self.phase {
            Phase::LeadersCoordination => {
                let d = self.d1.h_omega(now);
                let (received, coord_min) = self
                    .rounds
                    .get(r)
                    .map_or((0, None), |w| (w.coord_mine_count, Some(w.coord_mine_min)));
                if d.h_leader == my_id && received < d.h_multiplicity {
                    return false;
                }
                if received > 0 {
                    self.est1 = coord_min.expect("count > 0 implies a minimum");
                }
                self.phase = Phase::Zero;
                true
            }
            Phase::Zero => {
                let received = self.rounds.get(r).and_then(|w| w.ph0_first);
                if self.d1.h_omega(now).h_leader != my_id && received.is_none() {
                    return false;
                }
                if let Some(v) = received {
                    self.est1 = v;
                }
                ctx.broadcast(Fig9Msg::Ph0 {
                    round: r,
                    est: self.est1,
                });
                self.enter_phase1(ctx);
                true
            }
            Phase::One => {
                // Lines 23-24: any PH2 of this round short-cuts the phase.
                if let Some(m) = self.rounds.get(r).and_then(|w| w.ph2.first()) {
                    self.est2 = m.est;
                    self.enter_phase2(ctx);
                    return true;
                }
                // Lines 25-31: quorum formation.
                let quora = self.d2.h_sigma(now).h_quora;
                let empty = Vec::new();
                let msgs = self.rounds.get(r).map_or(&empty, |w| &w.ph1);
                if let Some(m_set) = Self::find_quorum(&quora, msgs) {
                    let ests: BTreeSet<Option<u64>> = m_set.iter().map(|m| m.est).collect();
                    self.est2 = if ests.len() == 1 {
                        *ests.first().expect("nonempty quorum")
                    } else {
                        None
                    };
                    self.enter_phase2(ctx);
                    return true;
                }
                // Lines 32-36: sub-round refresh.
                let higher = msgs.iter().any(|m| m.sr > self.sr);
                self.refresh_subround(higher, ctx)
            }
            Phase::Two => {
                // Lines 43-44: a COORD of the next round short-cuts.
                if self.rounds.get(r + 1).is_some_and(|w| w.coord_seen) {
                    self.next_round(ctx);
                    return true;
                }
                // Lines 45-54: quorum formation and decision.
                let quora = self.d2.h_sigma(now).h_quora;
                let empty = Vec::new();
                let msgs = self.rounds.get(r).map_or(&empty, |w| &w.ph2);
                if let Some(m_set) = Self::find_quorum(&quora, msgs) {
                    let mut non_bottom: Vec<u64> = m_set.iter().filter_map(|m| m.est).collect();
                    non_bottom.sort_unstable();
                    non_bottom.dedup();
                    let saw_bottom = m_set.iter().any(|m| m.est.is_none());
                    // Under crash-stop faults one HΣ quorum can carry at
                    // most one distinct non-⊥ estimate; a Byzantine
                    // sender forging quorum messages can smuggle in a
                    // second. Crash-only code cannot detect it — the
                    // crate-wide crash-model policy applies
                    // ([`crate::conflict::crash_model_pick`]): smallest
                    // value wins deterministically and the property
                    // layer observes the damage post-hoc. The tolerant
                    // stack closes this hole with the other half of the
                    // policy.
                    match (crash_model_pick(non_bottom.iter().copied()), saw_bottom) {
                        (Some(v), false) => self.decide(v, ctx),
                        (Some(v), true) => {
                            self.est1 = v;
                            self.next_round(ctx);
                        }
                        (None, _) => self.next_round(ctx),
                    }
                    return true;
                }
                // Lines 55-59: sub-round refresh.
                let higher = msgs.iter().any(|m| m.sr > self.sr);
                self.refresh_subround(higher, ctx)
            }
        }
    }

    fn try_advance(&mut self, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        while !self.decided && self.eval(ctx) {}
    }
}

/// Figure 9 reads both detectors, so it hands each of them whatever the
/// stack hands it; each keeps the readings of its own class.
impl<O, D1: Consumes<O>, D2: Consumes<O>> Consumes<O> for QuorumConsensus<D1, D2> {
    fn consume(&mut self, output: &O) {
        self.d1.consume(output);
        self.d2.consume(output);
    }
}

impl<D1, D2> Process for QuorumConsensus<D1, D2>
where
    D1: HOmegaSource + Send + 'static,
    D2: HSigmaSource + Send + 'static,
{
    type Msg = Fig9Msg;
    type Output = u64;

    fn mutate_payload(msg: &Fig9Msg, entropy: u64) -> Option<Fig9Msg> {
        Some(mutate_fig9_msg(msg, entropy))
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        self.next_round(ctx);
        ctx.set_timer(self.tick, TICK);
        self.try_advance(ctx);
    }

    fn on_message(&mut self, msg: Fig9Msg, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        if self.decided {
            return;
        }
        match msg {
            Fig9Msg::Coord { id, round, est } => {
                // COORDs serve two purposes: the LC guard (own identifier,
                // current round) and the Phase 2 next-round short-cut
                // (any identifier).
                if round >= self.round {
                    let w = self.rounds.get_mut(round);
                    w.coord_seen = true;
                    if id == ctx.my_id() {
                        w.coord_mine_min = if w.coord_mine_count == 0 {
                            est
                        } else {
                            w.coord_mine_min.min(est)
                        };
                        w.coord_mine_count += 1;
                    }
                }
            }
            Fig9Msg::Ph0 { round, est } => {
                if round >= self.round {
                    let w = self.rounds.get_mut(round);
                    w.ph0_first.get_or_insert(est);
                    w.ph0_count += 1;
                }
            }
            Fig9Msg::Ph1(m) => {
                if m.round >= self.round {
                    self.rounds.get_mut(m.round).ph1.push(m);
                }
            }
            Fig9Msg::Ph2(m) => {
                if m.round >= self.round {
                    self.rounds.get_mut(m.round).ph2.push(m);
                }
            }
            Fig9Msg::Decide { value } => {
                self.decide(value, ctx);
                return;
            }
        }
        self.try_advance(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Fig9Msg, u64>) {
        debug_assert_eq!(timer, TICK);
        if self.decided {
            return;
        }
        self.try_advance(ctx);
        ctx.set_timer(self.tick, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_detectors::oracle::{OracleWorld, PreStability};
    use homonym_sim::prelude::*;

    fn async_net() -> NetworkModel {
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::from_ticks(1),
            max: Span::from_ticks(5),
        })
    }

    fn run_fig9(
        assign: IdentityAssignment,
        sched: FailureSchedule,
        proposals: Vec<u64>,
        stabilize: u64,
        pre: PreStability,
        seed: u64,
    ) -> (ConsensusOutcome, FailureSchedule) {
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(seed);
        let mut engine = Engine::new(cfg, |p, _| {
            QuorumConsensus::new(props[p], w.h_omega_for(p, pre), w.h_sigma_for(p, pre))
        });
        engine.run_until_all_correct_decided(Time::from_ticks(50_000));
        (engine.outcome(proposals), sched)
    }

    #[test]
    fn failure_free_homonymous_run_decides() {
        let n = 5;
        let (outcome, sched) = run_fig9(
            IdentityAssignment::round_robin(n, 2),
            FailureSchedule::none(n),
            vec![7, 5, 9, 3, 8],
            0,
            PreStability::Truthful,
            1,
        );
        let rep = check_consensus(&outcome, &sched).expect("consensus holds");
        // Leaders (identifier A: p0, p2, p4) coordinate on min(7, 9, 8) = 7.
        assert_eq!(rep.value, 7);
    }

    #[test]
    fn survives_majority_crash_where_fig8_cannot() {
        // 3 of 4 processes crash: no correct majority exists, yet the HΣ
        // quora (epoch-based) let the survivor decide.
        let n = 4;
        let sched = FailureSchedule::none(n)
            .with_crash(0, Time::from_ticks(14))
            .with_crash(1, Time::from_ticks(9))
            .with_crash(3, Time::from_ticks(21));
        let (outcome, sched) = run_fig9(
            IdentityAssignment::round_robin(n, 2),
            sched,
            vec![4, 3, 2, 1],
            40,
            PreStability::Truthful,
            2,
        );
        check_consensus(&outcome, &sched).expect("consensus holds with t = n - 1");
    }

    #[test]
    fn chaotic_detectors_are_tolerated() {
        for seed in 0..8 {
            let n = 5;
            let sched = FailureSchedule::none(n)
                .with_crash(2, Time::from_ticks(30))
                .with_crash(4, Time::from_ticks(55));
            let (outcome, sched) = run_fig9(
                IdentityAssignment::round_robin(n, 3),
                sched,
                vec![11, 22, 33, 44, 55],
                250,
                PreStability::Chaotic,
                seed,
            );
            check_consensus(&outcome, &sched).expect("consensus holds despite chaos");
        }
    }

    #[test]
    fn anonymous_extreme_decides() {
        let n = 4;
        let (outcome, sched) = run_fig9(
            IdentityAssignment::anonymous(n),
            FailureSchedule::none(n).with_crash(1, Time::from_ticks(12)),
            vec![6, 1, 8, 9],
            30,
            PreStability::Truthful,
            3,
        );
        let rep = check_consensus(&outcome, &sched).expect("consensus holds");
        // Every process is a leader; coordination takes the global min of
        // the received COORD estimates.
        assert!([1, 6, 8, 9].contains(&rep.value));
    }

    #[test]
    fn unique_ids_single_leader_decides() {
        let n = 5;
        let (outcome, sched) = run_fig9(
            IdentityAssignment::unique(n),
            FailureSchedule::none(n).with_crash(0, Time::from_ticks(18)),
            vec![9, 8, 7, 6, 5],
            50,
            PreStability::Truthful,
            4,
        );
        check_consensus(&outcome, &sched).expect("consensus holds");
    }

    #[test]
    fn many_seeds_and_patterns_agree() {
        for seed in 0..10 {
            let n = 6;
            let sched = FailureSchedule::none(n)
                .with_crash((seed % 6) as usize, Time::from_ticks(10 + seed))
                .with_crash(((seed + 2) % 6) as usize, Time::from_ticks(25 + seed));
            let (outcome, sched) = run_fig9(
                IdentityAssignment::round_robin(n, 2),
                sched,
                vec![seed, seed + 1, seed + 2, seed + 3, seed + 4, seed + 5],
                60,
                PreStability::Chaotic,
                seed,
            );
            check_consensus(&outcome, &sched).expect("consensus holds");
        }
    }

    #[test]
    fn single_process_decides_alone() {
        let assign = IdentityAssignment::unique(1);
        let sched = FailureSchedule::none(1);
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::reliable(Span::TICK));
        let mut engine = Engine::new(cfg, |p, _| {
            QuorumConsensus::new(
                42,
                w.h_omega_for(p, PreStability::Truthful),
                w.h_sigma_for(p, PreStability::Truthful),
            )
        });
        engine.run_until_all_correct_decided(Time::from_ticks(1_000));
        let rep = check_consensus(&engine.outcome(vec![42]), &sched).expect("consensus holds");
        assert_eq!(rep.value, 42);
    }
}
