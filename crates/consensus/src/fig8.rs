//! Figure 8: consensus in `HAS[t < n/2, HΩ]`.
//!
//! The algorithm proceeds in rounds of four phases:
//!
//! * **Leaders' Coordination Phase** — every process broadcasts
//!   `COORD(id(p), r, est1)`; a process that considers itself a leader
//!   (per `D.h_leader`) waits for `D.h_multiplicity` `COORD` messages
//!   carrying its own identifier and adopts the minimum estimate among
//!   them. This is the paper's novel phase: it makes homonymous co-leaders
//!   converge on a common estimate (Lemma 7).
//! * **Phase 0** — leaders broadcast `PH0(r, est1)`; non-leaders wait for
//!   one and adopt its value.
//! * **Phase 1** — everyone broadcasts `PH1(r, est1)` and waits for
//!   `n − t`; if some value was received from a majority it becomes
//!   `est2`, otherwise `est2 = ⊥`.
//! * **Phase 2** — everyone broadcasts `PH2(r, est2)` and waits for
//!   `n − t`; on `{v}` decide `v` (reliably propagated by Task T2), on
//!   `{v, ⊥}` adopt `v`, on `{⊥}` continue.
//!
//! The pseudocode's blocking `wait until` statements become guards
//! re-evaluated on every message and on a periodic tick (the tick covers
//! guards that only depend on the failure detector's evolving output).
//!
//! The implementation is generic over a [`LeaderPolicy`] so that the
//! baselines the paper builds on fall out as special cases, exactly as
//! §5.3 remarks: with a classical `Ω` (unique identifiers) or an anonymous
//! `AΩ` the Leaders' Coordination Phase is removed and the Phase 0 guard
//! queries the respective detector.

use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::{AOmegaSource, Consumes, HOmegaSource, OmegaSource};
use homonym_core::time::{Span, Time};
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use homonym_sim::process::{ActionSink, Process, TimerTag};

use crate::conflict::crash_model_pick;
use crate::round_window::{RoundRing, Window};

/// Protocol messages of Figure 8 (and of the derived baselines, which
/// simply never send `Coord`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fig8Msg {
    /// `COORD(id, r, est1)` — Leaders' Coordination Phase.
    Coord {
        /// Sender's identifier (the phase filters on it).
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
    /// `PH1(r, est1)`.
    Ph1 {
        /// Sender's round.
        round: u64,
        /// Sender's estimate.
        est: u64,
    },
    /// `PH2(r, est2)` (`None` encodes `⊥`).
    Ph2 {
        /// Sender's round.
        round: u64,
        /// Sender's second estimate, `⊥` when no majority was seen.
        est2: Option<u64>,
    },
    /// `DECIDE(v)` — reliable decision propagation (Task T2).
    Decide {
        /// The decided value.
        value: u64,
    },
}

/// Returns a static class name for a message, for metrics classifiers.
#[must_use]
pub fn classify_fig8(msg: &Fig8Msg) -> &'static str {
    match msg {
        Fig8Msg::Coord { .. } => "COORD",
        Fig8Msg::Ph0 { .. } => "PH0",
        Fig8Msg::Ph1 { .. } => "PH1",
        Fig8Msg::Ph2 { .. } => "PH2",
        Fig8Msg::Decide { .. } => "DECIDE",
    }
}

/// The Byzantine payload mutation of a Figure 8 message (the
/// `Process::mutate_payload` hook of every Figure 8 process): the
/// carried **estimate / decision value** is shifted by a small
/// entropy-derived delta while identifiers and round numbers stay
/// intact — receivers accept the copy as in-protocol, then act on a
/// value nobody proposed. A forged `DECIDE` is decided verbatim by its
/// victim (Task T2 trusts it), which is exactly how an equivocator
/// breaks agreement and validity of the crash-only algorithm.
#[must_use]
pub fn mutate_fig8_msg(msg: &Fig8Msg, entropy: u64) -> Fig8Msg {
    let delta = 1 + entropy % 7;
    match *msg {
        Fig8Msg::Coord { id, round, est } => Fig8Msg::Coord {
            id,
            round,
            est: est.wrapping_add(delta),
        },
        Fig8Msg::Ph0 { round, est } => Fig8Msg::Ph0 {
            round,
            est: est.wrapping_add(delta),
        },
        Fig8Msg::Ph1 { round, est } => Fig8Msg::Ph1 {
            round,
            est: est.wrapping_add(delta),
        },
        Fig8Msg::Ph2 { round, est2 } => Fig8Msg::Ph2 {
            round,
            // `⊥` is forged into a phantom majority value; a real value
            // is shifted.
            est2: Some(est2.map_or(delta, |v| v.wrapping_add(delta))),
        },
        Fig8Msg::Decide { value } => Fig8Msg::Decide {
            value: value.wrapping_add(delta),
        },
    }
}

/// How the consensus skeleton consults its leader detector.
///
/// * Figure 8 proper uses [`HOmegaPolicy`]: possibly many homonymous
///   leaders, coordinated through the `COORD` phase.
/// * [`OmegaPolicy`] (classical `Ω`, unique identifiers) and
///   [`AOmegaPolicy`] (anonymous `AΩ`) have a single leader and no
///   coordination phase — the baselines of \[4\].
pub trait LeaderPolicy: Send + 'static {
    /// Whether this process currently considers itself a leader.
    fn is_leader(&self, now: Time, my_id: Identity) -> bool;

    /// `Some(h_multiplicity)` when a Leaders' Coordination Phase is
    /// required (Figure 8), `None` to skip it (single-leader baselines).
    fn lc_multiplicity(&self, now: Time, my_id: Identity) -> Option<usize>;
}

/// Figure 8's policy: `D ∈ HΩ`.
#[derive(Debug, Clone)]
pub struct HOmegaPolicy<D>(pub D);

impl<D: HOmegaSource + Send + 'static> LeaderPolicy for HOmegaPolicy<D> {
    fn is_leader(&self, now: Time, my_id: Identity) -> bool {
        self.0.h_omega(now).h_leader == my_id
    }

    fn lc_multiplicity(&self, now: Time, _my_id: Identity) -> Option<usize> {
        Some(self.0.h_omega(now).h_multiplicity)
    }
}

/// **Ablation** policy: `D ∈ HΩ` *without* the Leaders' Coordination
/// Phase — what Figure 8 would be if it were a naive port of the
/// anonymous algorithm of \[4\]. Homonymous co-leaders then push their own
/// (possibly different) estimates in Phase 0 and the run may livelock;
/// safety is unaffected. Used by the `exp ablation` experiment to show
/// the coordination phase is load-bearing (Lemma 7).
#[derive(Debug, Clone)]
pub struct UncoordinatedHOmegaPolicy<D>(pub D);

impl<D: HOmegaSource + Send + 'static> LeaderPolicy for UncoordinatedHOmegaPolicy<D> {
    fn is_leader(&self, now: Time, my_id: Identity) -> bool {
        self.0.h_omega(now).h_leader == my_id
    }

    fn lc_multiplicity(&self, _now: Time, _my_id: Identity) -> Option<usize> {
        None
    }
}

/// Classical baseline policy: `D ∈ Ω`, unique identifiers, no
/// coordination phase.
#[derive(Debug, Clone)]
pub struct OmegaPolicy<D>(pub D);

impl<D: OmegaSource + Send + 'static> LeaderPolicy for OmegaPolicy<D> {
    fn is_leader(&self, now: Time, my_id: Identity) -> bool {
        self.0.omega(now).leader == my_id
    }

    fn lc_multiplicity(&self, _now: Time, _my_id: Identity) -> Option<usize> {
        None
    }
}

/// Anonymous baseline policy: `D ∈ AΩ` (Boolean flag), no coordination
/// phase — the algorithm of Figure 4 of \[4\] as described in §5.3.
#[derive(Debug, Clone)]
pub struct AOmegaPolicy<D>(pub D);

impl<D: AOmegaSource + Send + 'static> LeaderPolicy for AOmegaPolicy<D> {
    fn is_leader(&self, now: Time, _my_id: Identity) -> bool {
        self.0.a_omega(now).a_leader
    }

    fn lc_multiplicity(&self, _now: Time, _my_id: Identity) -> Option<usize> {
        None
    }
}

/// A leader policy hands what it is given to the detector it reads.
macro_rules! impl_consumes_for_policy {
    ($($policy:ident),+ $(,)?) => {
        $(impl<O, D: Consumes<O>> Consumes<O> for $policy<D> {
            fn consume(&mut self, output: &O) {
                self.0.consume(output);
            }
        })+
    };
}

impl_consumes_for_policy!(
    HOmegaPolicy,
    UncoordinatedHOmegaPolicy,
    OmegaPolicy,
    AOmegaPolicy,
);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    LeadersCoordination,
    Zero,
    One,
    Two,
}

const TICK: TimerTag = TimerTag(0);

/// One round's buffered protocol state, aggregated at arrival so every
/// guard re-evaluation is O(distinct estimates) with no per-message
/// storage: `COORD` keeps a count and a running minimum (lines 10-14
/// need nothing else), `PH0` keeps the first value (line 17 adopts only
/// that), `PH1`/`PH2` keep per-value counts (the majority scan of lines
/// 22-26 and the `{v} / {v, ⊥} / {⊥}` case split of lines 30-34 are
/// functions of the counts). A window costs O(1) memory per resident
/// round regardless of how many messages arrived.
#[derive(Debug, Default, Clone)]
struct Fig8Window {
    /// `COORD`s carrying my identifier: how many, and their minimum
    /// estimate (meaningful iff `coord_count > 0`).
    coord_count: usize,
    coord_min: u64,
    /// First `PH0` value received, plus the received count (accounting).
    ph0_first: Option<u64>,
    ph0_count: usize,
    /// `PH1` estimates, counted per distinct value.
    ph1: Multiset<u64>,
    /// `PH2` non-`⊥` estimates counted per distinct value, plus how many
    /// `⊥` arrived.
    ph2: Multiset<u64>,
    ph2_bottoms: usize,
}

impl Window for Fig8Window {
    fn reset(&mut self) {
        self.coord_count = 0;
        self.coord_min = 0;
        self.ph0_first = None;
        self.ph0_count = 0;
        self.ph1.clear();
        self.ph2.clear();
        self.ph2_bottoms = 0;
    }
}

/// The Figure 8 consensus process (and its single-leader baselines),
/// parameterized by a [`LeaderPolicy`].
///
/// Requires `n` known and a majority of correct processes (`t < n/2`);
/// waits use the `n − t` threshold of the paper.
#[derive(Debug, Clone)]
pub struct MajorityConsensus<L> {
    policy: L,
    n: usize,
    t: usize,
    est1: u64,
    est2: Option<u64>,
    round: u64,
    phase: Phase,
    rounds: RoundRing<Fig8Window>,
    decided: bool,
    tick: Span,
}

impl<L: LeaderPolicy> MajorityConsensus<L> {
    /// Creates a process proposing `proposal`, in a system of `n`
    /// processes of which at most `t` may crash.
    ///
    /// # Panics
    ///
    /// Panics unless `t < n/2` (the algorithm's standing assumption).
    #[must_use]
    pub fn new(proposal: u64, n: usize, t: usize, policy: L) -> Self {
        assert!(
            2 * t < n,
            "Figure 8 requires a majority of correct processes"
        );
        MajorityConsensus {
            policy,
            n,
            t,
            est1: proposal,
            est2: None,
            round: 0,
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
    /// Stays bounded because every round advance prunes past rounds —
    /// and each resident round costs O(1) memory (counts, not copies).
    #[must_use]
    pub fn buffered_messages(&self) -> usize {
        self.rounds
            .iter()
            .map(|w| w.coord_count + w.ph0_count + w.ph1.len() + w.ph2.len() + w.ph2_bottoms)
            .sum()
    }

    /// Number of rounds currently holding buffered state: the process's
    /// lookahead window, recycled as rounds expire (see
    /// `crate::round_window`).
    #[must_use]
    pub fn resident_rounds(&self) -> usize {
        self.rounds.resident()
    }

    fn wait_threshold(&self) -> usize {
        self.n - self.t
    }

    fn next_round(&mut self, ctx: &mut ActionSink<'_, Fig8Msg, u64>) {
        self.round += 1;
        self.phase = Phase::LeadersCoordination;
        let r = self.round;
        self.rounds.advance_to(r);
        ctx.publish(r);
        // Line 9: every process broadcasts COORD, leaders or not — but the
        // single-leader baselines have no coordination phase at all.
        if self
            .policy
            .lc_multiplicity(ctx.local_now(), ctx.my_id())
            .is_some()
        {
            ctx.broadcast(Fig8Msg::Coord {
                id: ctx.my_id(),
                round: r,
                est: self.est1,
            });
        }
    }

    fn decide(&mut self, v: u64, ctx: &mut ActionSink<'_, Fig8Msg, u64>) {
        ctx.broadcast(Fig8Msg::Decide { value: v });
        ctx.decide(v);
        self.decided = true;
        ctx.halt();
    }

    /// Re-evaluates the current phase guard; returns whether the process
    /// advanced (so the caller loops until quiescent).
    fn eval(&mut self, ctx: &mut ActionSink<'_, Fig8Msg, u64>) -> bool {
        let now = ctx.local_now();
        let my_id = ctx.my_id();
        let r = self.round;
        match self.phase {
            Phase::LeadersCoordination => {
                // Lines 10-11: wait until not leader, or enough COORDs from
                // my homonyms.
                let (received, coord_min) = self
                    .rounds
                    .get(r)
                    .map_or((0, None), |w| (w.coord_count, Some(w.coord_min)));
                let pass = match self.policy.lc_multiplicity(now, my_id) {
                    None => true,
                    Some(mult) => !self.policy.is_leader(now, my_id) || received >= mult,
                };
                if !pass {
                    return false;
                }
                // Lines 12-14: adopt the minimum homonym estimate.
                if received > 0 {
                    self.est1 = coord_min.expect("count > 0 implies a minimum");
                }
                self.phase = Phase::Zero;
                true
            }
            Phase::Zero => {
                // Line 16: wait until leader, or a PH0 of this round.
                let received = self.rounds.get(r).and_then(|w| w.ph0_first);
                if !self.policy.is_leader(now, my_id) && received.is_none() {
                    return false;
                }
                // Line 17: adopt the received value.
                if let Some(v) = received {
                    self.est1 = v;
                }
                // Line 18 then line 20: disseminate, enter Phase 1.
                ctx.broadcast(Fig8Msg::Ph0 {
                    round: r,
                    est: self.est1,
                });
                ctx.broadcast(Fig8Msg::Ph1 {
                    round: r,
                    est: self.est1,
                });
                self.phase = Phase::One;
                true
            }
            Phase::One => {
                // Line 21: wait for n − t PH1 messages of this round.
                let Some(w) = self.rounds.get(r) else {
                    return false;
                };
                if w.ph1.len() < self.wait_threshold() {
                    return false;
                }
                // Lines 22-26: majority value or ⊥ (counts were
                // aggregated at arrival; nothing is allocated here).
                self.est2 = w
                    .ph1
                    .counted()
                    .find(|&(_, c)| 2 * c > self.n)
                    .map(|(&v, _)| v);
                ctx.broadcast(Fig8Msg::Ph2 {
                    round: r,
                    est2: self.est2,
                });
                self.phase = Phase::Two;
                true
            }
            Phase::Two => {
                // Line 29: wait for n − t PH2 messages of this round.
                let Some(w) = self.rounds.get(r) else {
                    return false;
                };
                if w.ph2.len() + w.ph2_bottoms < self.wait_threshold() {
                    return false;
                }
                // Lines 30-34: the per-value counts aggregated at arrival
                // are already the distinct non-⊥ values in order. Under
                // the paper's crash-stop model at most one distinct non-⊥
                // estimate can appear here (majority quorums intersect);
                // a Byzantine equivocator can forge a second one, which
                // crash-only code has no machinery to detect — the
                // crate-wide crash-model policy applies
                // ([`crate::conflict::crash_model_pick`]): smallest value
                // wins, deterministically, and the property layer
                // observes the resulting agreement or validity violation
                // post-hoc (the demonstrated counterexample of the
                // Byzantine sweep). The tolerant stack closes this hole
                // with the other half of the policy.
                let saw_bottom = w.ph2_bottoms > 0;
                let pick = crash_model_pick(w.ph2.support().copied());
                match (pick, saw_bottom) {
                    (Some(v), false) => {
                        self.decide(v, ctx);
                    }
                    (Some(v), true) => {
                        self.est1 = v;
                        self.next_round(ctx);
                    }
                    (None, _) => {
                        self.next_round(ctx);
                    }
                }
                true
            }
        }
    }

    fn try_advance(&mut self, ctx: &mut ActionSink<'_, Fig8Msg, u64>) {
        while !self.decided && self.eval(ctx) {}
    }
}

/// The consensus half reads its detector through the policy, and hands
/// the policy what the stack hands it.
impl<O, L: Consumes<O>> Consumes<O> for MajorityConsensus<L> {
    fn consume(&mut self, output: &O) {
        self.policy.consume(output);
    }
}

impl<L: LeaderPolicy> Process for MajorityConsensus<L> {
    type Msg = Fig8Msg;
    type Output = u64;

    fn mutate_payload(msg: &Fig8Msg, entropy: u64) -> Option<Fig8Msg> {
        Some(mutate_fig8_msg(msg, entropy))
    }

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Fig8Msg, u64>) {
        self.next_round(ctx);
        ctx.set_timer(self.tick, TICK);
        self.try_advance(ctx);
    }

    fn on_message(&mut self, msg: Fig8Msg, ctx: &mut ActionSink<'_, Fig8Msg, u64>) {
        if self.decided {
            return;
        }
        match msg {
            Fig8Msg::Coord { id, round, est } => {
                // Only COORDs carrying my identifier matter (lines 11-14),
                // and only for rounds not yet finished.
                if id == ctx.my_id() && round >= self.round {
                    let w = self.rounds.get_mut(round);
                    w.coord_min = if w.coord_count == 0 {
                        est
                    } else {
                        w.coord_min.min(est)
                    };
                    w.coord_count += 1;
                }
            }
            Fig8Msg::Ph0 { round, est } => {
                if round >= self.round {
                    let w = self.rounds.get_mut(round);
                    w.ph0_first.get_or_insert(est);
                    w.ph0_count += 1;
                }
            }
            Fig8Msg::Ph1 { round, est } => {
                if round >= self.round {
                    self.rounds.get_mut(round).ph1.insert(est);
                }
            }
            Fig8Msg::Ph2 { round, est2 } => {
                if round >= self.round {
                    let w = self.rounds.get_mut(round);
                    match est2 {
                        Some(v) => w.ph2.insert(v),
                        None => w.ph2_bottoms += 1,
                    }
                }
            }
            Fig8Msg::Decide { value } => {
                // Task T2: relay and decide.
                self.decide(value, ctx);
                return;
            }
        }
        self.try_advance(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Fig8Msg, u64>) {
        debug_assert_eq!(timer, TICK);
        if self.decided {
            return;
        }
        self.try_advance(ctx);
        ctx.set_timer(self.tick, TICK);
    }
}

impl Persist for Fig8Msg {
    fn save(&self, s: &mut Saver) {
        match self {
            Fig8Msg::Coord { id, round, est } => {
                s.u8(0);
                id.save(s);
                round.save(s);
                est.save(s);
            }
            Fig8Msg::Ph0 { round, est } => {
                s.u8(1);
                round.save(s);
                est.save(s);
            }
            Fig8Msg::Ph1 { round, est } => {
                s.u8(2);
                round.save(s);
                est.save(s);
            }
            Fig8Msg::Ph2 { round, est2 } => {
                s.u8(3);
                round.save(s);
                est2.save(s);
            }
            Fig8Msg::Decide { value } => {
                s.u8(4);
                value.save(s);
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(match l.u8()? {
            0 => Fig8Msg::Coord {
                id: Persist::load(l)?,
                round: Persist::load(l)?,
                est: Persist::load(l)?,
            },
            1 => Fig8Msg::Ph0 {
                round: Persist::load(l)?,
                est: Persist::load(l)?,
            },
            2 => Fig8Msg::Ph1 {
                round: Persist::load(l)?,
                est: Persist::load(l)?,
            },
            3 => Fig8Msg::Ph2 {
                round: Persist::load(l)?,
                est2: Persist::load(l)?,
            },
            4 => Fig8Msg::Decide {
                value: Persist::load(l)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "Fig8Msg",
                    tag,
                })
            }
        })
    }
}

homonym_core::persist_unit_enum!(Phase {
    LeadersCoordination = 0,
    Zero = 1,
    One = 2,
    Two = 3,
});

homonym_core::persist_fields!(Fig8Window {
    coord_count,
    coord_min,
    ph0_first,
    ph0_count,
    ph1,
    ph2,
    ph2_bottoms
});

/// The policy (and through it any wired detector cell) encodes inside
/// the same saver as the rest of the stack, so cross-half aliasing
/// survives the round trip.
impl<D: Persist> Persist for HOmegaPolicy<D> {
    fn save(&self, s: &mut Saver) {
        self.0.save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(HOmegaPolicy(D::load(l)?))
    }
}

// Every round change goes through the ring (`advance_to`), so a run
// keeps its base at the current round.
homonym_core::persist_fields!(impl[L: Persist] MajorityConsensus<L> {
    policy, n, t, est1, est2, round, phase, rounds, decided, tick
} if |c| c.rounds.base() == c.round);

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

    fn run_fig8(
        assign: IdentityAssignment,
        sched: FailureSchedule,
        proposals: Vec<u64>,
        stabilize: u64,
        pre: PreStability,
        seed: u64,
    ) -> (ConsensusOutcome, FailureSchedule, u64) {
        let n = assign.n();
        let t = (n - 1) / 2;
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(seed);
        let mut engine = Engine::new(cfg, |p, _| {
            MajorityConsensus::new(props[p], n, t, HOmegaPolicy(w.h_omega_for(p, pre)))
        });
        engine.run_until_all_correct_decided(Time::from_ticks(50_000));
        let max_round = engine
            .histories()
            .iter()
            .flat_map(|h| h.iter().map(|(_, r)| *r))
            .max()
            .unwrap_or(0);
        (engine.outcome(proposals), sched, max_round)
    }

    /// A snapshot whose ring starts past its round is refused: the next
    /// `PH0` of the round would be buffered for an expired round.
    #[test]
    fn a_snapshot_whose_ring_left_its_round_is_refused() {
        use homonym_core::wire::{from_bytes, to_bytes};
        type Engine8 = MajorityConsensus<HOmegaPolicy<HOmegaOutput>>;
        let leader = HOmegaOutput::new(Identity::new(0), 1);
        let fresh: Engine8 = MajorityConsensus::new(5, 3, 1, HOmegaPolicy(leader));
        let mut ahead = fresh.clone();
        ahead.rounds.advance_to(1);
        let decoded = from_bytes::<Engine8>(&to_bytes(&ahead)).map(|mut c| {
            let mut actions = Vec::new();
            let mut sink = ActionSink::new(Identity::new(0), Time::ZERO, &mut actions);
            c.on_message(Fig8Msg::Ph0 { round: 0, est: 5 }, &mut sink);
        });
        let what = "MajorityConsensus<L>";
        assert_eq!(decoded, Err(WireError::BadValue { what }));
        assert!(from_bytes::<Engine8>(&to_bytes(&fresh)).is_ok());
    }

    #[test]
    fn failure_free_unique_ids_decide() {
        let n = 5;
        let (outcome, sched, rounds) = run_fig8(
            IdentityAssignment::unique(n),
            FailureSchedule::none(n),
            vec![9, 3, 7, 5, 1],
            0,
            PreStability::Truthful,
            1,
        );
        let rep = check_consensus(&outcome, &sched).expect("consensus holds");
        // With unique identifiers there is a single leader (p0, smallest
        // correct id); everyone adopts its estimate in Phase 0.
        assert_eq!(rep.value, 9);
        assert!(rounds >= 1);
    }

    #[test]
    fn homonymous_leaders_coordinate() {
        // 6 processes over 2 ids: A B A B A B; leaders are all the A's.
        let n = 6;
        let (outcome, sched, _) = run_fig8(
            IdentityAssignment::round_robin(n, 2),
            FailureSchedule::none(n),
            vec![40, 10, 20, 11, 30, 12],
            0,
            PreStability::Truthful,
            2,
        );
        let rep = check_consensus(&outcome, &sched).expect("consensus holds");
        // The A-leaders (p0, p2, p4) coordinate on min(40, 20, 30) = 20.
        assert_eq!(rep.value, 20);
    }

    #[test]
    fn anonymous_extreme_still_decides() {
        let n = 5;
        let (outcome, sched, _) = run_fig8(
            IdentityAssignment::anonymous(n),
            FailureSchedule::none(n),
            vec![5, 4, 3, 2, 1],
            0,
            PreStability::Truthful,
            3,
        );
        // All processes are leaders with multiplicity 5: the LC phase
        // makes them all adopt the global minimum.
        let rep = check_consensus(&outcome, &sched).expect("consensus holds");
        assert_eq!(rep.value, 1);
    }

    #[test]
    fn chaotic_detector_until_stabilization_is_tolerated() {
        for seed in 0..8 {
            let n = 5;
            let (outcome, sched, _) = run_fig8(
                IdentityAssignment::round_robin(n, 2),
                FailureSchedule::none(n).with_crash(1, Time::from_ticks(40)),
                vec![50, 40, 30, 20, 10],
                300,
                PreStability::Chaotic,
                seed,
            );
            check_consensus(&outcome, &sched).expect("consensus holds despite chaos");
        }
    }

    #[test]
    fn leader_crashes_are_survived() {
        // All leaders (identifier A) crash; HΩ re-elects identifier B.
        let n = 5;
        let assign = IdentityAssignment::round_robin(n, 2); // A B A B A
        let sched = FailureSchedule::none(n)
            .with_crash(0, Time::from_ticks(30))
            .with_crash(2, Time::from_ticks(60));
        // p4 also carries A — keep it alive so A remains elected? No:
        // crash it too would exceed t. Instead the oracle elects the
        // smallest *correct* id, which is A while p4 lives.
        let (outcome, sched, _) = run_fig8(
            assign,
            sched,
            vec![1, 2, 3, 4, 5],
            100,
            PreStability::Chaotic,
            7,
        );
        check_consensus(&outcome, &sched).expect("consensus holds");
    }

    #[test]
    fn crash_during_decide_broadcast_preserves_agreement() {
        // The first decider may crash mid-DECIDE; the rest must still
        // agree via the {v, ⊥} adoption rule.
        for seed in 0..10 {
            let n = 5;
            let assign = IdentityAssignment::round_robin(n, 2);
            let sched = FailureSchedule::none(n).with_crash(0, Time::from_ticks(25 + seed));
            let (outcome, sched, _) = run_fig8(
                assign,
                sched,
                vec![3, 1, 4, 1, 5],
                0,
                PreStability::Truthful,
                seed,
            );
            check_consensus(&outcome, &sched).expect("consensus holds");
        }
    }

    #[test]
    fn omega_baseline_decides_with_unique_ids() {
        let n = 4;
        let assign = IdentityAssignment::unique(n);
        let sched = FailureSchedule::none(n).with_crash(3, Time::from_ticks(20));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(60));
        let proposals = vec![8, 6, 7, 5];
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(4);
        let mut engine = Engine::new(cfg, |p, _| {
            MajorityConsensus::new(
                props[p],
                n,
                1,
                OmegaPolicy(w.omega_for(p, PreStability::Chaotic)),
            )
        });
        engine.run_until_all_correct_decided(Time::from_ticks(50_000));
        check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    }

    #[test]
    fn a_omega_baseline_decides_in_anonymous_system() {
        let n = 5;
        let assign = IdentityAssignment::anonymous(n);
        let sched = FailureSchedule::none(n).with_crash(2, Time::from_ticks(15));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(80));
        let proposals = vec![11, 22, 33, 44, 55];
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(5);
        let mut engine = Engine::new(cfg, |p, _| {
            MajorityConsensus::new(
                props[p],
                n,
                2,
                AOmegaPolicy(w.a_omega_for(p, PreStability::Chaotic)),
            )
        });
        engine.run_until_all_correct_decided(Time::from_ticks(50_000));
        check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    }

    #[test]
    fn blocks_without_a_correct_majority() {
        // 2 of 4 crash: t = 1 is assumed but 2 crash — the n − t waits can
        // still be served... with 2 crashed and threshold 3 they cannot.
        // Safety must hold (nobody decides inconsistently); liveness is
        // forfeited: nobody decides at all.
        let n = 4;
        let assign = IdentityAssignment::round_robin(n, 2);
        let sched = FailureSchedule::none(n)
            .with_crash(0, Time::from_ticks(1))
            .with_crash(1, Time::from_ticks(1));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let proposals = vec![1, 2, 3, 4];
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(6);
        let mut engine = Engine::new(cfg, |p, _| {
            MajorityConsensus::new(
                props[p],
                n,
                1,
                HOmegaPolicy(w.h_omega_for(p, PreStability::Truthful)),
            )
        });
        let reason = engine.run_until_all_correct_decided(Time::from_ticks(3_000));
        assert_ne!(reason, StopReason::ConditionMet);
        assert!(engine.decisions().iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "majority")]
    fn constructor_rejects_t_at_least_half() {
        let _ = MajorityConsensus::new(
            0,
            4,
            2,
            OmegaPolicy(|_: Time| OmegaOutput::new(Identity::new(0))),
        );
    }

    #[test]
    fn single_process_system_decides_alone() {
        let assign = IdentityAssignment::unique(1);
        let sched = FailureSchedule::none(1);
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::reliable(Span::TICK));
        let mut engine = Engine::new(cfg, |p, _| {
            MajorityConsensus::new(
                99,
                1,
                0,
                HOmegaPolicy(w.h_omega_for(p, PreStability::Truthful)),
            )
        });
        engine.run_until_all_correct_decided(Time::from_ticks(1_000));
        let rep = check_consensus(&engine.outcome(vec![99]), &sched).expect("consensus holds");
        assert_eq!(rep.value, 99);
    }
}
