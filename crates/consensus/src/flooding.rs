//! Round-based flooding consensus baselines: the "price of anonymity".
//!
//! The paper's introduction cites the result of \[5\]: in a classical
//! (unique-identifier) system enriched with the perfect detector `P`,
//! consensus takes `t + 1` rounds, while an anonymous system enriched with
//! `AP` requires `2t + 1` rounds. These two baselines reproduce that gap:
//!
//! * [`PFloodingConsensus`] — unique identifiers; in each round every
//!   process broadcasts `(r, id, est)` and waits until it has heard the
//!   round-`r` estimate of **every process its detector still trusts**
//!   (`P`'s trusted set, realized as the exact alive set); it adopts the
//!   minimum and decides after `t + 1` rounds.
//! * [`AnonFloodingConsensus`] — anonymous; in each round every process
//!   broadcasts `(r, est)` and waits until the **count** of round-`r`
//!   messages reaches `anap` (the `AP` bound on alive processes); it
//!   adopts the minimum and decides after `2t + 1` rounds, as prescribed
//!   by the algorithm of \[5\] (which, like ours, must know `t`).
//!
//! Both run in `HAS`-style asynchrony: "rounds" are message-exchange
//! phases paced by the detector guard, not lock-step steps.

use std::collections::BTreeMap;

use homonym_core::identity::Identity;
use homonym_core::query::{APSource, Consumes, SigmaSource};
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

/// Flooding protocol message: round, sender identifier (absent in the
/// anonymous variant), estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodMsg {
    /// The sender's round.
    pub round: u64,
    /// The sender's identifier (`None` in anonymous floods).
    pub id: Option<Identity>,
    /// The sender's current estimate.
    pub est: u64,
}

/// Returns a static class name for a message, for metrics classifiers.
#[must_use]
pub fn classify_flood(_msg: &FloodMsg) -> &'static str {
    "EST"
}

const TICK: TimerTag = TimerTag(0);

/// Classical flooding consensus with a perfect detector: decides in
/// `t + 1` rounds.
///
/// The detector is consumed through [`SigmaSource`]; instantiate it with
/// an exact view (e.g. `OracleWorld::sigma(Span::ZERO)`) to model `P`
/// (complete and strongly accurate).
#[derive(Debug, Clone)]
pub struct PFloodingConsensus<D> {
    detector: D,
    t: usize,
    est: u64,
    round: u64,
    inbox: BTreeMap<u64, Vec<(Identity, u64)>>,
    decided: bool,
    tick: Span,
}

impl<D: SigmaSource> PFloodingConsensus<D> {
    /// Creates a process proposing `proposal`, tolerating up to `t`
    /// crashes (decides at the end of round `t + 1`).
    #[must_use]
    pub fn new(proposal: u64, t: usize, detector: D) -> Self {
        PFloodingConsensus {
            detector,
            t,
            est: proposal,
            round: 0,
            inbox: BTreeMap::new(),
            decided: false,
            tick: Span::TICK,
        }
    }

    /// The round this process is currently executing (1-based).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    fn start_round(&mut self, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        self.round += 1;
        let r = self.round;
        self.inbox.retain(|&k, _| k >= r);
        ctx.publish(r);
        ctx.broadcast(FloodMsg {
            round: r,
            id: Some(ctx.my_id()),
            est: self.est,
        });
    }

    fn try_advance(&mut self, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        while !self.decided {
            let r = self.round;
            let trusted = self.detector.sigma(ctx.local_now()).trusted;
            let empty = Vec::new();
            let got = self.inbox.get(&r).unwrap_or(&empty);
            // Wait until every still-trusted identifier has reported.
            let all_in = trusted
                .support()
                .all(|i| got.iter().any(|(sender, _)| sender == i));
            if !all_in {
                return;
            }
            if let Some(&(_, min_est)) = got.iter().min_by_key(|(_, e)| *e) {
                self.est = self.est.min(min_est);
            }
            if r > self.t as u64 {
                ctx.decide(self.est);
                self.decided = true;
                ctx.halt();
                return;
            }
            self.start_round(ctx);
        }
    }
}

/// The process hands what the stack gives it to its detector.
impl<O, D: Consumes<O>> Consumes<O> for PFloodingConsensus<D> {
    fn consume(&mut self, output: &O) {
        self.detector.consume(output);
    }
}

impl<D: SigmaSource + Send + 'static> Process for PFloodingConsensus<D> {
    type Msg = FloodMsg;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        self.start_round(ctx);
        ctx.set_timer(self.tick, TICK);
        self.try_advance(ctx);
    }

    fn on_message(&mut self, msg: FloodMsg, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        if self.decided {
            return;
        }
        if msg.round >= self.round {
            let id = msg.id.expect("P-flooding messages carry identifiers");
            self.inbox.entry(msg.round).or_default().push((id, msg.est));
        }
        self.try_advance(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        debug_assert_eq!(timer, TICK);
        if self.decided {
            return;
        }
        self.try_advance(ctx);
        ctx.set_timer(self.tick, TICK);
    }
}

/// Anonymous flooding consensus with `AP`: decides in `2t + 1` rounds.
#[derive(Debug, Clone)]
pub struct AnonFloodingConsensus<D> {
    detector: D,
    t: usize,
    est: u64,
    round: u64,
    inbox: BTreeMap<u64, Vec<u64>>,
    decided: bool,
    tick: Span,
}

impl<D: APSource> AnonFloodingConsensus<D> {
    /// Creates a process proposing `proposal`, tolerating up to `t`
    /// crashes (decides at the end of round `2t + 1`).
    #[must_use]
    pub fn new(proposal: u64, t: usize, detector: D) -> Self {
        AnonFloodingConsensus {
            detector,
            t,
            est: proposal,
            round: 0,
            inbox: BTreeMap::new(),
            decided: false,
            tick: Span::TICK,
        }
    }

    /// The round this process is currently executing (1-based).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    fn start_round(&mut self, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        self.round += 1;
        let r = self.round;
        self.inbox.retain(|&k, _| k >= r);
        ctx.publish(r);
        ctx.broadcast(FloodMsg {
            round: r,
            id: None,
            est: self.est,
        });
    }

    fn try_advance(&mut self, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        while !self.decided {
            let r = self.round;
            let anap = self.detector.ap(ctx.local_now()).anap;
            let empty = Vec::new();
            let got = self.inbox.get(&r).unwrap_or(&empty);
            // Anonymity: no identifiers, only counts vs the AP bound.
            if got.len() < anap {
                return;
            }
            if let Some(&min_est) = got.iter().min() {
                self.est = self.est.min(min_est);
            }
            if r > 2 * self.t as u64 {
                ctx.decide(self.est);
                self.decided = true;
                ctx.halt();
                return;
            }
            self.start_round(ctx);
        }
    }
}

/// The process hands what the stack gives it to its detector.
impl<O, D: Consumes<O>> Consumes<O> for AnonFloodingConsensus<D> {
    fn consume(&mut self, output: &O) {
        self.detector.consume(output);
    }
}

impl<D: APSource + Send + 'static> Process for AnonFloodingConsensus<D> {
    type Msg = FloodMsg;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        self.start_round(ctx);
        ctx.set_timer(self.tick, TICK);
        self.try_advance(ctx);
    }

    fn on_message(&mut self, msg: FloodMsg, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
        if self.decided {
            return;
        }
        if msg.round >= self.round {
            debug_assert!(msg.id.is_none(), "anonymous floods carry no identifier");
            self.inbox.entry(msg.round).or_default().push(msg.est);
        }
        self.try_advance(ctx);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, FloodMsg, u64>) {
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
    use homonym_detectors::oracle::OracleWorld;
    use homonym_sim::prelude::*;

    fn async_net() -> NetworkModel {
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::from_ticks(1),
            max: Span::from_ticks(4),
        })
    }

    fn rounds_used(hist: &[History<u64>], sched: &FailureSchedule) -> u64 {
        sched
            .correct_set()
            .into_iter()
            .flat_map(|p| hist[p].iter().map(|(_, r)| *r))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn p_flooding_decides_in_t_plus_one_rounds() {
        let n = 5;
        let t = 2;
        let assign = IdentityAssignment::unique(n);
        let sched = FailureSchedule::none(n).with_crash(0, Time::from_ticks(7));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let proposals = vec![9, 4, 6, 2, 8];
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(1);
        let mut engine = Engine::new(cfg, |p, _| {
            let _ = p;
            PFloodingConsensus::new(props[p], t, w.sigma(Span::ZERO))
        });
        let reason = engine.run_until_all_correct_decided(Time::from_ticks(20_000));
        assert_eq!(reason, StopReason::ConditionMet);
        let rep = check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
        assert_eq!(rep.value, 2);
        assert_eq!(rounds_used(engine.histories(), &sched), (t + 1) as u64);
    }

    #[test]
    fn anon_flooding_decides_in_2t_plus_one_rounds() {
        let n = 5;
        let t = 2;
        let assign = IdentityAssignment::anonymous(n);
        let sched = FailureSchedule::none(n).with_crash(4, Time::from_ticks(11));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let proposals = vec![9, 4, 6, 2, 8];
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(2);
        let mut engine = Engine::new(cfg, |p, _| {
            AnonFloodingConsensus::new(props[p], t, w.ap(Span::from_ticks(6)))
        });
        let reason = engine.run_until_all_correct_decided(Time::from_ticks(20_000));
        assert_eq!(reason, StopReason::ConditionMet);
        let rep = check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
        assert_eq!(rep.value, 2);
        assert_eq!(rounds_used(engine.histories(), &sched), (2 * t + 1) as u64);
    }

    #[test]
    fn the_gap_is_two_to_one_for_all_t() {
        for t in 1usize..4 {
            let n = 2 * t + 1;
            let sched = FailureSchedule::none(n);
            let wu = OracleWorld::new(sched.clone(), IdentityAssignment::unique(n), Time::ZERO);
            let wa = OracleWorld::new(sched.clone(), IdentityAssignment::anonymous(n), Time::ZERO);
            let proposals: Vec<u64> = (0..n as u64).collect();

            let props = proposals.clone();
            let cfg = SimConfig::new(IdentityAssignment::unique(n), sched.clone(), async_net())
                .with_seed(t as u64);
            let mut eu = Engine::new(cfg, |p, _| {
                PFloodingConsensus::new(props[p], t, wu.sigma(Span::ZERO))
            });
            eu.run_until_all_correct_decided(Time::from_ticks(50_000));

            let props = proposals.clone();
            let cfg = SimConfig::new(IdentityAssignment::anonymous(n), sched.clone(), async_net())
                .with_seed(t as u64);
            let mut ea = Engine::new(cfg, |p, _| {
                AnonFloodingConsensus::new(props[p], t, wa.ap(Span::ZERO))
            });
            ea.run_until_all_correct_decided(Time::from_ticks(50_000));

            check_consensus(&eu.outcome(proposals.clone()), &sched).expect("P variant holds");
            check_consensus(&ea.outcome(proposals), &sched).expect("AP variant holds");
            let ru = rounds_used(eu.histories(), &sched);
            let ra = rounds_used(ea.histories(), &sched);
            assert_eq!(ru, (t + 1) as u64);
            assert_eq!(ra, (2 * t + 1) as u64);
        }
    }

    #[test]
    fn flooding_survives_cascading_crashes() {
        // One crash per round: the classical worst case for flooding.
        let n = 4;
        let t = 3;
        let assign = IdentityAssignment::unique(n);
        let sched = FailureSchedule::none(n)
            .with_crash(0, Time::from_ticks(4))
            .with_crash(1, Time::from_ticks(9))
            .with_crash(2, Time::from_ticks(14));
        let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
        let proposals = vec![1, 2, 3, 4];
        let props = proposals.clone();
        let cfg = SimConfig::new(assign, sched.clone(), async_net()).with_seed(3);
        let mut engine = Engine::new(cfg, |p, _| {
            PFloodingConsensus::new(props[p], t, w.sigma(Span::ZERO))
        });
        engine.run_until_all_correct_decided(Time::from_ticks(50_000));
        check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    }
}
