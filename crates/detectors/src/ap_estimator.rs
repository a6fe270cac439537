//! An `AP` implementation for anonymous systems — and its breaking point.
//!
//! The paper notes (§1, citing \[5\]/\[6\]) that `AP` **can** be implemented
//! in an anonymous *synchronous* system, but **cannot** in most partially
//! synchronous ones (e.g. with all links eventually timely): before GST,
//! heartbeats may be delayed past any timeout, the count under-estimates
//! the alive set, and `AP`'s *perpetual* safety property
//! (`anap_p ≥ |Alive|` at every instant) is violated.
//!
//! [`ApEstimatorProcess`] implements the natural windowed-count algorithm:
//! every `period` ticks broadcast `ALIVE`, and output as `anap` the number
//! of `ALIVE` messages received in the last window. Under the synchronous
//! model (latency 1 < period) this is a correct `AP` implementation; under
//! `HPS` the `exp combined` experiment shows the safety checker
//! catching real violations — reproducing the implementability boundary
//! the paper draws, and motivating why `HΩ` (implementable in `HPS`,
//! Figure 6) is the right detector for partial synchrony.

use homonym_core::classes::APOutput;
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

/// Protocol message: an anonymous heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliveMsg;

const STEP: TimerTag = TimerTag(0);

/// Windowed-count `AP` estimator (sound only under synchrony).
#[derive(Debug, Clone)]
pub struct ApEstimatorProcess {
    period: Span,
    window_count: usize,
    anap: usize,
}

impl ApEstimatorProcess {
    /// Creates an estimator with the given step period; sound when every
    /// message latency is below `period`.
    #[must_use]
    pub fn new(period: Span) -> Self {
        ApEstimatorProcess {
            period,
            window_count: 0,
            anap: usize::MAX, // "no information yet": a safe over-estimate
        }
    }

    /// Current estimate.
    #[must_use]
    pub fn anap(&self) -> usize {
        self.anap
    }
}

impl Process for ApEstimatorProcess {
    type Msg = AliveMsg;
    type Output = APOutput;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, AliveMsg, APOutput>) {
        ctx.broadcast(AliveMsg);
        ctx.set_timer(self.period, STEP);
    }

    fn on_message(&mut self, _msg: AliveMsg, _ctx: &mut ActionSink<'_, AliveMsg, APOutput>) {
        self.window_count += 1;
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, AliveMsg, APOutput>) {
        debug_assert_eq!(timer, STEP);
        self.anap = self.window_count;
        self.window_count = 0;
        ctx.publish(APOutput::new(self.anap));
        ctx.broadcast(AliveMsg);
        ctx.set_timer(self.period, STEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;

    fn run(
        n: usize,
        sched: FailureSchedule,
        network: NetworkModel,
        horizon: u64,
        seed: u64,
    ) -> Vec<History<APOutput>> {
        let mut cfg =
            SimConfig::new(IdentityAssignment::anonymous(n), sched, network).with_seed(seed);
        // Keep final-step broadcasts whole so the synchronous-soundness
        // argument (every alive sender's copy arrives) is exact.
        cfg.partial_broadcast_on_crash = false;
        let mut engine = Engine::new(cfg, |_, _| ApEstimatorProcess::new(Span::from_ticks(2)));
        engine.run_until(Time::from_ticks(horizon));
        engine.histories().to_vec()
    }

    #[test]
    fn sound_under_synchrony() {
        let sched = FailureSchedule::none(5)
            .with_crash(1, Time::from_ticks(9))
            .with_crash(3, Time::from_ticks(21));
        let hist = run(5, sched.clone(), NetworkModel::Synchronous, 120, 1);
        check_ap(&hist, &sched).expect("AP class valid in a synchronous system");
    }

    #[test]
    fn sound_across_seeds_and_patterns() {
        for seed in 0..8 {
            let sched = FailureSchedule::none(4).with_crash(0, Time::from_ticks(5 + seed));
            let hist = run(4, sched.clone(), NetworkModel::Synchronous, 100, seed);
            check_ap(&hist, &sched).expect("AP class valid");
        }
    }

    #[test]
    fn unsound_under_partial_synchrony() {
        // Pre-GST delays push heartbeats past the window: the count
        // under-estimates |Alive| and AP safety breaks. This reproduces
        // the paper's implementability boundary.
        let mut violated = false;
        for seed in 0..10 {
            let sched = FailureSchedule::none(5);
            let network = NetworkModel::PartialSync {
                gst: Time::from_ticks(60),
                delta: Span::TICK,
                pre_gst: PreGstBehavior::DelayOnly {
                    max_delay: Span::from_ticks(30),
                },
            };
            let hist = run(5, sched.clone(), network, 200, seed);
            if let Err(e) = check_ap(&hist, &sched) {
                assert_eq!(e.property, "safety");
                violated = true;
            }
        }
        assert!(
            violated,
            "expected at least one AP safety violation before GST"
        );
    }

    #[test]
    fn initial_output_is_a_safe_overestimate() {
        let p = ApEstimatorProcess::new(Span::from_ticks(2));
        assert_eq!(p.anap(), usize::MAX);
    }
}
