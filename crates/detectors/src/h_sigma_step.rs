//! Figure 7 re-expressed for the event-driven engine: `HΣ` via timer-paced
//! steps under **known** synchrony bounds.
//!
//! The synchronous model `HSS[∅]` has *known* bounds on step time and
//! message latency, so a process may legitimately pace itself with a
//! timer: broadcast `IDENT(id(p))` at each step boundary, and at the next
//! boundary gather everything received in between — under the
//! [`NetworkModel::Synchronous`](homonym_sim::network::NetworkModel)
//! latency of exactly one tick, a period of two ticks makes the windows
//! coincide with Figure 7's lock-step steps.
//!
//! This variant exists so the `HΣ` detector can be **stacked** under the
//! asynchronously-written consensus layer (Figure 9) in the event engine —
//! realizing the paper's second combined result: consensus in synchronous
//! homonymous systems with any number of crash failures, knowing neither
//! `t` nor the membership (§1). The lock-step twin lives in
//! [`crate::h_sigma_sync`].

use homonym_core::classes::{HSigmaOutput, Label};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

/// Protocol message: `IDENT(id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepIdentMsg(pub Identity);

const STEP: TimerTag = TimerTag(0);

/// Timer-paced Figure 7 for the event engine.
#[derive(Debug, Clone)]
pub struct HSigmaStepProcess {
    period: Span,
    window: Vec<Identity>,
    output: HSigmaOutput,
}

impl HSigmaStepProcess {
    /// Creates the process. `period` must exceed the known latency bound
    /// (use 2 ticks with [`NetworkModel::Synchronous`]'s 1-tick latency).
    ///
    /// [`NetworkModel::Synchronous`]: homonym_sim::network::NetworkModel
    #[must_use]
    pub fn new(period: Span) -> Self {
        HSigmaStepProcess {
            period,
            window: Vec::new(),
            output: HSigmaOutput::new(),
        }
    }

    /// Current `(h_quora, h_labels)`.
    #[must_use]
    pub fn output(&self) -> &HSigmaOutput {
        &self.output
    }
}

impl Process for HSigmaStepProcess {
    type Msg = StepIdentMsg;
    type Output = HSigmaOutput;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, StepIdentMsg, HSigmaOutput>) {
        ctx.broadcast(StepIdentMsg(ctx.my_id()));
        ctx.set_timer(self.period, STEP);
    }

    fn on_message(
        &mut self,
        msg: StepIdentMsg,
        _ctx: &mut ActionSink<'_, StepIdentMsg, HSigmaOutput>,
    ) {
        self.window.push(msg.0);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, StepIdentMsg, HSigmaOutput>) {
        debug_assert_eq!(timer, STEP);
        let mset: Multiset<Identity> = core::mem::take(&mut self.window).into_iter().collect();
        if !mset.is_empty() {
            let label = Label::id_multiset(mset.clone());
            self.output.insert_quorum(label.clone(), mset);
            self.output.insert_label(label);
            ctx.publish(self.output.clone());
        }
        ctx.broadcast(StepIdentMsg(ctx.my_id()));
        ctx.set_timer(self.period, STEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;

    fn run(
        assign: IdentityAssignment,
        sched: FailureSchedule,
        horizon: u64,
        seed: u64,
    ) -> Vec<History<HSigmaOutput>> {
        let cfg = SimConfig::new(assign, sched, NetworkModel::Synchronous).with_seed(seed);
        let mut engine = Engine::new(cfg, |_, _| HSigmaStepProcess::new(Span::from_ticks(2)));
        engine.run_until(Time::from_ticks(horizon));
        engine.histories().to_vec()
    }

    #[test]
    fn failure_free_run_is_class_valid() {
        let assign = IdentityAssignment::round_robin(5, 2);
        let sched = FailureSchedule::none(5);
        let hist = run(assign.clone(), sched.clone(), 40, 1);
        let rep = check_h_sigma(&hist, &sched, &assign).expect("HΣ class valid");
        assert_eq!(rep.labels_observed, 1, "one label: the full multiset");
    }

    #[test]
    fn crash_epochs_stay_valid() {
        for seed in 0..6 {
            let assign = IdentityAssignment::round_robin(6, 3);
            let sched = FailureSchedule::none(6)
                .with_crash(1, Time::from_ticks(7))
                .with_crash(4, Time::from_ticks(15));
            let hist = run(assign.clone(), sched.clone(), 60, seed);
            check_h_sigma(&hist, &sched, &assign).expect("HΣ class valid");
        }
    }

    #[test]
    fn matches_lockstep_twin_on_failure_free_runs() {
        use crate::h_sigma_sync::HSigmaSyncProcess;
        let assign = IdentityAssignment::round_robin(4, 2);
        let sched = FailureSchedule::none(4);

        let step_hist = run(assign.clone(), sched.clone(), 30, 2);
        let cfg = SyncConfig::new(assign.clone(), sched.clone()).with_seed(2);
        let mut lockstep = SyncEngine::new(cfg, |_, id| HSigmaSyncProcess::new(id));
        lockstep.run_steps(10);

        // Both converge to the same single quorum pair.
        let a = &step_hist[0].last().expect("steps ran").1;
        let b = &lockstep.histories()[0].last().expect("steps ran").1;
        assert_eq!(a.h_quora, b.h_quora);
    }

    #[test]
    fn liveness_pair_is_i_correct() {
        let assign = IdentityAssignment::round_robin(5, 2);
        let sched = FailureSchedule::none(5).with_crash(2, Time::from_ticks(9));
        let hist = run(assign.clone(), sched.clone(), 60, 3);
        let i_correct = sched.i_correct(&assign);
        for p in sched.correct_set() {
            let last = &hist[p].last().expect("steps ran").1;
            assert!(last.h_quora.values().any(|m| m == &i_correct));
        }
    }
}
