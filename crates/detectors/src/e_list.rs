//! Figure 3: a failure detector of class `E` in `AS[∅]`.
//!
//! Class `E` (Definition 1) equips each process with a sequence `alive_p`
//! of process identifiers such that eventually the correct identifiers
//! permanently occupy the prefix. The algorithm is heartbeat + move-to-
//! front:
//!
//! * Task T1 — repeat forever: `broadcast ALIVE(id(p))`;
//! * Task T2 — upon reception of `ALIVE(i)`: move `i` to the first
//!   position of `alive_p` (inserting it if absent).
//!
//! Faulty processes stop broadcasting, so their identifiers sink below
//! every correct identifier (Lemma 1). The class is only defined for
//! systems with **unique** identifiers; membership is *not* known
//! initially — the list grows as identifiers are heard.

use homonym_core::classes::EListOutput;
use homonym_core::identity::Identity;
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

/// Protocol message of Figure 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EListMsg {
    /// `ALIVE(id)` heartbeat.
    Alive(Identity),
}

const HEARTBEAT: TimerTag = TimerTag(0);

/// The Figure 3 process.
#[derive(Debug, Clone)]
pub struct EListProcess {
    output: EListOutput,
    period: Span,
}

impl EListProcess {
    /// Creates a process that heartbeats every `period` ticks.
    #[must_use]
    pub fn new(period: Span) -> Self {
        EListProcess {
            output: EListOutput::new(),
            period,
        }
    }

    /// The current `alive_p` list.
    #[must_use]
    pub fn output(&self) -> &EListOutput {
        &self.output
    }
}

impl Process for EListProcess {
    type Msg = EListMsg;
    type Output = EListOutput;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, EListMsg, EListOutput>) {
        ctx.broadcast(EListMsg::Alive(ctx.my_id()));
        ctx.set_timer(self.period, HEARTBEAT);
        ctx.publish(self.output.clone());
    }

    fn on_message(&mut self, msg: EListMsg, ctx: &mut ActionSink<'_, EListMsg, EListOutput>) {
        let EListMsg::Alive(i) = msg;
        self.output.move_to_front(i);
        ctx.publish(self.output.clone());
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, EListMsg, EListOutput>) {
        debug_assert_eq!(timer, HEARTBEAT);
        ctx.broadcast(EListMsg::Alive(ctx.my_id()));
        ctx.set_timer(self.period, HEARTBEAT);
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
        horizon: u64,
        seed: u64,
    ) -> (
        Vec<History<EListOutput>>,
        FailureSchedule,
        IdentityAssignment,
    ) {
        let assign = IdentityAssignment::unique(n);
        let cfg = SimConfig::new(
            assign.clone(),
            sched.clone(),
            NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                min: Span::from_ticks(1),
                max: Span::from_ticks(4),
            }),
        )
        .with_seed(seed);
        let mut engine = Engine::new(cfg, |_, _| EListProcess::new(Span::from_ticks(2)));
        engine.run_until(Time::from_ticks(horizon));
        (engine.histories().to_vec(), sched, assign)
    }

    #[test]
    fn failure_free_run_satisfies_class_e() {
        let (hist, sched, assign) = run(4, FailureSchedule::none(4), 100, 1);
        check_e_list(&hist, &sched, &assign).expect("class valid");
    }

    #[test]
    fn crashed_identifiers_sink_below_correct_ones() {
        let sched = FailureSchedule::none(5)
            .with_crash(0, Time::from_ticks(20))
            .with_crash(3, Time::from_ticks(35));
        let (hist, sched, assign) = run(5, sched, 300, 2);
        let rep = check_e_list(&hist, &sched, &assign).expect("class valid");
        assert!(rep.stabilization > Time::from_ticks(20));
        // Final list at a correct process: crashed ids have rank > |Correct|.
        let last = &hist[1].last().expect("nonempty").1;
        assert!(last.rank(Identity::new(0)).expect("heard once") > 3);
        assert!(last.rank(Identity::new(3)).expect("heard once") > 3);
    }

    #[test]
    fn works_across_many_seeds() {
        for seed in 0..10 {
            let sched = FailureSchedule::none(3).with_crash(1, Time::from_ticks(10));
            let (hist, sched, assign) = run(3, sched, 200, seed);
            check_e_list(&hist, &sched, &assign).expect("class valid");
        }
    }
}
