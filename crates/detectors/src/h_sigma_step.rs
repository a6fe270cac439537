//! Figure 7 re-expressed for the event-driven engine: `HΣ` via timer-paced
//! steps under **known** synchrony bounds.
//!
//! The synchronous model `HSS[∅]` has *known* bounds on step time and
//! message latency, so a process may legitimately pace itself with a
//! timer: broadcast `IDENT(id(p))` at each step boundary, and at the next
//! boundary gather everything received in between — under the
//! [`NetworkModel::Synchronous`](homonym_sim::network::NetworkModel)
//! latency of exactly one tick, a period of two ticks makes the windows
//! coincide with Figure 7's lock-step steps: lock-step step `s` publishes
//! at tick `2s + 2`, and a crash at step `c` is a crash at tick `2c + 1`.
//! With partial final broadcasts off on both engines, the two publish
//! the same histories under that map.
//!
//! This variant exists so the `HΣ` detector can be **stacked** under the
//! asynchronously-written consensus layer (Figure 9) in the event engine —
//! realizing the paper's second combined result: consensus in synchronous
//! homonymous systems with any number of crash failures, knowing neither
//! `t` nor the membership (§1). It is also the Figure 7 that runs under
//! link faults, Byzantine forging, the recorder and snapshots, which the
//! event engine alone provides. The lock-step twin lives in
//! [`crate::h_sigma_sync`].

use homonym_core::classes::{HSigmaOutput, Label};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::time::Span;
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::ObsKind;

/// Protocol message: `IDENT(id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepIdentMsg(pub Identity);

const STEP: TimerTag = TimerTag(0);

/// Timer-paced Figure 7 for the event engine.
#[derive(Debug, Clone)]
pub struct HSigmaStepProcess {
    period: Span,
    /// The step the open window belongs to.
    step: u64,
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
            step: 0,
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

    /// Corruption semantics for the Byzantine payload-mutation hook: a
    /// corrupt homonym lies about its identifier. Forged identities are
    /// drawn from a small range so they collide with real ones —
    /// homonymy is the attack surface, not random garbage.
    fn mutate_payload(msg: &StepIdentMsg, entropy: u64) -> Option<StepIdentMsg> {
        Some(StepIdentMsg(Identity::new(
            (msg.0.raw().wrapping_add(1 + entropy)) % 8,
        )))
    }

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
        let trusted = mset.len();
        let before = self.output.h_labels.len();
        if !mset.is_empty() {
            let label = Label::id_multiset(mset.clone());
            self.output.insert_quorum(label.clone(), mset);
            self.output.insert_label(label);
            ctx.publish(self.output.clone());
        }
        let changed = self.output.h_labels.len() != before;
        ctx.observe(|| ObsKind::DetectorEpoch {
            round: self.step,
            trusted: u32::try_from(trusted).unwrap_or(u32::MAX),
            changed,
        });
        self.step += 1;
        ctx.broadcast(StepIdentMsg(ctx.my_id()));
        ctx.set_timer(self.period, STEP);
    }
}

impl Persist for StepIdentMsg {
    fn save(&self, s: &mut Saver) {
        self.0.save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(StepIdentMsg(Persist::load(l)?))
    }
}

homonym_core::persist_fields!(HSigmaStepProcess {
    period,
    step,
    window,
    output
});

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

    /// The twins publish the same histories under the map lock-step step
    /// `s` ↔ tick `2s + 2`, crash step `c` ↔ crash tick `2c + 1`, with
    /// partial final broadcasts off on both engines: over the `exp fig7`
    /// topologies and two more, staggered crash sets (a crash at step 0
    /// among them) and several seeds. With partial final broadcasts on,
    /// the two engines draw their masks from different streams, so each
    /// history is only checked against the class.
    #[test]
    fn matches_lockstep_twin_on_failure_free_runs() {
        use crate::h_sigma_sync::HSigmaSyncProcess;
        const STEPS: u64 = 12;
        let topologies = [
            IdentityAssignment::round_robin(4, 2),
            IdentityAssignment::round_robin(6, 3),
            IdentityAssignment::round_robin(8, 2),
            IdentityAssignment::round_robin(12, 4),
            IdentityAssignment::round_robin(5, 2),
            IdentityAssignment::anonymous(4),
        ];
        let crash_sets = |n: usize| -> [Vec<(usize, u64)>; 5] {
            [
                vec![],
                vec![(n - 1, 0)],
                vec![(n - 1, 2)],
                vec![(n - 1, 1), (n - 2, 4)],
                vec![(0, 0), (n - 1, 3), (n - 2, 6)],
            ]
        };
        let schedule = |n: usize, crashes: &[(usize, u64)], tick: fn(u64) -> u64| {
            let mut sched = FailureSchedule::none(n);
            for &(p, c) in crashes {
                sched.set_crash(p, Time::from_ticks(tick(c)));
            }
            sched
        };
        for assign in &topologies {
            let n = assign.n();
            for crashes in crash_sets(n) {
                let steps = schedule(n, &crashes, |c| c);
                let ticks = schedule(n, &crashes, |c| 2 * c + 1);
                for seed in 0..5 {
                    for partial in [false, true] {
                        let mut cfg =
                            SyncConfig::new(assign.clone(), steps.clone()).with_seed(seed);
                        cfg.partial_broadcast_on_crash = partial;
                        let mut lockstep = SyncEngine::new(cfg, |_, id| HSigmaSyncProcess::new(id));
                        lockstep.run_steps(STEPS);

                        let mut cfg = SimConfig::new(
                            assign.clone(),
                            ticks.clone(),
                            NetworkModel::Synchronous,
                        )
                        .with_seed(seed);
                        cfg.partial_broadcast_on_crash = partial;
                        let mut engine =
                            Engine::new(cfg, |_, _| HSigmaStepProcess::new(Span::from_ticks(2)));
                        engine.run_until(Time::from_ticks(2 * STEPS + 1));

                        if partial {
                            check_h_sigma(lockstep.histories(), &steps, assign)
                                .expect("lock-step HΣ class valid");
                            check_h_sigma(engine.histories(), &ticks, assign)
                                .expect("step-process HΣ class valid");
                            continue;
                        }
                        let mapped: Vec<History<HSigmaOutput>> = (lockstep.histories().iter())
                            .map(|h| {
                                h.iter()
                                    .map(|(at, o)| {
                                        (Time::from_ticks(2 * at.ticks() + 2), o.clone())
                                    })
                                    .collect()
                            })
                            .collect();
                        assert_eq!(
                            engine.histories(),
                            mapped.as_slice(),
                            "n = {n}, crashes {crashes:?}, seed {seed}"
                        );
                    }
                }
            }
        }
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
