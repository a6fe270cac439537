//! Figure 7: `HΣ` in `HSS[∅]` (synchronous homonymous systems).
//!
//! In every synchronous step each process broadcasts `IDENT(id(p))`, waits
//! for the messages sent in the same step, and gathers the received
//! identifiers into the multiset `mset_p`. The multiset is then used **as
//! its own quorum label**: `h_quora ← h_quora ∪ {(mset_p, mset_p)}` and
//! `h_labels ← h_labels ∪ {mset_p}`.
//!
//! Safety holds because every receiver of a step is itself a member of any
//! quorum it records, and any two step-quora both contain every correct
//! process; liveness holds from the first step after the last crash, when
//! `mset_p = I(Correct)` at every correct process (Theorem 6). Membership
//! is never known initially — everything is learned from `IDENT` traffic.
//!
//! This is the lock-step Figure 7, for `exp fig7`. Its event-engine twin,
//! [`crate::h_sigma_step::HSigmaStepProcess`], publishes the same
//! histories on `NetworkModel::Synchronous` and is the one that runs
//! under faults, forging, the recorder and snapshots.

use homonym_core::classes::{HSigmaOutput, Label};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_sim::sync_engine::{SyncProcess, SyncSink};

/// Protocol message of Figure 7: `IDENT(id)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentMsg(pub Identity);

/// The Figure 7 process (lock-step).
#[derive(Debug, Clone)]
pub struct HSigmaSyncProcess {
    my_id: Identity,
    output: HSigmaOutput,
}

impl HSigmaSyncProcess {
    /// Creates the process; `my_id` must be the identifier the engine
    /// assigns to it.
    #[must_use]
    pub fn new(my_id: Identity) -> Self {
        HSigmaSyncProcess {
            my_id,
            output: HSigmaOutput::new(),
        }
    }

    /// Current `(h_quora, h_labels)`.
    #[must_use]
    pub fn output(&self) -> &HSigmaOutput {
        &self.output
    }
}

impl SyncProcess for HSigmaSyncProcess {
    type Msg = IdentMsg;
    type Output = HSigmaOutput;

    fn send(&mut self, _step: u64, out: &mut Vec<IdentMsg>) {
        out.push(IdentMsg(self.my_id));
    }

    fn receive(
        &mut self,
        _step: u64,
        received: &mut Vec<IdentMsg>,
        sink: &mut SyncSink<HSigmaOutput>,
    ) {
        let mset: Multiset<Identity> = received.drain(..).map(|m| m.0).collect();
        let label = Label::id_multiset(mset.clone());
        self.output.insert_quorum(label.clone(), mset);
        self.output.insert_label(label);
        sink.publish(self.output.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::prelude::*;

    fn run_fig7(
        assign: IdentityAssignment,
        sched: FailureSchedule,
        steps: u64,
        seed: u64,
        partial: bool,
    ) -> Vec<History<HSigmaOutput>> {
        let mut cfg = SyncConfig::new(assign, sched).with_seed(seed);
        cfg.partial_broadcast_on_crash = partial;
        let mut engine = SyncEngine::new(cfg, |_, id| HSigmaSyncProcess::new(id));
        engine.run_steps(steps);
        engine.histories().to_vec()
    }

    #[test]
    fn failure_free_run_is_class_valid() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let sched = FailureSchedule::none(4);
        let hist = run_fig7(assign.clone(), sched.clone(), 5, 1, false);
        let rep = check_h_sigma(&hist, &sched, &assign).expect("HΣ class valid");
        // One label: everyone sees {A, A, B, B} in every step.
        assert_eq!(rep.labels_observed, 1);
    }

    #[test]
    fn crashes_create_epoch_labels_and_stay_safe() {
        let assign = IdentityAssignment::round_robin(5, 2);
        let sched = FailureSchedule::none(5)
            .with_crash(1, Time::from_ticks(2))
            .with_crash(3, Time::from_ticks(4));
        let hist = run_fig7(assign.clone(), sched.clone(), 8, 2, false);
        let rep = check_h_sigma(&hist, &sched, &assign).expect("HΣ class valid");
        assert!(rep.labels_observed >= 3, "one label per alive-set epoch");
    }

    #[test]
    fn partial_final_broadcast_is_still_safe() {
        // A dying process's IDENT reaches an arbitrary subset: receivers
        // record different multisets for the same step; safety must hold.
        for seed in 0..20 {
            let assign = IdentityAssignment::round_robin(5, 2);
            let sched = FailureSchedule::none(5)
                .with_crash(0, Time::from_ticks(1))
                .with_crash(2, Time::from_ticks(3));
            let hist = run_fig7(assign.clone(), sched.clone(), 7, seed, true);
            check_h_sigma(&hist, &sched, &assign).expect("HΣ class valid");
        }
    }

    #[test]
    fn anonymous_system_yields_count_quora() {
        let assign = IdentityAssignment::anonymous(4);
        let sched = FailureSchedule::none(4).with_crash(3, Time::from_ticks(2));
        let hist = run_fig7(assign.clone(), sched.clone(), 6, 3, false);
        check_h_sigma(&hist, &sched, &assign).expect("HΣ class valid");
        // Final quorum multiset is ⊥^3.
        let last = &hist[0].last().expect("steps ran").1;
        let expected: Multiset<Identity> = [(Identity::BOTTOM, 3)].into_iter().collect();
        assert!(last.h_quora.values().any(|m| m == &expected));
    }

    #[test]
    fn liveness_pair_is_i_correct_after_last_crash() {
        let assign = IdentityAssignment::round_robin(6, 3);
        let sched = FailureSchedule::none(6).with_crash(5, Time::from_ticks(1));
        let hist = run_fig7(assign.clone(), sched.clone(), 6, 4, false);
        let i_correct = sched.i_correct(&assign);
        for p in sched.correct_set() {
            let last = &hist[p].last().expect("steps ran").1;
            assert!(
                last.h_quora.values().any(|m| m == &i_correct),
                "process {p} never recorded the I(Correct) quorum"
            );
        }
    }
}
