//! The tables behind the `exp` binary, one module per figure: `exp
//! <name>` runs the module's `main`, which runs the figure's workloads,
//! judges every run with the class or consensus checkers, and prints the
//! figure's markdown tables on stdout. What more than one table uses
//! lives here.

use homonym_consensus::{LeaderPolicy, MajorityConsensus};
use homonym_core::prelude::*;
use homonym_sim::prelude::*;

/// Declares the module of each figure and the table `exp` selects from,
/// so that a figure's name is spelled once.
macro_rules! figures {
    ($($name:ident),+) => {
        $(mod $name;)+

        /// Every figure `exp` can print: the name given on the command
        /// line and the printer it selects.
        pub const ALL: &[(&str, fn())] = &[$((stringify!($name), $name::main)),+];
    };
}

figures!(
    ablation, chaos, combined, e2e, fig1_fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, price
);

/// A uniformly jittered reliable asynchronous network.
fn async_net(min: u64, max: u64) -> NetworkModel {
    NetworkModel::Asynchronous(LatencyDistribution::Uniform {
        min: Span::from_ticks(min),
        max: Span::from_ticks(max),
    })
}

/// A partially synchronous network with lossy pre-GST behaviour (used for
/// detector-only experiments).
fn hps_lossy(gst: u64, delta: u64) -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::from_ticks(gst),
        delta: Span::from_ticks(delta),
        pre_gst: PreGstBehavior::LossyDelay {
            loss_percent: 40,
            max_delay: Span::from_ticks(3 * delta.max(10)),
        },
    }
}

/// Spreads `crashes` crash times evenly before `by`.
fn staggered_crashes(n: usize, crashes: usize, by: u64) -> FailureSchedule {
    let mut sched = FailureSchedule::none(n);
    for k in 0..crashes.min(n.saturating_sub(1)) {
        let t = by * (k as u64 + 1) / (crashes as u64 + 1);
        sched.set_crash(n - 1 - k, Time::from_ticks(t.max(1)));
    }
    sched
}

/// The latest tick at which a liveness predicate locked in at a correct
/// process (0 if it never did).
fn latest(liveness_from: &[Option<Time>]) -> u64 {
    liveness_from
        .iter()
        .flatten()
        .map(|t| t.ticks())
        .max()
        .unwrap_or(0)
}

/// The highest round any process published.
fn max_round(histories: &[History<u64>]) -> u64 {
    histories
        .iter()
        .flat_map(|h| h.iter().map(|(_, r)| *r))
        .max()
        .unwrap_or(0)
}

/// Judges a finished consensus run with `check_consensus`: the tick by
/// which every correct process had decided, or `None` if one never did,
/// which only a run that `may_block` may do.
///
/// # Panics
///
/// Panics on any other violation.
fn decided_by(outcome: &ConsensusOutcome, sched: &FailureSchedule, may_block: bool) -> Option<u64> {
    match check_consensus(outcome, sched) {
        Ok(rep) => Some(rep.last_decision.ticks()),
        Err(e) => {
            assert!(
                e.property == "termination" && may_block,
                "consensus property violated: {e}"
            );
            None
        }
    }
}

/// A consensus run as the tables print it.
struct Consensus {
    /// See [`decided_by`].
    decided_by: Option<u64>,
    /// The highest round a process reached.
    rounds: u64,
    /// Broadcasts over the run.
    broadcasts: u64,
}

/// Runs Figure 8's algorithm (`t = ⌊(n−1)/2⌋`) on `async_net(1, 5)` until
/// every correct process decided or `deadline`: process `p` proposes
/// `proposals[p]` and reads its leader through `policy(p)`.
fn majority<L: LeaderPolicy>(
    assign: IdentityAssignment,
    sched: &FailureSchedule,
    proposals: Vec<u64>,
    deadline: Time,
    may_block: bool,
    seed: u64,
    policy: impl Fn(usize) -> L,
) -> Consensus {
    let n = assign.n();
    let cfg = SimConfig::new(assign, sched.clone(), async_net(1, 5)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        MajorityConsensus::new(proposals[p], n, (n - 1) / 2, policy(p))
    });
    engine.run_until_all_correct_decided(deadline);
    Consensus {
        decided_by: decided_by(&engine.outcome(proposals), sched, may_block),
        rounds: max_round(engine.histories()),
        broadcasts: engine.metrics().broadcasts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_crashes_respects_budget() {
        let s = staggered_crashes(5, 2, 30);
        assert_eq!(s.num_faulty(), 2);
        assert!(s.last_crash_time().expect("crashes exist") < Time::from_ticks(30));
        let none = staggered_crashes(4, 0, 10);
        assert_eq!(none.num_faulty(), 0);
    }
}
