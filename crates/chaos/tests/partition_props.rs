//! Property tests for partition semantics: rejection of ill-formed
//! clauses, and deterministic release of queued copies on the event
//! engine and the reference interpreter when a partition heals.

use homonym_chaos::{FaultClause, PartitionMode, Scenario, ScenarioError};
use homonym_core::failure::FailureSchedule;
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::{Span, Time};
use homonym_sim::engine::{Engine, SimConfig};
use homonym_sim::network::NetworkModel;
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::reference::ReferenceEngine;
use proptest::prelude::*;

/// Broadcasts its index once at start and publishes every sender index
/// it hears.
struct Beacon {
    me: u64,
}

impl Process for Beacon {
    type Msg = u64;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.broadcast(self.me);
    }
    fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
        ctx.publish(m);
    }
    fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, u64, u64>) {}
}

fn two_groups(n: usize, k: usize) -> Vec<Vec<usize>> {
    vec![(0..k).collect(), (k..n).collect()]
}

proptest! {
    /// A partition clause whose heal time is not strictly after its
    /// start is rejected, whatever the window.
    #[test]
    fn heal_at_or_before_start_is_rejected(start in 0u64..1_000, back in 0u64..1_000) {
        let heal = start.saturating_sub(back); // heal <= start, hits == often
        let s = Scenario::new("bad-window", 4).with_clause(FaultClause::Partition {
            groups: two_groups(4, 2),
            start: Time::from_ticks(start),
            heal_at: Time::from_ticks(heal),
            mode: PartitionMode::QueueUntilHeal,
        });
        prop_assert_eq!(
            s.validate(),
            Err(ScenarioError::HealsBeforeStart {
                start: Time::from_ticks(start),
                heal_at: Time::from_ticks(heal),
            })
        );
        prop_assert!(s.compile().is_err());
        prop_assert!(s.install(SimConfig::new(
            IdentityAssignment::unique(4),
            FailureSchedule::none(4),
            NetworkModel::reliable(Span::TICK),
        )).is_err());
    }

    /// Event engine: a healed queue-mode partition loses nothing — every
    /// cross-group copy is delivered at exactly the heal instant, in
    /// `(time, seq)` order (ascending sender index, since starts are
    /// enqueued in index order), identically on the engine and the
    /// reference interpreter.
    #[test]
    fn healed_partition_releases_queued_copies_in_order_event_engine(
        n in 2usize..6,
        split in 1usize..5,
        heal in 2u64..40,
        seed in any::<u64>(),
    ) {
        let k = split.min(n - 1);
        let scenario = Scenario::new("prop-split", n).with_clause(FaultClause::Partition {
            groups: two_groups(n, k),
            start: Time::ZERO,
            heal_at: Time::from_ticks(heal),
            mode: PartitionMode::QueueUntilHeal,
        });
        let cfg = SimConfig::new(
            IdentityAssignment::unique(n),
            FailureSchedule::none(n),
            NetworkModel::reliable(Span::TICK),
        )
        .with_seed(seed);
        let cfg = scenario.install(cfg).expect("valid");
        let mut engine = Engine::new(cfg.clone(), |p, _| Beacon { me: p as u64 });
        engine.enable_trace(10_000);
        engine.run_until(Time::from_ticks(heal + 10));
        let mut reference = ReferenceEngine::new(cfg, |p, _| Beacon { me: p as u64 });
        reference.enable_trace(10_000);
        reference.run_until(Time::from_ticks(heal + 10));
        let (histories, metrics) = (engine.histories(), engine.metrics());

        // Byte-identical to the reference interpreter under the scenario.
        prop_assert_eq!(histories, reference.histories());
        prop_assert_eq!(metrics, reference.metrics());
        prop_assert_eq!(engine.trace(), reference.trace());

        // Nothing lost: every copy of every broadcast arrives.
        prop_assert_eq!(metrics.copies_delivered, (n * n) as u64);
        prop_assert_eq!(metrics.copies_blocked, 0);
        prop_assert_eq!(metrics.copies_lost, 0);

        // Same-side copies at t1; cross copies at exactly the heal
        // instant, ascending by sender (the `(time, seq)` order).
        for (p, hist) in histories.iter().enumerate() {
            let my_side = p < k;
            let same: Vec<u64> = hist
                .iter()
                .filter(|(t, _)| *t == Time::from_ticks(1))
                .map(|(_, m)| *m)
                .collect();
            let cross: Vec<u64> = hist
                .iter()
                .filter(|(t, _)| *t == Time::from_ticks(heal))
                .map(|(_, m)| *m)
                .collect();
            prop_assert_eq!(hist.len(), same.len() + cross.len(), "no stray times");
            for &m in &same {
                prop_assert_eq!((m as usize) < k, my_side, "same-side only at t1");
            }
            let expected_cross: Vec<u64> = (0..n as u64)
                .filter(|&m| ((m as usize) < k) != my_side)
                .collect();
            prop_assert_eq!(cross, expected_cross, "heal releases in sender order");
        }
    }

}
