//! # homonym-chaos
//!
//! The **adversarial scenario subsystem**: declarative fault scripts,
//! partition-aware routing, and a falsification sweep harness for the
//! detector and consensus stacks of *"Failure Detectors in Homonymous
//! Distributed Systems"* (ICDCS 2012).
//!
//! The paper's classes split into **safety** properties that must hold in
//! *every* run and **liveness** properties required only of runs whose
//! environment is eventually well-behaved. The simulator's three network
//! models exercise the friendly side of that split; this crate supplies
//! the adversarial side:
//!
//! * [`Scenario`] — a named, validated composition of reusable
//!   [`FaultClause`]s: timed **partitions** with heal times (queue-mode
//!   partitions release all held copies at the heal instant, in the
//!   engine's deterministic `(time, seq)` order), directional per-link
//!   **loss/delay overlays**, crash-recovery-style **churn** windows,
//!   permanent **crashes**, and an adversarial [`GstPlacement`] that pins
//!   the global stabilization time right after the last fault;
//! * lowering to the engine hook — [`Scenario::install`] compiles the
//!   clauses to a
//!   [`LinkFaultScript`](homonym_sim::adversary::LinkFaultScript)
//!   consulted by the event-driven engine at copy-routing time,
//!   deterministically and without perturbing any existing RNG stream
//!   (the lock-step engine takes no scenario: an adversarial Figure 7 run
//!   is `HSigmaStepProcess` on `NetworkModel::Synchronous`);
//! * [`generators`] — seeded random scenario **families** (below);
//! * [`sweep`] — the [`falsification_sweep`]: thousands of generated
//!   scenarios against a detector/consensus stack, asserting safety
//!   universally, asserting liveness exactly on the eventually-clean
//!   subset (via [`classify_run`](homonym_core::properties::classify_run)),
//!   and reporting the first counterexample as a replayable
//!   seed + script pair.
//!
//! # Scenario catalogue
//!
//! Built-in families, and the paper property each one stresses:
//!
//! | family | shape | stresses |
//! |--------|-------|----------|
//! | [`generators::split_brain`] | one partition cutting the system into two halves, mostly queue-mode, sometimes drop-mode, sometimes with a crash inside the window | `HΩ` election with co-leaders on both sides; Figure 8's majority wait (neither half of an even split can gather `n − t` replies, so termination must stall exactly until the heal); consensus **agreement** across conflicting leader views |
//! | [`generators::flapping_minority`] | a minority repeatedly partitioned away and healed, 2–4 cycles, always queue-mode | `◇HP` timeout adaptation (every flap inflates round-trip estimates); eventual-forever convergence — the detector must re-converge after the *last* flap, not the first; liveness recovery of the full stack |
//! | [`generators::homonym_group_isolation`] | every carrier of one identifier cut off together for one window | `HΩ` multiplicity accounting (the whole multiplicity of the elected identifier vanishes and returns); `◇HP` convergence to `I(Correct)` as a **multiset**; Figure 8's Leaders' Coordination Phase when all co-leaders disappear at once |
//!
//! Scenarios are replayable: `Display` prints the full script, and the
//! generators are pure functions of `(topology, seed)`, so a
//! counterexample's `(family, seed)` coordinates rebuild it exactly.
//!
//! # Example
//!
//! ```
//! use homonym_chaos::{FaultClause, GstPlacement, PartitionMode, Scenario};
//! use homonym_core::prelude::*;
//! use homonym_sim::prelude::*;
//!
//! // A 4-process cluster split 2/2 from t10 to t40; GST right after.
//! let scenario = Scenario::new("doc-split", 4)
//!     .with_clause(FaultClause::Partition {
//!         groups: vec![vec![0, 1], vec![2, 3]],
//!         start: Time::from_ticks(10),
//!         heal_at: Time::from_ticks(40),
//!         mode: PartitionMode::QueueUntilHeal,
//!     })
//!     .with_gst(GstPlacement::AfterLastFault { margin: Span::from_ticks(10) });
//!
//! let cfg = SimConfig::new(
//!     IdentityAssignment::round_robin(4, 2),
//!     FailureSchedule::none(4),
//!     NetworkModel::PartialSync {
//!         gst: Time::ZERO, // placed by the scenario
//!         delta: Span::from_ticks(2),
//!         pre_gst: PreGstBehavior::DelayOnly { max_delay: Span::from_ticks(8) },
//!     },
//! );
//! let cfg = scenario.install(cfg).expect("scenario validates");
//! assert!(cfg.adversary.is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod generators;
pub mod scenario;
pub mod session;
pub mod story;
pub mod sweep;

pub use checkpoint::{
    checkpointed_falsification_sweep, CheckpointConfig, ResumeStats, MANIFEST_SCHEMA,
    SEGMENT_SCHEMA,
};
pub use scenario::{FaultClause, GstPlacement, PartitionMode, Scenario, ScenarioError};
pub use session::{
    rsm_fig8_node, rsm_node, Goal, RsmFig8Node, RsmNode, Session, SessionBuilder, SessionStats,
    SyncSession,
};
pub use story::{byzantine_story, classify_byz_stack, ByzantineStory};
pub use sweep::{
    byz_tolerant_node, falsification_sweep, falsification_sweep_forked, fig8_node, hps_base,
    locate_counterexample_scenario, replay_byzantine_counterexample, ByzTolerantNode,
    ByzantineReplay, Counterexample, Family, Fig8Node, StackKind, SweepConfig, SweepReport,
};
