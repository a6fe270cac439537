//! # homonym-sim
//!
//! Deterministic discrete-event simulator for **homonymous message-passing
//! systems** — the substrate on which this workspace reproduces the
//! algorithms of *"Failure Detectors in Homonymous Distributed Systems"*
//! (ICDCS 2012).
//!
//! The paper's three timing models are realized as:
//!
//! * `HAS[∅]` — [`NetworkModel::Asynchronous`] under the event-driven
//!   [`Engine`];
//! * `HPS[∅]` — [`NetworkModel::PartialSync`] (messages sent before an
//!   unknown GST may be lost or delayed; afterwards delivered within `δ`);
//! * `HSS[∅]` — the lock-step [`SyncEngine`], which runs the paper's
//!   synchronous step (send, crash mask, shuffled delivery, receive,
//!   publish) and nothing more. Adversarial, observed and durable
//!   Figure 7 runs are `HSigmaStepProcess` (in `homonym-detectors`) on
//!   [`NetworkModel::Synchronous`], so link faults, Byzantine forging,
//!   the recorder and snapshots are each written once, on [`Engine`].
//!
//! Processes implement [`Process`] (event-driven) or [`SyncProcess`]
//! (lock-step); the engines inject crashes from a
//! [`FailureSchedule`](homonym_core::FailureSchedule), including the
//! model's "arbitrary subset" semantics for a broadcast interrupted by a
//! crash. Runs are fully deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use homonym_core::prelude::*;
//! use homonym_sim::prelude::*;
//!
//! // One process that broadcasts a number and decides when it hears it.
//! struct Loopback;
//! impl Process for Loopback {
//!     type Msg = u64;
//!     type Output = ();
//!     fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, ()>) {
//!         ctx.broadcast(42);
//!     }
//!     fn on_message(&mut self, msg: u64, ctx: &mut ActionSink<'_, u64, ()>) {
//!         ctx.decide(msg);
//!     }
//!     fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, u64, ()>) {}
//! }
//!
//! let cfg = SimConfig::new(
//!     IdentityAssignment::unique(1),
//!     FailureSchedule::none(1),
//!     NetworkModel::reliable(Span::TICK),
//! );
//! let mut engine = Engine::new(cfg, |_, _| Loopback);
//! engine.run_until_all_correct_decided(Time::from_ticks(10));
//! assert_eq!(engine.decisions()[0].map(|(_, v)| v), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod durable;
pub mod engine;
pub mod network;
pub mod process;
mod queue;
pub mod reference;
pub mod snapshot;
pub mod stack;
pub mod store;
pub mod sweep;
pub mod sync_engine;
pub mod workload;

pub use adversary::{
    ByzClause, ByzDirective, ByzEffect, ByzPlan, ByzantineScript, LinkClause, LinkEffect,
    LinkFaultScript, ProcSet,
};
pub use engine::{Engine, EngineArena, Metrics, SimConfig, StopReason};
pub use network::{LatencyDistribution, NetworkModel, PreGstBehavior};
pub use process::{ActionSink, Message, Process, TimerTag};
pub use snapshot::EngineSnapshot;
pub use stack::{split_history, Either, Stacked};
pub use store::{
    decode_container, encode_container, fnv1a, read_verified, write_atomic, StoreError,
    FORMAT_VERSION,
};
pub use sweep::{
    config_divergence, item_divergence, parallel_seed_sweep, parallel_seed_sweep_with, ForkStats,
    PrefixItem, PrefixSweeper, RunGoal,
};
pub use sync_engine::{SyncConfig, SyncEngine, SyncMetrics, SyncProcess, SyncSink};
pub use workload::{ArrivalModel, CommandQueue, KeySkew, WorkloadConfig};
// The observability vocabulary travels with the engines that record it.
pub use homonym_obs::{ObsEvent, ObsKind, Recorder};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::adversary::{
        ByzClause, ByzDirective, ByzEffect, ByzPlan, ByzantineScript, LinkClause, LinkEffect,
        LinkFaultScript, ProcSet,
    };
    pub use crate::engine::{Engine, EngineArena, Metrics, SimConfig, StopReason};
    pub use crate::network::{LatencyDistribution, NetworkModel, PreGstBehavior};
    pub use crate::process::{ActionSink, Message, Process, TimerTag};
    pub use crate::snapshot::EngineSnapshot;
    pub use crate::stack::{split_history, Either, Stacked};
    pub use crate::sweep::{
        config_divergence, item_divergence, parallel_seed_sweep, parallel_seed_sweep_with,
        ForkStats, PrefixItem, PrefixSweeper, RunGoal,
    };
    pub use crate::sync_engine::{SyncConfig, SyncEngine, SyncMetrics, SyncProcess, SyncSink};
    pub use crate::workload::{ArrivalModel, CommandQueue, KeySkew, WorkloadConfig};
    pub use homonym_obs::{ObsEvent, ObsKind, Recorder};
}
