//! # homonym-obs
//!
//! Zero-cost structured observability for the homonymous-systems
//! workspace: a typed span/event [`Recorder`], a derived metrics
//! registry ([`RunStats`], [`detector_quality`], [`Histogram`],
//! [`VerdictMatrix`]), and renderers that turn a recorded run into
//! ASCII / Mermaid per-process timelines and percentile tables.
//!
//! ## The zero-cost contract
//!
//! The event engine and the reference interpreter own an
//! `Option<Recorder>` for the protocol's events, and a second one, their
//! *trace*, for the engine's mechanics (starts, broadcasts, deliveries,
//! timers, decisions, halts: one [`ObsKind`] vocabulary, two bounded
//! recorders, so neither crowds the other out). The lock-step engine has
//! neither: an observed Figure 7 run is `HSigmaStepProcess` on the event
//! engine. Algorithms emit events through their sink's `observe` hook, which takes a **closure**: when
//! no recorder is attached the closure is never evaluated and the hook
//! is a single predictable branch — dispatch, RNG draws, traces and
//! metrics stay byte-identical with or without instrumentation. The
//! `obs_props` proptests in the root crate pin this down under active
//! Byzantine scripts, and the benchmark's `obs.recorder.overhead_ratio`
//! ledger row prices the attached case.
//!
//! Recorder state snapshots and restores with the engine
//! (`EngineSnapshot`), so a forked prefix-sweep run carries the spans of
//! its shared prefix.
//!
//! ## A rendered example
//!
//! A three-process quorum round, recorded and rendered:
//!
//! ```
//! use homonym_core::identity::Identity;
//! use homonym_core::time::Time;
//! use homonym_obs::{render_mermaid_timeline, ObsKind, Recorder};
//!
//! let mut rec = Recorder::new(1024);
//! let t = Time::from_ticks;
//! rec.record(t(0), 0, ObsKind::PhaseEnter { round: 0, phase: "VOTE" });
//! rec.record(t(0), 1, ObsKind::PhaseEnter { round: 0, phase: "VOTE" });
//! rec.record(t(6), 0, ObsKind::CertificateFormed {
//!     round: 0,
//!     phase: "VOTE",
//!     size: 3,
//!     labels: vec![(Identity::new(0), 2), (Identity::new(1), 1)],
//! });
//! rec.record(t(6), 0, ObsKind::PhaseEnter { round: 0, phase: "COMMIT" });
//! rec.record(t(11), 0, ObsKind::Decided { value: 100 });
//! let mermaid = render_mermaid_timeline(&rec, 3, "example");
//! assert_eq!(mermaid, "\
//! gantt
//!     title example
//!     dateFormat X
//!     axisFormat %s
//!     section p0
//!     r0 VOTE : 0, 6
//!     cert r0 VOTE size 3 : milestone, 6, 0
//!     r0 COMMIT : 6, 11
//!     decided 100 : milestone, 11, 0
//!     section p1
//!     r0 VOTE : 0, 11
//! ");
//! ```
//!
//! The same recorder renders as an ASCII story via
//! [`render_ascii_timeline`], and aggregates into time-to-decision /
//! certificate-size distributions via [`RunStats::from_recorder`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod record;
pub mod render;

pub use metrics::{detector_quality, EpochQuality, Histogram, RunStats, VerdictMatrix};
pub use record::{ObsEvent, ObsKind, Recorder};
pub use render::{percentile_table, render_ascii_timeline, render_mermaid_timeline};

/// Everything most callers need, importable as
/// `use homonym_obs::prelude::*`.
pub mod prelude {
    pub use crate::metrics::{detector_quality, EpochQuality, Histogram, RunStats, VerdictMatrix};
    pub use crate::record::{ObsEvent, ObsKind, Recorder};
    pub use crate::render::{percentile_table, render_ascii_timeline, render_mermaid_timeline};
}
