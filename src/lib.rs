//! # homonym
//!
//! A complete Rust reproduction of
//!
//! > *Failure Detectors in Homonymous Distributed Systems (with an
//! > Application to Consensus)* — S. Arévalo, A. Fernández Anta, D. Imbs,
//! > E. Jiménez, M. Raynal (ICDCS 2012)
//!
//! covering the failure-detector classes `◇HP`, `HΩ` and `HΣ`, the
//! reductions relating them to the classical (`Σ`, `Ω`) and anonymous
//! (`AP`, `AΩ`, `AΣ`) classes, their implementations under partial
//! synchrony and synchrony, and the two consensus algorithms for
//! homonymous asynchronous systems — all without initial knowledge of the
//! membership.
//!
//! This meta-crate re-exports the workspace's crates:
//!
//! * [`core`] — identities, multisets, detector classes, property checkers;
//! * [`sim`] — deterministic discrete-event simulator (`HAS`/`HPS`/`HSS`);
//! * [`detectors`] — Figure 6 (`◇HP`/`HΩ`), Figure 7 (`HΣ`), Figure 3
//!   (class `E`), plus class oracles;
//! * [`reductions`] — Figures 1, 2, 4; Theorems 3–4; Observation 1;
//! * [`consensus`] — Figure 8 (`HΩ`, majority) and Figure 9 (`HΩ` + `HΣ`,
//!   any number of crashes), plus classical/anonymous baselines;
//! * [`chaos`] — adversarial scenarios: declarative fault scripts
//!   (partitions, overlays, churn, adversarial GST placement), seeded
//!   scenario family generators, and the falsification sweep harness
//!   that asserts safety universally and liveness on the
//!   eventually-clean subset;
//! * [`obs`] — zero-cost structured observability: the typed span/event
//!   recorder the event engine feeds (round phases, quorum certificates,
//!   detector epochs, attack firings), derived metrics (decision-time
//!   and certificate-size distributions, detector quality curves), and
//!   ASCII/Mermaid timeline renderers.
//!
//! See `EXPERIMENTS.md` for what the reproduction found (each figure's
//! claim, command, checker and pinned table), `docs/log_service.md` for
//! the replicated log service, `docs/durable_sweeps.md` for crash-safe,
//! resumable sweeps, `benchmark/README.md` for the benchmark's workloads
//! and metrics, and `BENCHMARKS.md` for the checkpoint format.
//!
//! # Performance
//!
//! Every figure is regenerated by driving the discrete-event simulator
//! through thousands of runs, so simulator throughput bounds everything.
//! The hot path is engineered accordingly:
//!
//! * **Calendar event queue** — the engine dispatches from a
//!   tick-bucketed calendar queue (`O(1)` push/pop for the
//!   bounded-latency deliveries that dominate traffic, bitmap scans for
//!   the next tick, a binary-heap overflow for far-future timers)
//!   instead of a `BTreeMap`. Dispatch order is the byte-identical
//!   `(time, insertion-seq)` order of the naive `BTreeMap` interpreter
//!   in `homonym_sim::reference`; `tests/trace_determinism.rs` proves it
//!   across all network models, so figure outputs are unchanged.
//! * **Zero-copy broadcasts** — a broadcast enqueues one `Arc`-shared
//!   payload instead of one deep clone per destination; the owned copy a
//!   process receives is cloned lazily at dispatch (the last copy is
//!   moved, not cloned). A message type with no drop glue and at most
//!   64 bytes skips the `Arc` and is copied inline, which is cheaper
//!   than refcounting.
//! * **Small-universe multisets** — `homonym_core::Multiset` stores up
//!   to 16 distinct elements in a sorted inline vector (the common
//!   `ℓ ≤ 16` homonymy degrees) and spills to a `BTreeMap` beyond,
//!   behind an unchanged API with content-based equality, ordering and
//!   hashing.
//! * **Parallel sweeps** — multi-seed experiment sweeps fan out across
//!   cores (`homonym_sim::sweep::parallel_seed_sweep`), and
//!   `IdentityAssignment`/`FailureSchedule` clone in O(1) (`Arc`-backed
//!   tables), so per-run setup no longer scales with `n`.
//!
//! `benchmark/README.md` documents the end-to-end benchmark that tracks
//! these numbers across PRs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use homonym_chaos as chaos;
pub use homonym_consensus as consensus;
pub use homonym_core as core;
pub use homonym_detectors as detectors;
pub use homonym_obs as obs;
pub use homonym_reductions as reductions;
pub use homonym_sim as sim;

/// One-stop import for examples and integration tests.
pub mod prelude {
    pub use homonym_core::prelude::*;
    pub use homonym_sim::prelude::*;
}
