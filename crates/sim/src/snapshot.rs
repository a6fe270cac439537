//! Snapshot/fork support: capture the complete deterministic state of a
//! running engine and restore it later — the substrate of the
//! prefix-sharing sweep executor (see [`crate::sweep`]).
//!
//! # Contract
//!
//! A snapshot captures **everything** a run's future depends on: the
//! calendar queue's contents (including a partially consumed tick batch),
//! every process's algorithm state, the network, adversary and Byzantine
//! RNG streams, the insertion-sequence counter, metrics,
//! histories, decisions and the trace cursor. Restoring it into an
//! engine with the same configuration therefore produces the
//! **byte-identical `(time, seq)` event sequence** an uninterrupted run
//! would from that point — the property `tests/snapshot_restore_props.rs`
//! asserts across network models and random fault scripts,
//! including forks of forks.
//!
//! The prefix-sharing executor additionally restores snapshots under a
//! *different* configuration that provably agrees with the snapshotted
//! one on everything consumed so far, its crash schedule included (see
//! [`config_divergence`](crate::sweep::config_divergence)); crash tables
//! and decision counters are not stored, but recomputed from the
//! adopting engine's own configuration on restore.
//!
//! # A fork is a clone
//!
//! A snapshot copies every process with `Clone` (`clone_from` when it
//! refills one), so the engine's snapshot methods ask `P: Process +
//! Clone`. That is sound because no process holds shared mutable state:
//! a detector stacked under a consensus half does not share a variable
//! with it, but hands it every output it publishes (see
//! [`crate::stack::Stacked`]), and the consensus half keeps the reading
//! as a plain value. What a clone does share is immutable — `Arc`
//! payloads such as a `◇HP` bag or an oracle's precomputed tables — so
//! the copy and the original can never observe each other, and
//! snapshots stay cheap: only mutable state is copied.
//!
//! A fork is not a decode. The wire codec could copy the processes and
//! histories too, but it builds a fresh allocation for every `Arc` the
//! clone would share (each detector history entry, each `◇HP` bag) and
//! parses every varint, so an n = 8 stack copies 2–4× slower, and the
//! prefix-sharing sweep, which forks about once a run, ran ≈ 5 % slower
//! (CHANGES.md, "One way to copy a run: a fork is a decode", has the runs).
//!
//! # Allocation discipline
//!
//! Snapshots participate in the sweep arenas:
//! [`Engine::snapshot_into`](crate::engine::Engine::snapshot_into)
//! refills an existing [`EngineSnapshot`] through `clone_from`, reusing
//! its bucket ring, history rows and batch buffers, and
//! [`Engine::resume_in`](crate::engine::Engine::resume_in) rebuilds an
//! engine from a snapshot inside recycled
//! [`EngineArena`](crate::engine::EngineArena) allocations —
//! a branch-heavy sweep forks thousands of times through one warm set of
//! buffers instead of touching the global allocator per fork.

use homonym_core::properties::History;
use homonym_core::time::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

use homonym_obs::Recorder;

use crate::engine::Metrics;
use crate::process::Process;

/// Captured state of an event-driven [`Engine`](crate::engine::Engine);
/// see the module docs for the restore contract. Obtain one from
/// [`Engine::snapshot`](crate::engine::Engine::snapshot), refresh it with
/// [`Engine::snapshot_into`](crate::engine::Engine::snapshot_into), and
/// restore it with [`Engine::restore_from`](crate::engine::Engine::restore_from)
/// or [`Engine::resume_in`](crate::engine::Engine::resume_in).
pub struct EngineSnapshot<P: Process> {
    pub(crate) procs: Vec<crate::engine::ProcSlot<P>>,
    /// Which processes have *halted themselves* (as opposed to being
    /// crashed by the schedule): restore rebuilds the liveness-horizon
    /// table from the adopting engine's own failure schedule plus these
    /// flags.
    pub(crate) halted: Vec<bool>,
    pub(crate) queue: crate::queue::CalendarQueue<crate::engine::Event<P::Msg>>,
    pub(crate) seq: u64,
    pub(crate) now: Time,
    pub(crate) net_rng: StdRng,
    pub(crate) adv_rng: StdRng,
    /// The Byzantine stream and the one-deep replay cache round-trip
    /// with the snapshot, so a restored run's attack draws — and the
    /// stale payload an active replay clause substitutes — continue
    /// byte-identically.
    pub(crate) byz_rng: StdRng,
    pub(crate) byz_replay: Vec<Option<P::Msg>>,
    pub(crate) metrics: Metrics,
    pub(crate) histories: Vec<History<P::Output>>,
    pub(crate) decisions: Vec<Option<(Time, u64)>>,
    pub(crate) trace: Option<Recorder>,
    /// The observability recorder round-trips with the snapshot so a
    /// restored run's structured event log continues where it left off.
    pub(crate) recorder: Option<Recorder>,
    pub(crate) tick_batch: Vec<(u64, Option<crate::engine::Event<P::Msg>>)>,
    pub(crate) tick_pos: usize,
}

impl<P: Process> EngineSnapshot<P> {
    /// A snapshot of nothing, for
    /// [`Engine::snapshot_into`](crate::engine::Engine::snapshot_into) to
    /// fill.
    pub(crate) fn empty() -> Self {
        let rng = StdRng::seed_from_u64(0);
        EngineSnapshot {
            procs: Vec::new(),
            halted: Vec::new(),
            queue: crate::queue::CalendarQueue::new(),
            seq: 0,
            now: Time::ZERO,
            net_rng: rng.clone(),
            adv_rng: rng.clone(),
            byz_rng: rng,
            byz_replay: Vec::new(),
            metrics: Metrics::default(),
            histories: Vec::new(),
            decisions: Vec::new(),
            trace: None,
            recorder: None,
            tick_batch: Vec::new(),
            tick_pos: 0,
        }
    }

    /// The virtual time at which the snapshot was taken.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Callbacks dispatched up to the snapshot instant.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.metrics.events
    }

    /// Number of processes in the snapshotted system.
    #[must_use]
    pub fn n(&self) -> usize {
        self.procs.len()
    }
}
