//! Multi-seed sweep plumbing shared by the experiment harness and the
//! chaos falsification harness — **the single implementation module**;
//! `homonym_chaos::sweep` re-exports from here rather than growing a
//! drifting copy.
//!
//! Two executors live here:
//!
//! * the **flat** executors [`parallel_seed_sweep`] /
//!   [`parallel_seed_sweep_with`]: every run re-executes its full
//!   history from tick 0 (cost `O(scenarios × run length)`);
//! * the **prefix-sharing** executor ([`PrefixTree`] planning +
//!   [`PrefixSweeper`] execution): sweep families built from a common
//!   base — same seed and topology, faults injected at different times,
//!   GST placements, heal times — share long identical prefixes *by
//!   construction*, so the executor runs each shared prefix **once**,
//!   snapshots the engine at the branch point
//!   ([`Engine::snapshot`](crate::engine::Engine::snapshot)) and
//!   restores per child ([`Engine::resume_in`](crate::engine::Engine::resume_in)),
//!   turning sweep cost into `O(tree size)`.
//!
//! Sharing is **computed, never guessed**: [`config_divergence`] derives,
//! from two [`SimConfig`]s alone, the first tick at which their runs
//! could possibly differ (seeds and RNG salts, crash schedules, GST
//! placements, adversary clause windows — each contributes a sound
//! bound). Two runs of agreeing configurations are byte-identical up to
//! that tick, so restoring one's snapshot under the other's
//! configuration is exact, and the differential tests assert exactly
//! that: identical per-scenario verdicts, histories, decisions and event
//! counts between the forked and flat executors. The worst case —
//! no shared prefix (divergence 0) — degrades gracefully to the flat
//! executor's behaviour, one fresh run per item.

use std::ops::Range;

use homonym_core::failure::FailureSchedule;
use homonym_core::identity::Identity;
use homonym_core::time::Time;
use rayon::prelude::*;

use homonym_core::wire::{self, Persist, WireError};

use crate::adversary::{ByzClause, ByzantineScript, LinkClause, LinkEffect, LinkFaultScript};
use crate::engine::{Engine, EngineArena, SimConfig, StopReason};
use crate::network::NetworkModel;
use crate::process::Process;
use crate::snapshot::EngineSnapshot;
use crate::store::{SnapshotSpool, SpoolStats};

/// Runs `run(seed)` for seeds `0..seeds` across all cores, preserving
/// result order. Each run must be independent (the engines are: a run is
/// a pure function of its config and seed).
pub fn parallel_seed_sweep<R: Send>(seeds: usize, run: impl Fn(u64) -> R + Sync) -> Vec<R> {
    (0..seeds as u64).into_par_iter().map(run).collect()
}

/// Like [`parallel_seed_sweep`], but threads a per-worker **context**
/// through each worker's contiguous block of seeds: `init()` runs once
/// per worker thread, and `run(&mut ctx, seed)` reuses that context for
/// every seed the worker owns.
///
/// This is the sweep-arena hook: the context typically holds recycled
/// engine allocations ([`EngineArena`]) so a
/// thousand-seed sweep pays engine construction costs once per core
/// instead of once per seed. The context must not change run *results* —
/// a run stays a pure function of its config and seed (the arena-reuse
/// tests assert exactly that).
pub fn parallel_seed_sweep_with<C, R: Send>(
    seeds: usize,
    init: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, u64) -> R + Sync,
) -> Vec<R> {
    (0..seeds as u64).into_par_iter().map_init(init, run)
}

// ---------------------------------------------------------------------------
// Divergence-time planning
// ---------------------------------------------------------------------------

/// The first tick at which runs of `a` and `b` could differ — runs of
/// the two configurations are **byte-identical on every event strictly
/// before** the returned instant. [`Time::MAX`] means the
/// configurations can never diverge (they are behaviourally identical);
/// [`Time::ZERO`] means no prefix is shared.
///
/// The bound is sound, not tight: each ingredient contributes its
/// earliest possible observable difference —
///
/// * different seeds, topologies or event valves: zero;
/// * crash schedules: one tick before the earliest differing crash (the
///   dying sender's partial-broadcast mask draws interleave there);
/// * `HPS` networks differing in GST or `δ`: the earlier GST (pre-GST
///   routing is identical; treatment differs from the instant one side
///   considers itself stabilized);
/// * adversary scripts: the earliest activation among differing clauses,
///   refined to the earlier *deactivation* for clauses identical except
///   their window end; differing RNG salts forfeit sharing as soon as
///   either script contains a probabilistic clause (their draw streams
///   are decorrelated from the start).
#[must_use]
pub fn config_divergence(a: &SimConfig, b: &SimConfig) -> Time {
    // Exhaustive destructuring: a field added to `SimConfig` fails to
    // compile here until someone decides how it bounds divergence —
    // silently ignoring a new behavioural knob would make the planner
    // unsound, not just loose.
    let SimConfig {
        assign,
        sched,
        network,
        seed,
        partial_broadcast_on_crash,
        max_events,
        adversary,
        byzantine,
    } = a;
    if *assign != b.assign
        || *seed != b.seed
        || *partial_broadcast_on_crash != b.partial_broadcast_on_crash
        || *max_events != b.max_events
    {
        return Time::ZERO;
    }
    let d = network_divergence(network, &b.network);
    let d = d.min(sched_divergence(sched, &b.sched));
    let d = d.min(script_divergence(
        adversary.as_deref(),
        b.adversary.as_deref(),
    ));
    d.min(byz_script_divergence(
        byzantine.as_deref(),
        b.byzantine.as_deref(),
    ))
}

fn network_divergence(a: &NetworkModel, b: &NetworkModel) -> Time {
    if a == b {
        return Time::MAX;
    }
    match (a, b) {
        (
            NetworkModel::PartialSync {
                gst: ga,
                pre_gst: pa,
                ..
            },
            NetworkModel::PartialSync {
                gst: gb,
                pre_gst: pb,
                ..
            },
        ) if pa == pb => {
            // Identical pre-GST behaviour: every copy sent before the
            // earlier GST is routed identically (a `δ` difference only
            // shows post-GST, which the same bound covers).
            *ga.min(gb)
        }
        _ => Time::ZERO,
    }
}

fn sched_divergence(a: &FailureSchedule, b: &FailureSchedule) -> Time {
    let mut d = Time::MAX;
    for p in 0..a.n() {
        let (ca, cb) = (a.crash_time(p), b.crash_time(p));
        if ca == cb {
            continue;
        }
        let first = match (ca, cb) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) | (None, Some(x)) => x,
            (None, None) => unreachable!("covered by ca == cb"),
        };
        d = d.min(Time::from_ticks(first.ticks().saturating_sub(1)));
    }
    d
}

/// Earliest activation of any clause that draws from the adversary RNG.
fn first_draw(clauses: &[LinkClause]) -> Option<Time> {
    clauses
        .iter()
        .filter(|c| matches!(c.effect, LinkEffect::Lose(_)))
        .map(|c| c.from)
        .min()
}

fn clause_pair_divergence(x: &LinkClause, y: &LinkClause) -> Time {
    if x == y {
        return Time::MAX;
    }
    // Same window start, links and effect: only the deactivation instant
    // differs, so copies sent before the earlier end are treated
    // identically — the refinement that lets fault-duration families
    // share their pre-fault *and* in-fault prefix up to the first heal.
    if x.from == y.from && x.src == y.src && x.dst == y.dst && x.effect == y.effect {
        return x.until.min(y.until);
    }
    x.from.min(y.from)
}

fn script_divergence(a: Option<&LinkFaultScript>, b: Option<&LinkFaultScript>) -> Time {
    let ca = a.map_or(&[][..], LinkFaultScript::clauses);
    let cb = b.map_or(&[][..], LinkFaultScript::clauses);
    if ca.is_empty() && cb.is_empty() {
        return Time::MAX;
    }
    // Different salts decorrelate the adversary streams from their very
    // first draw; with any probabilistic clause in play nothing is
    // shareable.
    let (sa, sb) = (
        a.map_or(0, LinkFaultScript::salt),
        b.map_or(0, LinkFaultScript::salt),
    );
    if sa != sb && (first_draw(ca).is_some() || first_draw(cb).is_some()) {
        return Time::ZERO;
    }
    let mut d = Time::MAX;
    for i in 0..ca.len().max(cb.len()) {
        match (ca.get(i), cb.get(i)) {
            (Some(x), Some(y)) => d = d.min(clause_pair_divergence(x, y)),
            (Some(x), None) | (None, Some(x)) => d = d.min(x.from),
            (None, None) => unreachable!("loop bounded by max length"),
        }
    }
    d
}

fn byz_clause_pair_divergence(x: &ByzClause, y: &ByzClause) -> Time {
    if x == y {
        return Time::MAX;
    }
    // Same activation, senders and effect: only the deactivation instant
    // differs, so broadcasts before the earlier end are treated
    // identically — the refinement that lets attack-duration variants
    // share their whole pre-attack *and* in-attack prefix.
    if x.from == y.from && x.src == y.src && x.effect == y.effect {
        return x.until.min(y.until);
    }
    x.from.min(y.from)
}

/// The Byzantine counterpart of [`script_divergence`]. Replay caches
/// are recorded from tick 0 for replay-listed senders; recording is
/// unobservable until a replay clause activates, so two scripts that
/// **agree on which senders are replay-listed** share soundly up to
/// their earliest differing clause — but scripts whose replay-listed
/// sender sets differ fill the cache differently from the very first
/// broadcast, so one's snapshot carries cache state the other's flat
/// run would not have, and sharing is forfeited entirely.
fn byz_script_divergence(a: Option<&ByzantineScript>, b: Option<&ByzantineScript>) -> Time {
    let ca = a.map_or(&[][..], ByzantineScript::clauses);
    let cb = b.map_or(&[][..], ByzantineScript::clauses);
    if ca.is_empty() && cb.is_empty() {
        return Time::MAX;
    }
    // Different salts decorrelate the Byzantine streams from their very
    // first draw; with any entropy-drawing clause (equivocation or
    // corruption) in play, nothing is shareable.
    let (sa, sb) = (
        a.map_or(0, ByzantineScript::salt),
        b.map_or(0, ByzantineScript::salt),
    );
    if sa != sb
        && (a.is_some_and(ByzantineScript::draws_entropy)
            || b.is_some_and(ByzantineScript::draws_entropy))
    {
        return Time::ZERO;
    }
    // Differing replay-listed sender sets: cache contents diverge from
    // tick 0 (see above).
    if a.map_or(Vec::new(), ByzantineScript::replay_source_mask)
        != b.map_or(Vec::new(), ByzantineScript::replay_source_mask)
    {
        return Time::ZERO;
    }
    let mut d = Time::MAX;
    for i in 0..ca.len().max(cb.len()) {
        match (ca.get(i), cb.get(i)) {
            (Some(x), Some(y)) => d = d.min(byz_clause_pair_divergence(x, y)),
            (Some(x), None) | (None, Some(x)) => d = d.min(x.from),
            (None, None) => unreachable!("loop bounded by max length"),
        }
    }
    d
}

// ---------------------------------------------------------------------------
// The prefix-sharing executor
// ---------------------------------------------------------------------------

/// How far one sweep item's run goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunGoal {
    /// Run to the deadline (detector-style observation windows).
    Until(Time),
    /// Run until every correct process decided, at most to the deadline
    /// (consensus-style runs).
    UntilAllCorrectDecided(Time),
}

impl RunGoal {
    /// The goal's deadline.
    #[must_use]
    pub fn deadline(self) -> Time {
        match self {
            RunGoal::Until(t) | RunGoal::UntilAllCorrectDecided(t) => t,
        }
    }

    /// Drives `engine` toward this goal, but no further than `cap` (the
    /// branch-point deadline of a shared prefix; [`Time::MAX`] for the
    /// whole run).
    pub fn run<P: Process>(self, engine: &mut Engine<P>, cap: Time) -> StopReason {
        match self {
            RunGoal::Until(t) => engine.run_until(t.min(cap)),
            RunGoal::UntilAllCorrectDecided(t) => engine.run_until_all_correct_decided(t.min(cap)),
        }
    }
}

/// One unit of a prefix-sharing sweep: the fully installed configuration
/// plus how far to run it and an arbitrary caller payload (the scenario,
/// its clean instant, report coordinates, …).
#[derive(Debug, Clone)]
pub struct PrefixItem<C> {
    /// The installed run configuration.
    pub config: SimConfig,
    /// How far this item's run goes.
    pub goal: RunGoal,
    /// Caller payload, untouched by the executor.
    pub tag: C,
}

/// The first tick at which runs of two sweep items could differ — the
/// [`config_divergence`] of their configurations, tightened by the run
/// goals: items with different goal kinds share nothing, and
/// decided-gated items share nothing unless their correct sets agree
/// (the stop condition reads the correct set from tick 0, so a fresh run
/// of one could stop where the other keeps going).
#[must_use]
pub fn item_divergence<C>(a: &PrefixItem<C>, b: &PrefixItem<C>) -> Time {
    match (a.goal, b.goal) {
        (RunGoal::Until(_), RunGoal::Until(_)) => {}
        (RunGoal::UntilAllCorrectDecided(_), RunGoal::UntilAllCorrectDecided(_)) => {
            let (sa, sb) = (&a.config.sched, &b.config.sched);
            if (0..sa.n()).any(|p| sa.is_correct(p) != sb.is_correct(p)) {
                return Time::ZERO;
            }
        }
        _ => return Time::ZERO,
    }
    config_divergence(&a.config, &b.config)
}

/// Execution counters of a prefix-sharing sweep, for reporting
/// tree-vs-flat cost (see `examples/scenario_atlas.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Items executed (leaves of the tree — equals the flat run count).
    pub runs: u64,
    /// Items that started from a restored snapshot instead of tick 0.
    pub forked: u64,
    /// Snapshots taken at branch points.
    pub snapshots: u64,
    /// Ticks of shared prefix **not** re-executed, summed over all
    /// forked items — the flat executor would have replayed these.
    pub shared_ticks: u64,
}

/// A branch-point snapshot on the sweeper's DFS stack.
struct StackSnap<P: Process + Clone> {
    /// Items diverging at or after this tick may restore from here.
    covers_to: u64,
    /// The tick the snapshotted run actually reached — the run's clock
    /// when it stopped at the branch cap, its own deadline, its goal
    /// condition or quiescence, whichever came first. Children with an
    /// earlier deadline must not restore from it, and restoring saves
    /// exactly this many ticks of re-execution.
    processed_to: u64,
    store: SnapStore<P>,
}

/// Where a branch-point snapshot currently lives.
// The size gap between variants is the point: `Disk` exists precisely
// because `Ram` is big. Boxing `Ram` would add a heap hop to the common
// (spilling-disabled) path to shrink an enum that lives in one `Vec`.
#[allow(clippy::large_enum_variant)]
enum SnapStore<P: Process + Clone> {
    /// Resident in RAM. `bytes` is the snapshot's encoded size — the
    /// budget accounting unit — when spilling is enabled, zero
    /// otherwise (never measured, never spilled).
    Ram { snap: EngineSnapshot<P>, bytes: u64 },
    /// Spilled to the spool; reloaded (and verified) on first use.
    Disk(crate::store::SpillHandle),
}

/// The monomorphized snapshot codec captured when spilling is enabled.
///
/// `PrefixSweeper` itself never requires `EngineSnapshot<P>: Persist` —
/// the bound exists only on [`PrefixSweeper::enable_spill`], which
/// captures these two instantiated fn pointers. Stacks without a wire
/// codec keep using the sweeper exactly as before, all in RAM.
struct SpillCodec<P: Process + Clone> {
    enc: fn(&EngineSnapshot<P>) -> Vec<u8>,
    dec: fn(&[u8]) -> Result<EngineSnapshot<P>, WireError>,
}

/// Spill state: the codec, the disk spool and the RAM-residency account.
struct Spill<P: Process + Clone> {
    codec: SpillCodec<P>,
    spool: SnapshotSpool,
    /// Encoded bytes of all RAM-resident stack snapshots.
    ram_bytes: u64,
}

/// The worker-local prefix-sharing executor: a DFS over a family's
/// implicit prefix tree, carrying a stack of branch-point snapshots and
/// one recycled [`EngineArena`]. Feed it families through
/// [`PrefixSweeper::run_family`]; for whole-batch planning plus
/// parallelism over independent families use [`PrefixTree`].
///
/// Snapshots and engines circulate through the sweeper's pools:
/// snapshots are refilled in place
/// ([`Engine::snapshot_into`](crate::engine::Engine::snapshot_into)) and
/// every engine is rebuilt inside the recycled arena, so steady-state
/// forking performs no queue/history (re)allocation.
pub struct PrefixSweeper<P: Process + Clone> {
    arena: EngineArena<P>,
    stack: Vec<StackSnap<P>>,
    spare: Vec<EngineSnapshot<P>>,
    /// Disk spill of cold branch points, when enabled.
    spill: Option<Spill<P>>,
    /// Counters accumulated across every family this sweeper ran.
    pub stats: ForkStats,
}

impl<P: Process + Clone> PrefixSweeper<P> {
    /// A sweeper with cold pools.
    #[must_use]
    pub fn new() -> Self {
        PrefixSweeper {
            arena: EngineArena::new(),
            stack: Vec::new(),
            spare: Vec::new(),
            spill: None,
            stats: ForkStats::default(),
        }
    }

    /// Enables the disk spill: branch-point snapshots beyond the
    /// spool's RAM budget move to disk, coldest (shallowest) first, and
    /// are reloaded — checksum-verified — when the DFS returns to them.
    /// A spilled snapshot that fails verification is *dropped*, not
    /// fatal: the walk falls back to the nearest shallower resident
    /// prefix (or a fresh run) and re-executes the difference.
    ///
    /// Only stacks with a wire codec can spill, hence the bound; the
    /// sweeper without this call never touches disk.
    pub fn enable_spill(&mut self, spool: SnapshotSpool)
    where
        EngineSnapshot<P>: Persist,
    {
        fn enc<P: Process + Clone>(snap: &EngineSnapshot<P>) -> Vec<u8>
        where
            EngineSnapshot<P>: Persist,
        {
            wire::to_bytes(snap)
        }
        fn dec<P: Process + Clone>(bytes: &[u8]) -> Result<EngineSnapshot<P>, WireError>
        where
            EngineSnapshot<P>: Persist,
        {
            wire::from_bytes(bytes)
        }
        self.spill = Some(Spill {
            codec: SpillCodec {
                enc: enc::<P>,
                dec: dec::<P>,
            },
            spool,
            ram_bytes: 0,
        });
    }

    /// Spill activity so far, when spilling is enabled.
    #[must_use]
    pub fn spool_stats(&self) -> Option<SpoolStats> {
        self.spill.as_ref().map(|s| s.spool.stats)
    }

    /// Recycles a popped branch point: RAM snapshots return to the
    /// spare pool, spilled ones are deleted unread.
    fn recycle(&mut self, s: StackSnap<P>) {
        match s.store {
            SnapStore::Ram { snap, bytes } => {
                if let Some(spill) = &mut self.spill {
                    spill.ram_bytes -= bytes;
                }
                self.spare.push(snap);
            }
            SnapStore::Disk(handle) => {
                let spill = self.spill.as_mut().expect("disk entries imply spill");
                spill.spool.discard(&handle);
            }
        }
    }

    /// Ensures the top branch point (the resume seed of the next item)
    /// is RAM-resident. A spilled top that fails verification on
    /// reload is dropped and the next shallower entry tried — the
    /// graceful-degradation half of the corruption contract: the walk
    /// re-executes from the nearest good prefix instead of aborting.
    fn materialize_top(&mut self) {
        loop {
            match self.stack.last() {
                None
                | Some(StackSnap {
                    store: SnapStore::Ram { .. },
                    ..
                }) => return,
                Some(StackSnap {
                    store: SnapStore::Disk(_),
                    ..
                }) => {
                    let StackSnap {
                        covers_to,
                        processed_to,
                        store,
                    } = self.stack.pop().expect("guarded");
                    let SnapStore::Disk(handle) = store else {
                        unreachable!("matched above");
                    };
                    let spill = self.spill.as_mut().expect("disk entries imply spill");
                    let decoded = spill.spool.take(&handle).and_then(|bytes| {
                        let out = (spill.codec.dec)(&bytes).ok();
                        if out.is_none() {
                            // Verified container, undecodable payload:
                            // count it with the checksum failures.
                            spill.spool.stats.corrupt += 1;
                        }
                        out
                    });
                    if let Some(snap) = decoded {
                        spill.ram_bytes += handle.bytes();
                        self.stack.push(StackSnap {
                            covers_to,
                            processed_to,
                            store: SnapStore::Ram {
                                snap,
                                bytes: handle.bytes(),
                            },
                        });
                        return;
                    }
                    // Corrupt: fall through to the next shallower entry.
                }
            }
        }
    }

    /// Spills coldest-first until RAM-resident snapshots fit the
    /// budget again. The top entry always stays resident — it seeds
    /// the very next item.
    fn enforce_budget(&mut self) {
        let Some(spill) = &mut self.spill else { return };
        let budget = spill.spool.budget_bytes();
        let mut i = 0;
        while spill.ram_bytes > budget && i + 1 < self.stack.len() {
            if let SnapStore::Ram { snap, bytes } = &self.stack[i].store {
                let encoded = (spill.codec.enc)(snap);
                match spill.spool.put(&encoded) {
                    Ok(handle) => {
                        spill.ram_bytes -= *bytes;
                        self.stack[i].store = SnapStore::Disk(handle);
                    }
                    // A failed spill write (disk full, permissions) is
                    // not worth killing the sweep over: the snapshot
                    // just stays resident, over budget.
                    Err(_) => break,
                }
            }
            i += 1;
        }
    }

    /// Executes one family of items in order, sharing prefixes between
    /// consecutive items per [`item_divergence`], and returns each
    /// item's extracted result in input order.
    ///
    /// `factory(item, p, id)` builds process `p` for a fresh run of
    /// `items[item]`; within a family it must construct identical
    /// processes for items that share a prefix (guaranteed when the
    /// construction depends only on prefix-invariant inputs — proposals,
    /// topology — which is what makes a family a family). `extract` is
    /// called once per item on its finished engine.
    ///
    /// Sharing structure: consecutive divergences induce a tree (item
    /// `i+1` may reuse any snapshot taken at or before its divergence
    /// from item `i`, because agreement-up-to-`t` composes through the
    /// chain), and the sweeper walks that tree depth-first — exactly one
    /// engine live at a time, snapshots only on the current root-to-leaf
    /// path. Order families so that similar items are adjacent; a
    /// divergence of zero simply falls back to a fresh flat run.
    pub fn run_family<C, R>(
        &mut self,
        items: &[PrefixItem<C>],
        factory: impl Fn(usize, usize, Identity) -> P,
        mut extract: impl FnMut(&mut Engine<P>, usize) -> R,
    ) -> Vec<R> {
        // Branch points never carry over between families.
        while let Some(s) = self.stack.pop() {
            self.recycle(s);
        }
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                let d = item_divergence(&items[i - 1], item).ticks();
                while self.stack.last().is_some_and(|s| s.covers_to > d) {
                    let s = self.stack.pop().expect("guarded");
                    self.recycle(s);
                }
            }
            // A snapshot that ran past this item's own deadline cannot
            // seed it (the fresh run would have stopped earlier).
            let deadline = item.goal.deadline().ticks();
            while self.stack.last().is_some_and(|s| s.processed_to > deadline) {
                let s = self.stack.pop().expect("guarded");
                self.recycle(s);
            }
            // Reload the resume seed if it was spilled (dropping it if
            // its file went bad — the next shallower entry covers).
            self.materialize_top();
            let mut engine = match self.stack.last() {
                Some(top) => {
                    let SnapStore::Ram { snap, .. } = &top.store else {
                        unreachable!("materialize_top leaves a RAM top");
                    };
                    self.stats.forked += 1;
                    self.stats.shared_ticks += top.processed_to;
                    Engine::resume_in(item.config.clone(), snap, std::mem::take(&mut self.arena))
                }
                None => Engine::new_in(
                    item.config.clone(),
                    |p, id| factory(i, p, id),
                    std::mem::take(&mut self.arena),
                ),
            };
            // Snapshot at the next item's branch point, if it lies
            // deeper than everything already on the stack.
            if let Some(next) = items.get(i + 1) {
                let d = item_divergence(item, next).ticks();
                let covered = self.stack.last().map_or(0, |s| s.covers_to);
                if d > covered {
                    let cap = d.saturating_sub(1).min(deadline);
                    item.goal.run(&mut engine, Time::from_ticks(cap));
                    let snap = match self.spare.pop() {
                        Some(mut s) => {
                            engine.snapshot_into(&mut s);
                            s
                        }
                        None => engine.snapshot(),
                    };
                    self.stats.snapshots += 1;
                    // Under a spill budget the snapshot's encoded size
                    // is the accounting unit; without one it is never
                    // measured (bytes = 0 spills nothing).
                    let bytes = match &self.spill {
                        Some(spill) => (spill.codec.enc)(&snap).len() as u64,
                        None => 0,
                    };
                    if let Some(spill) = &mut self.spill {
                        spill.ram_bytes += bytes;
                    }
                    self.stack.push(StackSnap {
                        covers_to: d,
                        // The clock the run actually reached, not the
                        // cap: a decided-gated prefix can stop well
                        // before it, and both the deadline pop-guard
                        // and the shared-ticks accounting must see the
                        // real stopping point.
                        processed_to: engine.now().ticks().min(cap),
                        store: SnapStore::Ram { snap, bytes },
                    });
                    self.enforce_budget();
                }
            }
            item.goal.run(&mut engine, Time::MAX);
            self.stats.runs += 1;
            out.push(extract(&mut engine, i));
            self.arena = engine.into_arena();
        }
        out
    }
}

impl<P: Process + Clone> Default for PrefixSweeper<P> {
    fn default() -> Self {
        PrefixSweeper::new()
    }
}

/// A planned prefix-sharing sweep over a batch of items: divergence
/// times are computed up front, the batch is split into independent
/// subtrees (at zero-divergence boundaries), and execution fans the
/// subtrees out across cores — each on a worker-local [`PrefixSweeper`]
/// with its own [`EngineArena`], the same per-worker discipline as
/// [`parallel_seed_sweep_with`].
pub struct PrefixTree<C> {
    items: Vec<PrefixItem<C>>,
    /// `div[i]` = divergence tick between items `i − 1` and `i`
    /// (`div[0] = 0`).
    div: Vec<u64>,
}

impl<C: Sync> PrefixTree<C> {
    /// Plans a batch: computes every consecutive divergence. Items are
    /// executed in the given order — keep families contiguous (the
    /// generators emit them that way).
    #[must_use]
    pub fn plan(items: Vec<PrefixItem<C>>) -> Self {
        let div = std::iter::once(0)
            .chain(
                items
                    .windows(2)
                    .map(|w| item_divergence(&w[0], &w[1]).ticks()),
            )
            .collect();
        PrefixTree { items, div }
    }

    /// The planned items, in execution order.
    #[must_use]
    pub fn items(&self) -> &[PrefixItem<C>] {
        &self.items
    }

    /// Number of planned items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consecutive divergence ticks (`[0]` is always zero).
    #[must_use]
    pub fn divergences(&self) -> &[u64] {
        &self.div
    }

    /// The planner's sharing estimate: ticks of shared prefix across
    /// consecutive items (capped at each item's deadline). Zero means
    /// the tree degenerates to the flat executor.
    #[must_use]
    pub fn planned_shared_ticks(&self) -> u64 {
        self.items
            .iter()
            .zip(&self.div)
            .map(|(item, &d)| d.saturating_sub(1).min(item.goal.deadline().ticks()))
            .sum()
    }

    /// The independent subtrees: maximal runs of consecutive items with
    /// nonzero divergence between neighbours.
    #[must_use]
    pub fn groups(&self) -> Vec<Range<usize>> {
        let mut groups = Vec::new();
        let mut start = 0;
        for i in 1..self.items.len() {
            if self.div[i] == 0 {
                groups.push(start..i);
                start = i;
            }
        }
        if start < self.items.len() {
            groups.push(start..self.items.len());
        }
        groups
    }

    /// Executes the plan: independent subtrees in parallel, each DFS'd
    /// on a worker-local [`PrefixSweeper`]. Results come back in item
    /// order, alongside the accumulated [`ForkStats`].
    pub fn execute<P, R>(
        &self,
        factory: impl Fn(&PrefixItem<C>, usize, Identity) -> P + Sync,
        extract: impl Fn(&mut Engine<P>, &PrefixItem<C>) -> R + Sync,
    ) -> (Vec<R>, ForkStats)
    where
        P: Process + Clone,
        R: Send,
    {
        let groups = self.groups();
        let per_group: Vec<(Vec<R>, ForkStats)> = groups.into_par_iter().map_init(
            PrefixSweeper::new,
            |sweeper: &mut PrefixSweeper<P>, range: Range<usize>| {
                let slice = &self.items[range.clone()];
                let before = sweeper.stats;
                let results = sweeper.run_family(
                    slice,
                    |i, p, id| factory(&slice[i], p, id),
                    |engine, i| extract(engine, &slice[i]),
                );
                let after = sweeper.stats;
                let delta = ForkStats {
                    runs: after.runs - before.runs,
                    forked: after.forked - before.forked,
                    snapshots: after.snapshots - before.snapshots,
                    shared_ticks: after.shared_ticks - before.shared_ticks,
                };
                (results, delta)
            },
        );
        let mut out = Vec::with_capacity(self.items.len());
        let mut stats = ForkStats::default();
        for (results, delta) in per_group {
            out.extend(results);
            stats.runs += delta.runs;
            stats.forked += delta.forked;
            stats.snapshots += delta.snapshots;
            stats.shared_ticks += delta.shared_ticks;
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ProcSet;
    use crate::network::PreGstBehavior;
    use homonym_core::identity::IdentityAssignment;
    use homonym_core::time::Span;

    #[test]
    fn preserves_seed_order() {
        let out = parallel_seed_sweep(100, |seed| seed * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn with_context_preserves_seed_order_and_reuses_contexts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let contexts = AtomicUsize::new(0);
        let out = parallel_seed_sweep_with(
            200,
            || {
                contexts.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, seed| {
                // A context that leaks state across seeds would corrupt
                // the result; a correct run clears it first (the arena
                // discipline).
                scratch.clear();
                scratch.extend(0..=seed % 7);
                scratch.iter().sum::<u64>() + seed * 10
            },
        );
        assert_eq!(out.len(), 200);
        for (i, v) in out.iter().enumerate() {
            let seed = i as u64;
            assert_eq!(*v, (0..=seed % 7).sum::<u64>() + seed * 10);
        }
        // One context per worker, not per seed.
        assert!(contexts.load(Ordering::Relaxed) <= rayon::current_num_threads());
    }

    fn base_config(seed: u64) -> SimConfig {
        SimConfig::new(
            IdentityAssignment::round_robin(4, 2),
            FailureSchedule::none(4),
            NetworkModel::PartialSync {
                gst: Time::from_ticks(100),
                delta: Span::from_ticks(3),
                pre_gst: PreGstBehavior::DelayOnly {
                    max_delay: Span::from_ticks(10),
                },
            },
        )
        .with_seed(seed)
    }

    fn defer_clause(from: u64, until: u64) -> LinkClause {
        LinkClause {
            from: Time::from_ticks(from),
            until: Time::from_ticks(until),
            src: ProcSet::from_indices(4, [0, 1]),
            dst: ProcSet::from_indices(4, [2, 3]),
            effect: LinkEffect::DeferUntil(Time::from_ticks(until)),
        }
    }

    #[test]
    fn identical_configs_never_diverge() {
        assert_eq!(
            config_divergence(&base_config(3), &base_config(3)),
            Time::MAX
        );
    }

    #[test]
    fn seed_difference_forfeits_sharing() {
        assert_eq!(
            config_divergence(&base_config(3), &base_config(4)),
            Time::ZERO
        );
    }

    #[test]
    fn gst_difference_diverges_at_the_earlier_gst() {
        let a = base_config(1);
        let mut b = base_config(1);
        b.network = NetworkModel::PartialSync {
            gst: Time::from_ticks(60),
            delta: Span::from_ticks(3),
            pre_gst: PreGstBehavior::DelayOnly {
                max_delay: Span::from_ticks(10),
            },
        };
        assert_eq!(config_divergence(&a, &b), Time::from_ticks(60));
    }

    #[test]
    fn crash_difference_diverges_one_tick_before_the_earlier_crash() {
        let a = base_config(1);
        let mut b = base_config(1);
        b.sched = FailureSchedule::none(4).with_crash(2, Time::from_ticks(40));
        assert_eq!(config_divergence(&a, &b), Time::from_ticks(39));
    }

    #[test]
    fn heal_variants_diverge_at_the_earlier_heal_for_drop_clauses() {
        // Identical clause except the window end: shared until the
        // earlier deactivation.
        let mut x = defer_clause(20, 50);
        let mut y = defer_clause(20, 70);
        x.effect = LinkEffect::Drop;
        y.effect = LinkEffect::Drop;
        assert_eq!(clause_pair_divergence(&x, &y), Time::from_ticks(50));
        // DeferUntil embeds the heal instant in the effect, so the
        // queued copies differ from the activation onward.
        assert_eq!(
            clause_pair_divergence(&defer_clause(20, 50), &defer_clause(20, 70)),
            Time::from_ticks(20)
        );
    }

    #[test]
    fn salted_probabilistic_scripts_do_not_share() {
        let mk = |salt: u64| {
            LinkFaultScript::new(salt).with_clause(LinkClause {
                from: Time::from_ticks(30),
                until: Time::from_ticks(60),
                src: ProcSet::all(4),
                dst: ProcSet::all(4),
                effect: LinkEffect::Lose(10),
            })
        };
        assert_eq!(script_divergence(Some(&mk(1)), Some(&mk(2))), Time::ZERO);
        assert_eq!(script_divergence(Some(&mk(1)), Some(&mk(1))), Time::MAX);
    }

    #[test]
    fn differing_replay_sources_forfeit_sharing() {
        use crate::adversary::{ByzClause, ByzEffect, ByzantineScript};
        let replay = |src: usize, from: u64| {
            ByzantineScript::new(0).with_clause(ByzClause {
                from: Time::from_ticks(from),
                until: Time::MAX,
                src: ProcSet::from_indices(4, [src]),
                effect: ByzEffect::Replay {
                    victims: ProcSet::all(4),
                },
            })
        };
        // Same replay-listed sender, later window: shared to the earlier
        // activation (the engines' caches agree up to there).
        assert_eq!(
            byz_script_divergence(Some(&replay(1, 30)), Some(&replay(1, 50))),
            Time::from_ticks(30)
        );
        // Different replay-listed senders: the caches diverge from the
        // first broadcast — no sharing, regardless of window placement.
        assert_eq!(
            byz_script_divergence(Some(&replay(1, 30)), Some(&replay(2, 30))),
            Time::ZERO
        );
        // A replay script against no script at all: same forfeit.
        assert_eq!(
            byz_script_divergence(Some(&replay(1, 30)), None),
            Time::ZERO
        );
        // Non-replay scripts keep the clause-window refinement.
        let equiv = |from: u64, until: u64| {
            ByzantineScript::new(0).with_clause(ByzClause {
                from: Time::from_ticks(from),
                until: Time::from_ticks(until),
                src: ProcSet::from_indices(4, [1]),
                effect: ByzEffect::Equivocate {
                    victims: ProcSet::all(4),
                },
            })
        };
        assert_eq!(
            byz_script_divergence(Some(&equiv(20, 50)), Some(&equiv(20, 70))),
            Time::from_ticks(50)
        );
    }

    #[test]
    fn groups_split_at_zero_divergence() {
        let item = |seed: u64| PrefixItem {
            config: base_config(seed),
            goal: RunGoal::Until(Time::from_ticks(500)),
            tag: (),
        };
        // Two families: seeds {1, 1} then {2, 2}.
        let tree = PrefixTree::plan(vec![item(1), item(1), item(2), item(2)]);
        assert_eq!(tree.groups(), vec![0..2, 2..4]);
        assert_eq!(tree.divergences()[2], 0);
    }

    /// Persistable chatter for the spill tests: broadcasts a counter on
    /// a repeating timer and publishes the running sum it hears, so
    /// engine state keeps evolving for the whole run window.
    #[derive(Debug, Clone, Copy)]
    struct Pulse {
        me: u64,
        heard: u64,
    }

    impl crate::process::Process for Pulse {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut crate::process::ActionSink<'_, u64, u64>) {
            ctx.broadcast(self.me);
            ctx.set_timer(
                homonym_core::time::Span::from_ticks(7),
                crate::process::TimerTag(0),
            );
        }
        fn on_message(&mut self, m: u64, ctx: &mut crate::process::ActionSink<'_, u64, u64>) {
            self.heard = self.heard.wrapping_add(m);
            ctx.publish(self.heard);
        }
        fn on_timer(
            &mut self,
            _t: crate::process::TimerTag,
            ctx: &mut crate::process::ActionSink<'_, u64, u64>,
        ) {
            ctx.broadcast(self.heard | 1);
            ctx.set_timer(
                homonym_core::time::Span::from_ticks(7),
                crate::process::TimerTag(0),
            );
        }
    }

    homonym_core::persist_fields!(Pulse { me, heard });

    /// A sweep item diverging from its siblings at `crash_at - 1`.
    fn pulse_item(crash_at: u64) -> PrefixItem<()> {
        let mut config = base_config(1);
        config.sched = FailureSchedule::none(4).with_crash(3, Time::from_ticks(crash_at));
        PrefixItem {
            config,
            goal: RunGoal::Until(Time::from_ticks(200)),
            tag: (),
        }
    }

    /// Crash times chosen so the DFS stacks three branch points (39, 79,
    /// 119), then pops back to the shallowest — under a zero budget that
    /// spills two snapshots and reloads one from disk.
    fn pulse_family() -> Vec<PrefixItem<()>> {
        vec![
            pulse_item(40),
            pulse_item(80),
            pulse_item(120),
            pulse_item(160),
            pulse_item(41),
        ]
    }

    fn pulse_factory(_item: usize, p: usize, _id: Identity) -> Pulse {
        Pulse {
            me: p as u64 + 1,
            heard: 0,
        }
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hsnp-sweep-{}-{}", tag, std::process::id()))
    }

    #[test]
    fn spilled_sweep_matches_resident_sweep() {
        let extract = |e: &mut Engine<Pulse>, _i: usize| {
            (e.now(), e.metrics().clone(), e.histories().to_vec())
        };
        let items = pulse_family();

        let mut plain = PrefixSweeper::new();
        let baseline = plain.run_family(&items, pulse_factory, extract);
        assert!(plain.stats.forked >= 2, "family must share prefixes");

        let dir = unique_dir("spill-eq");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spilling = PrefixSweeper::new();
        spilling.enable_spill(SnapshotSpool::new(&dir, 0).expect("spool dir"));
        let spilled = spilling.run_family(&items, pulse_factory, extract);

        assert_eq!(spilled, baseline, "spilling must be invisible to results");
        assert_eq!(spilling.stats, plain.stats, "…and to the fork accounting");
        let stats = spilling.spool_stats().expect("spill enabled");
        assert!(stats.spilled >= 2, "zero budget must spill: {stats:?}");
        assert!(stats.reloaded >= 1, "the pop-back must reload: {stats:?}");
        assert_eq!(stats.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting a spilled snapshot on disk must not abort the walk:
    /// `materialize_top` drops the bad entry (counting it) and falls
    /// back to the next shallower resident prefix.
    #[test]
    fn corrupt_spilled_snapshot_falls_back_to_shallower_prefix() {
        let dir = unique_dir("spill-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sweeper: PrefixSweeper<Pulse> = PrefixSweeper::new();
        sweeper.enable_spill(SnapshotSpool::new(&dir, 0).expect("spool dir"));

        let mut engine = Engine::new_in(
            pulse_item(40).config,
            |p, id| pulse_factory(0, p, id),
            EngineArena::new(),
        );
        engine.run_until(Time::from_ticks(10));
        let shallow = engine.snapshot();
        engine.run_until(Time::from_ticks(50));
        let deep = engine.snapshot();

        sweeper.stack.push(StackSnap {
            covers_to: 11,
            processed_to: 10,
            store: SnapStore::Ram {
                snap: shallow,
                bytes: 0,
            },
        });
        let spill = sweeper.spill.as_mut().expect("enabled");
        let handle = spill
            .spool
            .put(&(spill.codec.enc)(&deep))
            .expect("spill write");
        // Flip one payload byte of the single spool file on disk.
        let file = std::fs::read_dir(&dir)
            .expect("spool dir")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|x| x == "ck"))
            .expect("a spilled file");
        let mut bytes = std::fs::read(&file).expect("read spill");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&file, &bytes).expect("corrupt spill");
        sweeper.stack.push(StackSnap {
            covers_to: 51,
            processed_to: 50,
            store: SnapStore::Disk(handle),
        });

        sweeper.materialize_top();
        assert_eq!(sweeper.stack.len(), 1, "corrupt entry must be dropped");
        assert!(
            matches!(
                sweeper.stack.last(),
                Some(StackSnap {
                    store: SnapStore::Ram { .. },
                    ..
                })
            ),
            "the shallower RAM prefix takes over"
        );
        let stats = sweeper.spool_stats().expect("enabled");
        assert_eq!(stats.corrupt, 1);

        // With nothing shallower left, the fallback is a fresh run: an
        // all-corrupt stack drains to empty instead of panicking.
        let spill = sweeper.spill.as_mut().expect("enabled");
        let handle = spill
            .spool
            .put(&[0xAB; 64]) // valid container, undecodable payload
            .expect("spill write");
        sweeper.stack.clear();
        sweeper.stack.push(StackSnap {
            covers_to: 99,
            processed_to: 98,
            store: SnapStore::Disk(handle),
        });
        sweeper.materialize_top();
        assert!(sweeper.stack.is_empty(), "no prefix left means fresh run");
        let stats = sweeper.spool_stats().expect("enabled");
        assert_eq!(stats.corrupt, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
