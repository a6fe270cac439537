//! Multi-seed sweep plumbing shared by the experiment harness and the
//! chaos falsification harness — **the single implementation module**;
//! `homonym_chaos::sweep` re-exports from here rather than growing a
//! drifting copy.
//!
//! One executor shares prefixes, and one flat reference checks it:
//!
//! * the **flat** executors [`parallel_seed_sweep`] /
//!   [`parallel_seed_sweep_with`] fan independent runs out across cores;
//!   every run re-executes its full history from tick 0 (cost
//!   `O(scenarios × run length)`). They are the reference the
//!   prefix-sharing executor is checked against, and they also fan out
//!   its families: one worker-local [`PrefixSweeper`] per core.
//! * the **prefix-sharing** executor [`PrefixSweeper::run_family`] runs
//!   one family of items built from a common base — same seed and
//!   topology, faults injected at different times, GST placements, heal
//!   times — whose runs share long identical prefixes *by construction*.
//!   It runs each shared prefix **once**, snapshots the engine at the
//!   branch point ([`Engine::snapshot`](crate::engine::Engine::snapshot))
//!   and restores per child
//!   ([`Engine::resume_in`](crate::engine::Engine::resume_in)). The walk
//!   is depth-first, so a worker holds only the snapshots of one
//!   root-to-leaf path: at most `items − 1`, all in RAM.
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

use homonym_core::identity::Identity;
use homonym_core::time::Time;
use rayon::prelude::*;

use crate::adversary::{ByzClause, FaultScript, LinkClause};
use crate::engine::{Engine, EngineArena, SimConfig, StopReason};
use crate::network::NetworkModel;
use crate::process::Process;
use crate::snapshot::EngineSnapshot;

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
/// the two configurations are **byte-identical, in every event and in
/// the engine's whole state, strictly before** the returned instant, so
/// a snapshot taken there can seed either. [`Time::MAX`] means the
/// configurations can never diverge (they are behaviourally identical);
/// [`Time::ZERO`] means no prefix is shared.
///
/// The bound is sound, not tight: each ingredient contributes the
/// earliest instant it could make the two engines' *states* differ —
/// their queues, streams or processes, not just what they output —
///
/// * different seeds, topologies, event valves or crash schedules: zero.
///   A crash schedule shapes the engine's state long before the crash
///   shows: a copy that would land at or after its destination's crash
///   is never queued, and a copy can be in flight for as long as a
///   deferring link clause holds it;
/// * `HPS` networks differing in GST or `δ`: the earlier GST (pre-GST
///   routing is identical; treatment differs from the instant one side
///   considers itself stabilized);
/// * fault scripts: the earliest activation among differing clauses,
///   refined to the earlier *deactivation* for clauses identical except
///   their window end; differing RNG salts forfeit sharing as soon as
///   either script contains a lossy link clause or an entropy-drawing
///   attack (their draw streams are decorrelated from the start), and
///   differing replay-listed senders forfeit it too.
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
    } = a;
    if *assign != b.assign
        || *sched != b.sched
        || *seed != b.seed
        || *partial_broadcast_on_crash != b.partial_broadcast_on_crash
        || *max_events != b.max_events
    {
        return Time::ZERO;
    }
    network_divergence(network, &b.network).min(script_divergence(
        adversary.as_deref(),
        b.adversary.as_deref(),
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

/// A clause active over a window of send times, as the planner compares
/// two scripts' clauses.
trait Windowed: PartialEq {
    fn window(&self) -> (Time, Time);
    /// Whether `self` and `other` differ at most in their window's end.
    fn same_but_until(&self, other: &Self) -> bool;
}

impl Windowed for LinkClause {
    fn window(&self) -> (Time, Time) {
        (self.from, self.until)
    }
    fn same_but_until(&self, y: &Self) -> bool {
        self.from == y.from && self.src == y.src && self.dst == y.dst && self.effect == y.effect
    }
}

impl Windowed for ByzClause {
    fn window(&self) -> (Time, Time) {
        (self.from, self.until)
    }
    fn same_but_until(&self, y: &Self) -> bool {
        self.from == y.from
            && self.src == y.src
            && self.victims == y.victims
            && self.attack == y.attack
    }
}

/// The earliest instant at which two clause lists, compared position by
/// position, could treat a copy differently: a clause only one list has
/// counts from its activation, two differing clauses from the earlier
/// activation — refined to the earlier *deactivation* when they differ
/// only in their window's end, the refinement that lets fault- and
/// attack-duration families share their pre-fault *and* in-fault prefix.
fn clauses_divergence<C: Windowed>(a: &[C], b: &[C]) -> Time {
    let mut d = Time::MAX;
    for i in 0..a.len().max(b.len()) {
        d = d.min(match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x == y => Time::MAX,
            (Some(x), Some(y)) if x.same_but_until(y) => x.window().1.min(y.window().1),
            (Some(x), Some(y)) => x.window().0.min(y.window().0),
            (Some(x), None) | (None, Some(x)) => x.window().0,
            (None, None) => unreachable!("loop bounded by max length"),
        });
    }
    d
}

/// The first instant at which two fault scripts could treat a run
/// differently (a missing script is the empty one):
///
/// 1. Different salts decorrelate the link and Byzantine streams from
///    their very first draw; with a lossy link clause or an
///    entropy-drawing attack in play, nothing is shareable.
/// 2. Replay caches are recorded from tick 0 for replay-listed senders;
///    recording is unobservable until a replay clause activates, but
///    scripts whose replay-listed sender sets differ fill the cache
///    differently from the very first broadcast, so one's snapshot
///    carries cache state the other's flat run would not have.
/// 3. Otherwise the two clause lists bound it, each compared position
///    by position.
fn script_divergence(a: Option<&FaultScript>, b: Option<&FaultScript>) -> Time {
    let none = FaultScript::default();
    let (a, b) = (a.unwrap_or(&none), b.unwrap_or(&none));
    if a.salt != b.salt && (a.draws_entropy() || b.draws_entropy()) {
        return Time::ZERO;
    }
    if a.replay_source_mask() != b.replay_source_mask() {
        return Time::ZERO;
    }
    clauses_divergence(&a.links, &b.links).min(clauses_divergence(&a.attacks, &b.attacks))
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
/// goals: items with different goal kinds share nothing. (Decided-gated
/// items read their correct set from tick 0; configurations that share
/// a prefix have one crash schedule, so they agree on it.)
#[must_use]
pub fn item_divergence<C>(a: &PrefixItem<C>, b: &PrefixItem<C>) -> Time {
    match (a.goal, b.goal) {
        (RunGoal::Until(_), RunGoal::Until(_))
        | (RunGoal::UntilAllCorrectDecided(_), RunGoal::UntilAllCorrectDecided(_)) => {
            config_divergence(&a.config, &b.config)
        }
        _ => Time::ZERO,
    }
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
    snap: EngineSnapshot<P>,
}

/// The worker-local prefix-sharing executor: a DFS over a family's
/// implicit prefix tree, carrying a stack of branch-point snapshots and
/// one recycled [`EngineArena`]. Feed it families through
/// [`PrefixSweeper::run_family`]; for parallelism over independent
/// families, give each worker one through [`parallel_seed_sweep_with`].
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
            stats: ForkStats::default(),
        }
    }

    /// Pops the top branch point, returning its snapshot to the spare
    /// pool.
    fn pop(&mut self) {
        if let Some(s) = self.stack.pop() {
            self.spare.push(s.snap);
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
        while !self.stack.is_empty() {
            self.pop();
        }
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                let d = item_divergence(&items[i - 1], item).ticks();
                while self.stack.last().is_some_and(|s| s.covers_to > d) {
                    self.pop();
                }
            }
            // A snapshot that ran past this item's own deadline cannot
            // seed it (the fresh run would have stopped earlier).
            let deadline = item.goal.deadline().ticks();
            while self.stack.last().is_some_and(|s| s.processed_to > deadline) {
                self.pop();
            }
            let mut engine = match self.stack.last() {
                Some(top) => {
                    self.stats.forked += 1;
                    self.stats.shared_ticks += top.processed_to;
                    Engine::resume_in(
                        item.config.clone(),
                        &top.snap,
                        std::mem::take(&mut self.arena),
                    )
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
                    self.stack.push(StackSnap {
                        covers_to: d,
                        // The clock the run actually reached, not the
                        // cap: a decided-gated prefix can stop well
                        // before it, and both the deadline pop-guard
                        // and the shared-ticks accounting must see the
                        // real stopping point.
                        processed_to: engine.now().ticks().min(cap),
                        snap,
                    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{LinkEffect, ProcSet};
    use crate::network::PreGstBehavior;
    use homonym_core::failure::FailureSchedule;
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
    fn crash_difference_forfeits_sharing() {
        let a = base_config(1);
        let mut b = base_config(1);
        b.sched = FailureSchedule::none(4).with_crash(2, Time::from_ticks(40));
        assert_eq!(config_divergence(&a, &b), Time::ZERO);
    }

    #[test]
    fn heal_variants_diverge_at_the_earlier_heal_for_drop_clauses() {
        // Identical clause except the window end: shared until the
        // earlier deactivation.
        let mut x = defer_clause(20, 50);
        let mut y = defer_clause(20, 70);
        x.effect = LinkEffect::Drop;
        y.effect = LinkEffect::Drop;
        assert_eq!(clauses_divergence(&[x], &[y]), Time::from_ticks(50));
        // DeferUntil embeds the heal instant in the effect, so the
        // queued copies differ from the activation onward.
        assert_eq!(
            clauses_divergence(&[defer_clause(20, 50)], &[defer_clause(20, 70)]),
            Time::from_ticks(20)
        );
    }

    #[test]
    fn salted_probabilistic_scripts_do_not_share() {
        let mk = |salt: u64| FaultScript {
            links: vec![LinkClause {
                from: Time::from_ticks(30),
                until: Time::from_ticks(60),
                src: ProcSet::all(4),
                dst: ProcSet::all(4),
                effect: LinkEffect::Lose(10),
            }],
            salt,
            ..FaultScript::default()
        };
        assert_eq!(script_divergence(Some(&mk(1)), Some(&mk(2))), Time::ZERO);
        assert_eq!(script_divergence(Some(&mk(1)), Some(&mk(1))), Time::MAX);
    }

    #[test]
    fn differing_replay_sources_forfeit_sharing() {
        use crate::adversary::Attack;
        let attack = |attack: Attack, src: usize, from: u64, until: Time| FaultScript {
            attacks: vec![ByzClause {
                from: Time::from_ticks(from),
                until,
                src: ProcSet::from_indices(4, [src]),
                victims: ProcSet::all(4),
                attack,
            }],
            ..FaultScript::default()
        };
        let replay = |src: usize, from: u64| attack(Attack::Replay, src, from, Time::MAX);
        // Same replay-listed sender, later window: shared to the earlier
        // activation (the engines' caches agree up to there).
        assert_eq!(
            script_divergence(Some(&replay(1, 30)), Some(&replay(1, 50))),
            Time::from_ticks(30)
        );
        // Different replay-listed senders: the caches diverge from the
        // first broadcast — no sharing, regardless of window placement.
        assert_eq!(
            script_divergence(Some(&replay(1, 30)), Some(&replay(2, 30))),
            Time::ZERO
        );
        // A replay script against no script at all: same forfeit.
        assert_eq!(script_divergence(Some(&replay(1, 30)), None), Time::ZERO);
        // Non-replay scripts keep the clause-window refinement.
        let equiv =
            |from: u64, until: u64| attack(Attack::Equivocate, 1, from, Time::from_ticks(until));
        assert_eq!(
            script_divergence(Some(&equiv(20, 50)), Some(&equiv(20, 70))),
            Time::from_ticks(50)
        );
    }

    /// Chatter for the family test: broadcasts a counter on a repeating
    /// timer and publishes the running sum it hears, so engine state
    /// keeps evolving for the whole run window.
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

    /// A sweep item whose links `{0, 1} → {2, 3}` drop every copy from
    /// tick 20 until `heal`, and which crashes process 3 at `crash`.
    fn pulse_item(heal: u64, crash: Option<u64>) -> PrefixItem<()> {
        let mut drop = defer_clause(20, heal);
        drop.effect = LinkEffect::Drop;
        let mut config = base_config(1).with_adversary(FaultScript {
            links: vec![drop],
            ..FaultScript::default()
        });
        if let Some(at) = crash {
            config.sched = FailureSchedule::none(4).with_crash(3, Time::from_ticks(at));
        }
        PrefixItem {
            config,
            goal: RunGoal::Until(Time::from_ticks(200)),
            tag: (),
        }
    }

    /// Heal times are multiples of 7, the ticks every `Pulse` broadcasts
    /// at, so a run that went one tick past its branch point differs
    /// from its siblings. They stack three branch points (41, 83, 125),
    /// then pop back to the shallowest. The last two items differ only
    /// in a crash; the first of them runs ahead of the second past where
    /// the copies in flight to the crashed process were sent. A crash
    /// schedule forfeits sharing (see [`config_divergence`]).
    fn pulse_family() -> Vec<PrefixItem<()>> {
        vec![
            pulse_item(42, None),
            pulse_item(84, None),
            pulse_item(126, None),
            pulse_item(168, None),
            pulse_item(49, None),
            pulse_item(168, Some(60)),
            pulse_item(168, None),
        ]
    }

    fn pulse_factory(_item: usize, p: usize, _id: Identity) -> Pulse {
        Pulse {
            me: p as u64 + 1,
            heard: 0,
        }
    }

    /// Every item of a family through one [`PrefixSweeper`] ends where a
    /// fresh run of it from tick 0 ends: same clock, metrics and
    /// histories — and the family did share prefixes.
    #[test]
    fn a_forked_family_matches_fresh_runs() {
        let extract = |e: &mut Engine<Pulse>, _i: usize| {
            (e.now(), e.metrics().clone(), e.histories().to_vec())
        };
        let items = pulse_family();

        let mut sweeper = PrefixSweeper::new();
        let forked = sweeper.run_family(&items, pulse_factory, extract);

        let fresh: Vec<_> = (items.iter().enumerate())
            .map(|(i, item)| {
                let factory = |p, id| pulse_factory(i, p, id);
                let mut engine = Engine::new_in(item.config.clone(), factory, EngineArena::new());
                item.goal.run(&mut engine, Time::MAX);
                extract(&mut engine, i)
            })
            .collect();

        assert_eq!(forked, fresh, "a fork must end where a fresh run ends");
        let stats = sweeper.stats;
        assert!(stats.forked >= 2, "family must share prefixes: {stats:?}");
        assert!(stats.shared_ticks > 0, "forks must skip ticks: {stats:?}");
    }
}
