//! The falsification sweep harness: thousands of generated scenarios,
//! safety asserted universally, liveness asserted exactly on the
//! eventually-clean subset.
//!
//! Built on the sweep plumbing of [`homonym_sim::sweep`] — the **single**
//! implementation module for seed fan-out, worker arenas and the
//! prefix-sharing executor, re-exported from here so chaos users import
//! one coherent surface: each scenario run is a pure function of
//! `(stack, topology, family, seed)`, so the sweep parallelizes freely
//! and every counterexample is replayable from its report line alone —
//! the [`Counterexample`] carries the seed and the full scenario script.
//! Each worker threads reusable [`EngineArena`]s through its block of
//! scenarios, so the thousandth run reuses the first run's queue ring,
//! history tables and scratch buffers instead of rebuilding a world.
//!
//! # Two executors, one verdict set
//!
//! * [`falsification_sweep`] — the **flat** executor: every run
//!   re-executes its full history from tick 0. This is the differential
//!   baseline.
//! * [`falsification_sweep_forked`] — the **prefix-sharing** executor:
//!   when [`SweepConfig::variants`] expands each generated scenario into
//!   a [`fault_window_variants`] family (same seed, same fault starts,
//!   different heal times / GST margins), the family's shared prefix is
//!   run **once**, snapshotted at the computed divergence point, and
//!   restored per variant ([`PrefixSweeper`]). The verdict sets of the
//!   two executors are **identical** — `tests/chaos_scenarios.rs` and
//!   the `chaos_sweep_forked` bench row assert report equality and
//!   per-run event-count equality. Stacks whose process construction
//!   embeds per-variant parameters (the oracle-backed Figure 9 stack:
//!   its `OracleWorld` stabilization instant differs per variant) take
//!   the flat path inside the forked executor — the documented worst
//!   case, no shared prefix.
//!
//! # What counts as a counterexample
//!
//! * a **safety** violation (consensus validity/agreement, `HΣ` quorum
//!   intersection, monotonicity) in *any* run, however adversarial;
//! * a **liveness** violation (termination, `◇HP` convergence, `HΩ`
//!   election) in a run whose environment was eventually clean — all
//!   network faults healed, GST passed, and the configured decision
//!   margin still ahead.
//!
//! Liveness failures on runs that never became clean (lossy scenarios
//! under reliable-link consensus models, truncated pre-heal probes) are
//! recorded as **excused**, exactly as the paper's definitions permit —
//! and the pre-heal probes double as the demonstration that liveness
//! *correctly* fails while a partition is up and holds once it heals.

use homonym_consensus::{ByzQuorumConsensus, HOmegaPolicy, MajorityConsensus, QuorumConsensus};
use homonym_core::classes::HOmegaOutput;
use homonym_core::failure::FailureSchedule;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::{
    check_byzantine_consensus, check_consensus, check_evt_hp, check_h_omega, classify_run,
    PropertyViolation, RunCondition, RunVerdict,
};
use homonym_core::query::SharedCell;
use homonym_core::time::{Span, Time};
use homonym_core::wire::Persist;
use homonym_detectors::evt_hp::{split_snapshots, EvtHpProcess};
use homonym_detectors::oracle::{HOmegaOracle, HSigmaOracle, OracleWorld, PreStability};
use homonym_sim::engine::{Engine, EngineArena, SimConfig};
use homonym_sim::network::{NetworkModel, PreGstBehavior};
use homonym_sim::stack::Stacked;

// The shared sweep plumbing lives in `homonym_sim::sweep`; re-exported
// here so the chaos crate presents one import surface (and so the bench
// harness can keep importing everything from one place).
pub use homonym_sim::sweep::{
    config_divergence, item_divergence, parallel_seed_sweep, parallel_seed_sweep_with, ForkStats,
    PrefixItem, PrefixSweeper, PrefixTree, RunGoal,
};

use crate::generators::{
    byzantine_attack_variants, corrupt_minority_homonyms, fault_window_variants, flapping_minority,
    hidden_equivocator, homonym_group_isolation, leader_churn_across_heights,
    over_threshold_byzantine, split_brain,
};
use crate::scenario::{FaultClause, Scenario};

/// A scenario family the sweep can draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`split_brain`].
    SplitBrain,
    /// [`flapping_minority`].
    FlappingMinority,
    /// [`homonym_group_isolation`].
    HomonymIsolation,
    /// [`leader_churn_across_heights`] — sequential churn windows on
    /// the `HΩ` leader candidates, built to straddle the replicated log
    /// service's height boundaries.
    LeaderChurn,
    /// [`hidden_equivocator`].
    HiddenEquivocator,
    /// [`corrupt_minority_homonyms`].
    CorruptMinorityHomonyms,
    /// [`over_threshold_byzantine`] — an `f ≥ ⌈n/3⌉` coalition past the
    /// tolerance bound of the Byzantine-tolerant stack.
    OverThresholdByzantine,
}

impl Family {
    /// The crash/partition families, in historical rotation order.
    pub const ALL: [Family; 4] = [
        Family::SplitBrain,
        Family::FlappingMinority,
        Family::HomonymIsolation,
        Family::LeaderChurn,
    ];

    /// The Byzantine families.
    pub const BYZANTINE: [Family; 3] = [
        Family::HiddenEquivocator,
        Family::CorruptMinorityHomonyms,
        Family::OverThresholdByzantine,
    ];

    /// The Byzantine-mode rotation: the Byzantine families interleaved
    /// with the crash families, so one sweep asserts both halves of the
    /// contract — demonstrated counterexamples on the corrupt runs,
    /// untouched safety on the crash-only (clean) subset. The
    /// over-threshold family rides in the same rotation so the tolerant
    /// stack's `n > 3f` bound is exercised from both sides: within it the
    /// stack must survive, past it the stack is *expected* to fall.
    pub const WITH_BYZANTINE: [Family; 6] = [
        Family::HiddenEquivocator,
        Family::SplitBrain,
        Family::CorruptMinorityHomonyms,
        Family::FlappingMinority,
        Family::OverThresholdByzantine,
        Family::HomonymIsolation,
    ];

    /// The family's report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::SplitBrain => "split-brain",
            Family::FlappingMinority => "flapping-minority",
            Family::HomonymIsolation => "homonym-isolation",
            Family::LeaderChurn => "leader-churn",
            Family::HiddenEquivocator => "hidden-equivocator",
            Family::CorruptMinorityHomonyms => "corrupt-minority-homonyms",
            Family::OverThresholdByzantine => "over-threshold-byzantine",
        }
    }

    /// The family with the given report name (the inverse of
    /// [`Family::name`], for replaying a counterexample from its
    /// coordinates).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Family> {
        Family::ALL
            .into_iter()
            .chain(Family::BYZANTINE)
            .find(|f| f.name() == name)
    }

    /// Generates this family's scenario for `(topology, seed)`.
    #[must_use]
    pub fn generate(self, assign: &IdentityAssignment, seed: u64) -> Scenario {
        match self {
            Family::SplitBrain => split_brain(assign.n(), seed),
            Family::FlappingMinority => flapping_minority(assign.n(), seed),
            Family::HomonymIsolation => homonym_group_isolation(assign, seed),
            Family::LeaderChurn => leader_churn_across_heights(assign, seed),
            Family::HiddenEquivocator => hidden_equivocator(assign, seed),
            Family::CorruptMinorityHomonyms => corrupt_minority_homonyms(assign, seed),
            Family::OverThresholdByzantine => over_threshold_byzantine(assign, seed),
        }
    }
}

/// Which detector/consensus stack the sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The full Figure 6 + Figure 8 stack: a real message-passing `◇HP`
    /// detector mirrored into `HΩ` under Figure 8 majority consensus, in
    /// `HPS`. Safety = consensus validity + agreement; liveness =
    /// termination.
    Fig8EvtHp,
    /// Figure 9 quorum consensus over oracle `HΩ`/`HΣ` (the detector is
    /// correct by construction, so every surviving violation indicts the
    /// consensus algorithm), in `HAS`. Safety = validity + agreement
    /// (resting on `HΣ` quorum intersection); liveness = termination.
    Fig9OracleQuorum,
    /// The Figure 6 detector alone in `HPS`: no safety properties (`◇HP`
    /// has none), liveness = `◇HP` convergence and `HΩ` election.
    EvtHpDetector,
    /// The Byzantine-*tolerant* stack: the Figure 6 `◇HP` detector
    /// stacked over [`ByzQuorumConsensus`] — `> (n+f)/2` quorum
    /// certificates, per-label admission windows and echo-certified
    /// decisions, in `HPS`. Safety = agreement + (corrupt-free runs only)
    /// validity, **claimed even under corruption** whenever the run's
    /// fault count satisfies `3f < n`: violations inside the envelope are
    /// real counterexamples, never excused as
    /// [`ByzantineExpected`](RunVerdict::ByzantineExpected). Past the
    /// bound (`3f ≥ n`) the claim is withdrawn and violations are the
    /// demonstrated fall the threshold theory predicts.
    ByzTolerant,
}

impl StackKind {
    /// The stack's report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StackKind::Fig8EvtHp => "fig8-evt-hp",
            StackKind::Fig9OracleQuorum => "fig9-oracle-quorum",
            StackKind::EvtHpDetector => "evt-hp-detector",
            StackKind::ByzTolerant => "byz-tolerant-quorum",
        }
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// System size.
    pub n: usize,
    /// Homonymy degree (distinct identifiers; see
    /// [`IdentityAssignment::round_robin`]).
    pub l: usize,
    /// Number of generated base scenarios.
    pub scenarios: usize,
    /// Shared-prefix variants per base scenario (see
    /// [`fault_window_variants`]); `1` leaves the historical behaviour —
    /// every generated scenario stands alone. Total runs =
    /// `scenarios × variants`.
    pub variants: usize,
    /// The stack under test.
    pub stack: StackKind,
    /// Families to rotate through.
    pub families: Vec<Family>,
    /// Base seed; scenario `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// How long after the environment is clean a consensus stack gets to
    /// terminate before a missing decision counts as a liveness
    /// violation.
    pub decision_margin: Span,
    /// Observation window granted to detector-only runs after the
    /// environment is clean.
    pub detector_margin: Span,
    /// Run a truncated **pre-heal probe** for every `probe_every`-th
    /// base scenario (0 disables): the same run cut off just before the
    /// first heal, expected to be blocked — the demonstration that
    /// liveness correctly fails pre-heal. Consensus stacks only; probes
    /// attach to the base variant of a family.
    pub probe_every: usize,
}

impl SweepConfig {
    /// Defaults: `n = 8`, `ℓ = 3`, rotation over all families, no
    /// variant expansion, a generous post-clean margin, and a probe
    /// every 8th scenario.
    #[must_use]
    pub fn new(stack: StackKind, scenarios: usize) -> Self {
        SweepConfig {
            n: 8,
            l: 3,
            scenarios,
            variants: 1,
            stack,
            families: Family::ALL.to_vec(),
            base_seed: 1,
            decision_margin: Span::from_ticks(30_000),
            detector_margin: Span::from_ticks(2_500),
            probe_every: 8,
        }
    }

    /// Sets the per-scenario variant count (builder style); see
    /// [`SweepConfig::variants`].
    #[must_use]
    pub fn with_variants(mut self, variants: usize) -> Self {
        self.variants = variants.max(1);
        self
    }

    /// The **Byzantine mode**: the same defaults as [`SweepConfig::new`]
    /// but rotating through [`Family::WITH_BYZANTINE`], so the sweep
    /// interleaves equivocation/corruption attacks (whose violations are
    /// *demanded* as [`SweepReport::byzantine_demonstrated`]
    /// counterexamples against the crash-only stacks) with the crash
    /// families (whose safety must stay untouched — the `f < n/3` clean
    /// subset).
    #[must_use]
    pub fn byzantine(stack: StackKind, scenarios: usize) -> Self {
        SweepConfig {
            families: Family::WITH_BYZANTINE.to_vec(),
            ..SweepConfig::new(stack, scenarios)
        }
    }

    /// A stable fingerprint of everything that determines the sweep's
    /// run list and verdicts. A checkpoint directory written under one
    /// fingerprint refuses to resume under another — segment files
    /// would silently describe different runs.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut s = homonym_core::wire::Saver::new();
        (self.n, self.l, self.scenarios).save(&mut s);
        self.variants.save(&mut s);
        self.stack.name().save(&mut s);
        let families: Vec<&'static str> = self.families.iter().map(|f| f.name()).collect();
        families.save(&mut s);
        self.base_seed.save(&mut s);
        self.decision_margin.ticks().save(&mut s);
        self.detector_margin.ticks().save(&mut s);
        self.probe_every.save(&mut s);
        homonym_sim::fnv1a(&s.finish())
    }
}

/// A falsifying (or excused) run, replayable from `seed` + the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The scenario seed (`family.generate(assign, seed)` rebuilds the
    /// base; the script pins the exact variant).
    pub seed: u64,
    /// The family that generated the scenario.
    pub family: &'static str,
    /// The full scenario script (`Scenario`'s `Display`).
    pub script: String,
    /// The violated property.
    pub violation: PropertyViolation,
}

/// Aggregated sweep results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Scenario runs executed (excluding pre-heal probes).
    pub runs: usize,
    /// Safety violations — must be empty for a correct implementation.
    pub safety_counterexamples: Vec<Counterexample>,
    /// Liveness violations on eventually-clean runs — must be empty.
    pub liveness_counterexamples: Vec<Counterexample>,
    /// Runs on which liveness was required and held.
    pub liveness_held: usize,
    /// Runs on which a liveness failure was excused (environment never
    /// clean inside the window).
    pub liveness_excused: usize,
    /// Violations in runs with corrupt processes against a crash-only
    /// stack — the **demonstrated counterexamples** the Byzantine mode
    /// requires (each replayable as family + seed + script). These do
    /// not falsify the implementation; their *absence* falsifies the
    /// Byzantine sweep's claim that crash-only stacks fall to a hidden
    /// equivocator.
    pub byzantine_demonstrated: Vec<Counterexample>,
    /// Byzantine runs the attack failed to falsify (every property
    /// held despite the corruption).
    pub byzantine_survived: usize,
    /// Pre-heal probes executed.
    pub probes: usize,
    /// Probes correctly blocked before the heal **whose full run then
    /// terminated** — the pre-heal/post-heal liveness demonstration.
    pub probe_demonstrations: usize,
    /// Probes that decided even before the heal (possible when the cut
    /// leaves a deciding majority).
    pub probe_decided_early: usize,
}

impl SweepReport {
    /// The first falsifying run, if any (safety first — a safety
    /// counterexample always outranks a liveness one).
    #[must_use]
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.safety_counterexamples
            .first()
            .or(self.liveness_counterexamples.first())
    }

    /// Whether the sweep falsified the stack.
    #[must_use]
    pub fn falsified(&self) -> bool {
        self.first_counterexample().is_some()
    }

    /// The first demonstrated Byzantine counterexample, if any — the
    /// replay seed of the mid-run attack-variation fork
    /// ([`replay_byzantine_counterexample`]).
    #[must_use]
    pub fn first_demonstration(&self) -> Option<&Counterexample> {
        self.byzantine_demonstrated.first()
    }
}

/// Per-worker recycled engine allocations for the flat executor, one
/// arena per stack shape the sweep can drive (see [`EngineArena`]).
/// Arenas change allocation traffic only — every run remains a pure
/// function of its config and seed (the engine's
/// `arena_reuse_reproduces_fresh_runs` test pins the mechanism;
/// `sweep_report_is_deterministic` in `tests/chaos_scenarios.rs` pins it
/// at sweep scale).
struct WorkerArenas {
    fig8: EngineArena<Fig8Node>,
    fig9: EngineArena<QuorumConsensus<HOmegaOracle, HSigmaOracle>>,
    detector: EngineArena<EvtHpProcess>,
    byz: EngineArena<ByzTolerantNode>,
}

impl WorkerArenas {
    fn new() -> Self {
        WorkerArenas {
            fig8: EngineArena::new(),
            fig9: EngineArena::new(),
            detector: EngineArena::new(),
            byz: EngineArena::new(),
        }
    }
}

/// Per-worker state of the forked executor: prefix sweepers for the
/// stacks whose process construction is variant-invariant, plus flat
/// arenas for probes and the oracle-backed fallback.
pub(crate) struct ForkedWorkers {
    fig8: PrefixSweeper<Fig8Node>,
    detector: PrefixSweeper<EvtHpProcess>,
    byz: PrefixSweeper<ByzTolerantNode>,
    flat: WorkerArenas,
}

impl ForkedWorkers {
    pub(crate) fn new() -> Self {
        ForkedWorkers {
            fig8: PrefixSweeper::new(),
            detector: PrefixSweeper::new(),
            byz: PrefixSweeper::new(),
            flat: WorkerArenas::new(),
        }
    }

    /// Enables the disk spill on every prefix sweeper this worker owns:
    /// branch-point snapshots past `budget_bytes` of RAM move to spool
    /// files under `dir`. Spool creation failures (read-only disk)
    /// degrade to the all-in-RAM behaviour rather than failing the
    /// sweep.
    pub(crate) fn enable_spill(&mut self, dir: &std::path::Path, budget_bytes: u64) {
        if let Ok(spool) = homonym_sim::SnapshotSpool::new(dir.join("fig8"), budget_bytes) {
            self.fig8.enable_spill(spool);
        }
        if let Ok(spool) = homonym_sim::SnapshotSpool::new(dir.join("detector"), budget_bytes) {
            self.detector.enable_spill(spool);
        }
        if let Ok(spool) = homonym_sim::SnapshotSpool::new(dir.join("byz"), budget_bytes) {
            self.byz.enable_spill(spool);
        }
    }

    /// Accumulated spill activity across this worker's sweepers.
    pub(crate) fn spool_stats(&self) -> homonym_sim::SpoolStats {
        let mut total = homonym_sim::SpoolStats::default();
        for stats in [
            self.fig8.spool_stats(),
            self.detector.spool_stats(),
            self.byz.spool_stats(),
        ]
        .into_iter()
        .flatten()
        {
            total.spilled += stats.spilled;
            total.reloaded += stats.reloaded;
            total.corrupt += stats.corrupt;
            total.bytes_on_disk += stats.bytes_on_disk;
        }
        total
    }
}

/// One scenario run's contribution to the report.
pub(crate) struct RunOutcome {
    pub(crate) family: &'static str,
    pub(crate) seed: u64,
    pub(crate) script: String,
    pub(crate) verdict: RunVerdict<()>,
    /// Number of corrupt processes in the run (splits Byzantine passes
    /// from crash-only passes in the aggregate).
    pub(crate) corrupt: usize,
    /// `Some(blocked)` when a pre-heal probe ran: `true` if the probe
    /// failed to terminate before the heal (the expected outcome).
    pub(crate) probe_blocked: Option<bool>,
}

// Outcomes are what sweep checkpoints persist: one segment file holds
// the outcomes of one scenario group (`&'static str` round-trips
// through the wire interner).
homonym_core::persist_fields!(RunOutcome {
    family,
    seed,
    script,
    verdict,
    corrupt,
    probe_blocked
});

/// One planned scenario run: the expanded (family, seed, variant)
/// coordinates both executors consume, so flat and forked sweeps run the
/// byte-identical scenario list.
pub(crate) struct PlannedRun {
    family: &'static str,
    seed: u64,
    scenario: Scenario,
    /// Whether this run also executes the truncated pre-heal probe.
    probe: bool,
}

/// Expands the sweep configuration into its full run list: base
/// scenarios in rotation order, each followed by its shared-prefix
/// variants (variant 0 *is* the base).
pub(crate) fn plan_runs(cfg: &SweepConfig, assign: &IdentityAssignment) -> Vec<PlannedRun> {
    let variants = cfg.variants.max(1);
    let mut runs = Vec::with_capacity(cfg.scenarios * variants);
    for i in 0..cfg.scenarios as u64 {
        let seed = cfg.base_seed + i;
        let family = cfg.families[i as usize % cfg.families.len()];
        let base = family.generate(assign, seed);
        let probe_base = cfg.probe_every > 0 && i.is_multiple_of(cfg.probe_every as u64);
        for (v, scenario) in fault_window_variants(&base, seed, variants)
            .into_iter()
            .enumerate()
        {
            runs.push(PlannedRun {
                family: family.name(),
                seed,
                scenario,
                probe: probe_base && v == 0,
            });
        }
    }
    runs
}

/// Folds per-run outcomes into the aggregate report (shared by both
/// executors and the checkpointed driver, so report equality reduces to
/// outcome equality).
pub(crate) fn aggregate(outcomes: Vec<RunOutcome>) -> SweepReport {
    let mut report = SweepReport {
        runs: outcomes.len(),
        ..SweepReport::default()
    };
    for o in outcomes {
        let cex = |v: &PropertyViolation| Counterexample {
            seed: o.seed,
            family: o.family,
            script: o.script.clone(),
            violation: v.clone(),
        };
        match &o.verdict {
            RunVerdict::Pass(()) if o.corrupt > 0 => report.byzantine_survived += 1,
            RunVerdict::Pass(()) => report.liveness_held += 1,
            RunVerdict::SafetyViolated(v) => report.safety_counterexamples.push(cex(v)),
            RunVerdict::LivenessViolated(v) => report.liveness_counterexamples.push(cex(v)),
            RunVerdict::LivenessExcused(_) => report.liveness_excused += 1,
            RunVerdict::ByzantineExpected(v) => report.byzantine_demonstrated.push(cex(v)),
        }
        if let Some(blocked) = o.probe_blocked {
            report.probes += 1;
            if blocked {
                if matches!(o.verdict, RunVerdict::Pass(())) {
                    report.probe_demonstrations += 1;
                }
            } else {
                report.probe_decided_early += 1;
            }
        }
    }
    report
}

/// Runs the falsification sweep on the **flat** executor: every run
/// re-executes its full history from tick 0 (the differential baseline
/// of [`falsification_sweep_forked`]).
///
/// # Panics
///
/// Panics if the config names no families or a generated scenario fails
/// to validate (a generator bug, not a property violation).
#[must_use]
pub fn falsification_sweep(cfg: &SweepConfig) -> SweepReport {
    assert!(!cfg.families.is_empty(), "sweep needs at least one family");
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let runs = plan_runs(cfg, &assign);
    let outcomes = parallel_seed_sweep_with(runs.len(), WorkerArenas::new, |arenas, i| {
        run_flat(cfg, &assign, arenas, &runs[i as usize])
    });
    aggregate(outcomes)
}

/// Runs the falsification sweep on the **prefix-sharing** executor:
/// each base scenario's variant family is planned through the divergence
/// computation and executed with snapshot-at-branch-point +
/// restore-per-child, on worker-local arenas. Produces the identical
/// report to [`falsification_sweep`]; with `variants == 1` (or a stack
/// that cannot share) every family is a single fresh run and the two
/// executors coincide exactly.
///
/// # Panics
///
/// Panics if the config names no families or a generated scenario fails
/// to validate.
#[must_use]
pub fn falsification_sweep_forked(cfg: &SweepConfig) -> SweepReport {
    assert!(!cfg.families.is_empty(), "sweep needs at least one family");
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let runs = plan_runs(cfg, &assign);
    let variants = cfg.variants.max(1);
    let per_family = parallel_seed_sweep_with(cfg.scenarios, ForkedWorkers::new, |workers, g| {
        let group = &runs[g as usize * variants..(g as usize + 1) * variants];
        run_family_forked(cfg, &assign, workers, group)
    });
    aggregate(per_family.into_iter().flatten().collect())
}

fn run_flat(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arenas: &mut WorkerArenas,
    run: &PlannedRun,
) -> RunOutcome {
    let (verdict, probe_blocked) = match cfg.stack {
        StackKind::Fig8EvtHp => run_fig8(
            cfg,
            assign,
            &mut arenas.fig8,
            &run.scenario,
            run.seed,
            run.probe.then(|| first_heal(&run.scenario)).flatten(),
        ),
        StackKind::Fig9OracleQuorum => run_fig9(
            cfg,
            assign,
            &mut arenas.fig9,
            &run.scenario,
            run.seed,
            run.probe.then(|| first_heal(&run.scenario)).flatten(),
        ),
        StackKind::EvtHpDetector => (
            run_detector(cfg, assign, &mut arenas.detector, &run.scenario, run.seed),
            None,
        ),
        StackKind::ByzTolerant => run_byz(
            cfg,
            assign,
            &mut arenas.byz,
            &run.scenario,
            run.seed,
            run.probe.then(|| first_heal(&run.scenario)).flatten(),
        ),
    };
    RunOutcome {
        family: run.family,
        seed: run.seed,
        script: run.scenario.to_string(),
        verdict,
        corrupt: run.scenario.corrupt_count(),
        probe_blocked,
    }
}

/// Executes one variant family on the prefix-sharing executor. Probes
/// and the oracle-backed Figure 9 stack run flat (the former are
/// truncated separate runs by definition, the latter builds per-variant
/// oracle worlds — construction is not prefix-invariant, the documented
/// no-sharing worst case).
pub(crate) fn run_family_forked(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    workers: &mut ForkedWorkers,
    group: &[PlannedRun],
) -> Vec<RunOutcome> {
    match cfg.stack {
        StackKind::Fig9OracleQuorum => group
            .iter()
            .map(|run| run_flat(cfg, assign, &mut workers.flat, run))
            .collect(),
        StackKind::Fig8EvtHp => run_fig8_family_forked(cfg, assign, workers, group),
        StackKind::EvtHpDetector => run_detector_family_forked(cfg, assign, workers, group),
        StackKind::ByzTolerant => run_byz_family_forked(cfg, assign, workers, group),
    }
}

fn run_fig8_family_forked(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    workers: &mut ForkedWorkers,
    group: &[PlannedRun],
) -> Vec<RunOutcome> {
    let n = cfg.n;
    let t = (n - 1) / 2;
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let mut cleans = Vec::with_capacity(group.len());
    let items: Vec<PrefixItem<()>> = group
        .iter()
        .map(|run| {
            let sim = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base())
                .with_seed(run.seed);
            let sim = run
                .scenario
                .install(sim)
                .expect("generated scenarios validate");
            let clean = clean_instant(&sim, &run.scenario);
            cleans.push(clean);
            PrefixItem {
                goal: RunGoal::UntilAllCorrectDecided(clean + cfg.decision_margin),
                config: sim,
                tag: (),
            }
        })
        .collect();
    let props = proposals.clone();
    let verdicts = workers.fig8.run_family(
        &items,
        |_, p, _| fig8_node(props[p], n, t),
        |engine, j| {
            let sched = engine.config().sched.clone();
            let result = check_consensus(&engine.outcome(proposals.clone()), &sched).map(|_| ());
            let condition = if group[j].scenario.is_lossy() {
                RunCondition::never_clean()
            } else {
                RunCondition::clean_from(cleans[j])
            };
            classify_run(
                condition.with_corrupt(group[j].scenario.corrupt_count()),
                result,
            )
        },
    );
    group
        .iter()
        .zip(verdicts)
        .enumerate()
        .map(|(j, (run, verdict))| {
            let probe_blocked = run
                .probe
                .then(|| first_heal(&run.scenario))
                .flatten()
                .map(|cut| {
                    let props = proposals.clone();
                    let sched = items[j].config.sched.clone();
                    let mut probe = Engine::new_in(
                        items[j].config.clone(),
                        |p, _| fig8_node(props[p], n, t),
                        std::mem::take(&mut workers.flat.fig8),
                    );
                    probe.run_until_all_correct_decided(cut);
                    let blocked =
                        check_consensus(&probe.outcome(proposals.clone()), &sched).is_err();
                    workers.flat.fig8 = probe.into_arena();
                    blocked
                });
            RunOutcome {
                family: run.family,
                seed: run.seed,
                script: run.scenario.to_string(),
                verdict,
                corrupt: run.scenario.corrupt_count(),
                probe_blocked,
            }
        })
        .collect()
}

fn run_detector_family_forked(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    workers: &mut ForkedWorkers,
    group: &[PlannedRun],
) -> Vec<RunOutcome> {
    let n = cfg.n;
    let mut cleans = Vec::with_capacity(group.len());
    let items: Vec<PrefixItem<()>> = group
        .iter()
        .map(|run| {
            let sim = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base())
                .with_seed(run.seed);
            let sim = run
                .scenario
                .install(sim)
                .expect("generated scenarios validate");
            let clean = clean_instant(&sim, &run.scenario);
            cleans.push(clean);
            PrefixItem {
                goal: RunGoal::Until(clean + cfg.detector_margin),
                config: sim,
                tag: (),
            }
        })
        .collect();
    let verdicts = workers.detector.run_family(
        &items,
        |_, _, _| EvtHpProcess::new(),
        |engine, j| {
            let sched = engine.config().sched.clone();
            let mut evt = Vec::with_capacity(n);
            let mut omg = Vec::with_capacity(n);
            for hist in engine.histories() {
                let (e, o) = split_snapshots(hist);
                evt.push(e);
                omg.push(o);
            }
            let result = check_evt_hp(&evt, &sched, assign)
                .map(|_| ())
                .and_then(|()| check_h_omega(&omg, &sched, assign).map(|_| ()));
            classify_run(
                RunCondition::clean_from(cleans[j]).with_corrupt(group[j].scenario.corrupt_count()),
                result,
            )
        },
    );
    group
        .iter()
        .zip(verdicts)
        .map(|(run, verdict)| RunOutcome {
            family: run.family,
            seed: run.seed,
            script: run.scenario.to_string(),
            verdict,
            corrupt: run.scenario.corrupt_count(),
            probe_blocked: None,
        })
        .collect()
}

/// The instant just before the earliest network fault ends — the
/// pre-heal probe's deadline. `None` when the scenario has no network
/// fault (nothing to heal) or it ends at the very first tick.
fn first_heal(scenario: &Scenario) -> Option<Time> {
    scenario
        .clauses()
        .iter()
        .filter_map(|c| match c {
            FaultClause::Partition { heal_at, .. } => Some(*heal_at),
            FaultClause::LinkOverlay { end, .. } => Some(*end),
            FaultClause::Churn { up, .. } => Some(*up),
            // Crashes never heal; a Byzantine window's end is process
            // redemption, not a network heal, and the demonstration
            // sweeps have nothing to probe there.
            FaultClause::Crash { .. }
            | FaultClause::ByzantineEquivocate { .. }
            | FaultClause::ByzantineCorrupt { .. }
            | FaultClause::ByzantineReplay { .. }
            | FaultClause::ByzantineSelectiveSend { .. } => None,
        })
        .min()
        .filter(|t| t.ticks() > 1)
        .map(|t| Time::from_ticks(t.ticks() - 1))
}

/// The instant from which an installed config's environment is clean:
/// every fault over and (for `HPS`) GST passed. Exported because every
/// consumer of the sweep's verdict semantics (the bench harness's
/// forked rows, the atlas example) must anchor deadlines to the same
/// definition.
#[must_use]
pub fn clean_instant(cfg: &SimConfig, scenario: &Scenario) -> Time {
    let gst = match cfg.network {
        NetworkModel::PartialSync { gst, .. } => gst,
        _ => Time::ZERO,
    };
    scenario.last_fault_end().max(gst)
}

/// The canonical full stack: the Figure 6 `◇HP`/`HΩ` detector mirrored
/// into Figure 8 majority consensus through a shared cell.
pub type Fig8Node =
    Stacked<EvtHpProcess, MajorityConsensus<HOmegaPolicy<SharedCell<HOmegaOutput>>>>;

/// Builds one [`Fig8Node`] — the exact stack the falsification sweep
/// drives, exported so tests and examples exercise the same shape (same
/// consensus tick, same wiring) instead of hand-rolling a drifting copy.
#[must_use]
pub fn fig8_node(proposal: u64, n: usize, t: usize) -> Fig8Node {
    let cell: SharedCell<HOmegaOutput> = SharedCell::new(HOmegaOutput::new(Identity::BOTTOM, 1));
    let detector = EvtHpProcess::new().with_h_omega_mirror(cell.clone());
    let consensus =
        MajorityConsensus::new(proposal, n, t, HOmegaPolicy(cell)).with_tick(Span::from_ticks(2));
    Stacked::new(detector, consensus)
}

/// The Byzantine-tolerant stack: the Figure 6 `◇HP`/`HΩ` detector
/// stacked over the `HΣ`-style quorum-certificate consensus — same
/// two-layer shape as [`Fig8Node`], so batched dispatch, the
/// snapshot/fork layer and the [`PrefixSweeper`] drive it unchanged.
pub type ByzTolerantNode = Stacked<EvtHpProcess, ByzQuorumConsensus>;

/// Builds one [`ByzTolerantNode`] — the exact stack the Byzantine sweep
/// drives, exported so tests, benches and examples exercise the same
/// shape (same consensus tick, same design tolerance `f = ⌊(n−1)/3⌋`
/// fixed from the topology) instead of hand-rolling a drifting copy.
#[must_use]
pub fn byz_tolerant_node(proposal: u64, assign: &IdentityAssignment) -> ByzTolerantNode {
    Stacked::new(
        EvtHpProcess::new(),
        ByzQuorumConsensus::new(proposal, assign).with_tick(2),
    )
}

/// The run condition of a tolerant-stack run: the tolerance claim is
/// asserted exactly when the scenario's corruption stays inside the
/// stack's `n > 3f` envelope — within it, violations are *real*
/// counterexamples (never `ByzantineExpected`); past it the claim is
/// withdrawn and violations are the demonstrated fall past the bound.
fn byz_condition(cfg: &SweepConfig, scenario: &Scenario, clean: Time) -> RunCondition {
    let corrupt = scenario.corrupt_count();
    let condition = if scenario.is_lossy() {
        RunCondition::never_clean()
    } else {
        RunCondition::clean_from(clean)
    };
    let condition = condition.with_corrupt(corrupt);
    if 3 * corrupt < cfg.n {
        condition.claiming_byzantine_tolerance(cfg.n)
    } else {
        condition
    }
}

/// Base `HPS` network for scenario runs: pre-GST copies delayed but
/// never lost by the *network* (loss, if any, is the scenario's move),
/// so reliability is exactly what the scenario says it is. The GST here
/// is a placeholder the scenario's [`GstPlacement`](crate::GstPlacement)
/// overwrites at install time.
#[must_use]
pub fn hps_base() -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::ZERO, // overwritten by the scenario's GST placement
        delta: Span::from_ticks(3),
        pre_gst: PreGstBehavior::DelayOnly {
            max_delay: Span::from_ticks(20),
        },
    }
}

fn run_fig8(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arena: &mut EngineArena<Fig8Node>,
    scenario: &Scenario,
    seed: u64,
    probe_at: Option<Time>,
) -> (RunVerdict<()>, Option<bool>) {
    let n = cfg.n;
    let t = (n - 1) / 2;
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let build = || {
        let sim =
            SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base()).with_seed(seed);
        scenario.install(sim).expect("generated scenarios validate")
    };
    let sim = build();
    let sched = sim.sched.clone();
    let clean = clean_instant(&sim, scenario);
    let deadline = clean + cfg.decision_margin;
    let props = proposals.clone();
    let mut engine = Engine::new_in(sim, |p, _| fig8_node(props[p], n, t), std::mem::take(arena));
    engine.run_until_all_correct_decided(deadline);
    let result = check_consensus(&engine.outcome(proposals.clone()), &sched).map(|_| ());
    *arena = engine.into_arena();
    // Figure 8 is written for reliable links (`HAS`-style): a scenario
    // that permanently loses copies leaves its model, so termination is
    // only required of loss-free scenarios. Corrupt processes void every
    // obligation of the crash-only stack — violations under them are
    // demonstrations, not falsifications (`RunVerdict::ByzantineExpected`).
    let condition = if scenario.is_lossy() {
        RunCondition::never_clean()
    } else {
        RunCondition::clean_from(clean)
    };
    let verdict = classify_run(condition.with_corrupt(scenario.corrupt_count()), result);

    let probe_blocked = probe_at.map(|cut| {
        let props = proposals.clone();
        let mut probe = Engine::new_in(
            build(),
            |p, _| fig8_node(props[p], n, t),
            std::mem::take(arena),
        );
        probe.run_until_all_correct_decided(cut);
        let blocked = check_consensus(&probe.outcome(proposals.clone()), &sched).is_err();
        *arena = probe.into_arena();
        blocked
    });
    (verdict, probe_blocked)
}

fn run_byz(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arena: &mut EngineArena<ByzTolerantNode>,
    scenario: &Scenario,
    seed: u64,
    probe_at: Option<Time>,
) -> (RunVerdict<()>, Option<bool>) {
    let n = cfg.n;
    let corrupt = scenario.corrupt_count();
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let build = || {
        let sim =
            SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base()).with_seed(seed);
        scenario.install(sim).expect("generated scenarios validate")
    };
    let sim = build();
    let sched = sim.sched.clone();
    let clean = clean_instant(&sim, scenario);
    let deadline = clean + cfg.decision_margin;
    let props = proposals.clone();
    let mut engine = Engine::new_in(
        sim,
        |p, _| byz_tolerant_node(props[p], assign),
        std::mem::take(arena),
    );
    engine.run_until_all_correct_decided(deadline);
    let result =
        check_byzantine_consensus(&engine.outcome(proposals.clone()), &sched, corrupt).map(|_| ());
    *arena = engine.into_arena();
    let verdict = classify_run(byz_condition(cfg, scenario, clean), result);

    let probe_blocked = probe_at.map(|cut| {
        let props = proposals.clone();
        let mut probe = Engine::new_in(
            build(),
            |p, _| byz_tolerant_node(props[p], assign),
            std::mem::take(arena),
        );
        probe.run_until_all_correct_decided(cut);
        let blocked =
            check_byzantine_consensus(&probe.outcome(proposals.clone()), &sched, corrupt).is_err();
        *arena = probe.into_arena();
        blocked
    });
    (verdict, probe_blocked)
}

fn run_byz_family_forked(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    workers: &mut ForkedWorkers,
    group: &[PlannedRun],
) -> Vec<RunOutcome> {
    let n = cfg.n;
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let mut cleans = Vec::with_capacity(group.len());
    let items: Vec<PrefixItem<()>> = group
        .iter()
        .map(|run| {
            let sim = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base())
                .with_seed(run.seed);
            let sim = run
                .scenario
                .install(sim)
                .expect("generated scenarios validate");
            let clean = clean_instant(&sim, &run.scenario);
            cleans.push(clean);
            PrefixItem {
                goal: RunGoal::UntilAllCorrectDecided(clean + cfg.decision_margin),
                config: sim,
                tag: (),
            }
        })
        .collect();
    let props = proposals.clone();
    let verdicts = workers.byz.run_family(
        &items,
        |_, p, _| byz_tolerant_node(props[p], assign),
        |engine, j| {
            let sched = engine.config().sched.clone();
            let corrupt = group[j].scenario.corrupt_count();
            let result =
                check_byzantine_consensus(&engine.outcome(proposals.clone()), &sched, corrupt)
                    .map(|_| ());
            classify_run(byz_condition(cfg, &group[j].scenario, cleans[j]), result)
        },
    );
    group
        .iter()
        .zip(verdicts)
        .enumerate()
        .map(|(j, (run, verdict))| {
            let probe_blocked = run
                .probe
                .then(|| first_heal(&run.scenario))
                .flatten()
                .map(|cut| {
                    let props = proposals.clone();
                    let sched = items[j].config.sched.clone();
                    let corrupt = run.scenario.corrupt_count();
                    let mut probe = Engine::new_in(
                        items[j].config.clone(),
                        |p, _| byz_tolerant_node(props[p], assign),
                        std::mem::take(&mut workers.flat.byz),
                    );
                    probe.run_until_all_correct_decided(cut);
                    let blocked = check_byzantine_consensus(
                        &probe.outcome(proposals.clone()),
                        &sched,
                        corrupt,
                    )
                    .is_err();
                    workers.flat.byz = probe.into_arena();
                    blocked
                });
            RunOutcome {
                family: run.family,
                seed: run.seed,
                script: run.scenario.to_string(),
                verdict,
                corrupt: run.scenario.corrupt_count(),
                probe_blocked,
            }
        })
        .collect()
}

fn run_fig9(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arena: &mut EngineArena<QuorumConsensus<HOmegaOracle, HSigmaOracle>>,
    scenario: &Scenario,
    seed: u64,
    probe_at: Option<Time>,
) -> (RunVerdict<()>, Option<bool>) {
    let n = cfg.n;
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let network = NetworkModel::Asynchronous(homonym_sim::network::LatencyDistribution::Uniform {
        min: Span::TICK,
        max: Span::from_ticks(5),
    });
    let sim = SimConfig::new(assign.clone(), FailureSchedule::none(n), network).with_seed(seed);
    let sim = scenario.install(sim).expect("generated scenarios validate");
    let sched = sim.sched.clone();
    let clean = clean_instant(&sim, scenario);
    let deadline = clean + cfg.decision_margin;
    // Oracle detectors stabilize once the environment is clean; before
    // that they may churn arbitrarily (PreStability::Chaotic for HΩ).
    let world = OracleWorld::new(sched.clone(), assign.clone(), clean);
    let build_engine =
        |sim: SimConfig, arena: EngineArena<QuorumConsensus<HOmegaOracle, HSigmaOracle>>| {
            let props = proposals.clone();
            let w = &world;
            Engine::new_in(
                sim,
                move |p, _| {
                    QuorumConsensus::new(
                        props[p],
                        w.h_omega_for(p, PreStability::Chaotic),
                        w.h_sigma_for(p, PreStability::Truthful),
                    )
                },
                arena,
            )
        };
    let mut engine = build_engine(sim.clone(), std::mem::take(arena));
    engine.run_until_all_correct_decided(deadline);
    let result = check_consensus(&engine.outcome(proposals.clone()), &sched).map(|_| ());
    *arena = engine.into_arena();
    let condition = if scenario.is_lossy() {
        RunCondition::never_clean()
    } else {
        RunCondition::clean_from(clean)
    };
    let verdict = classify_run(condition.with_corrupt(scenario.corrupt_count()), result);

    let probe_blocked = probe_at.map(|cut| {
        let mut probe = build_engine(sim.clone(), std::mem::take(arena));
        probe.run_until_all_correct_decided(cut);
        let blocked = check_consensus(&probe.outcome(proposals.clone()), &sched).is_err();
        *arena = probe.into_arena();
        blocked
    });
    (verdict, probe_blocked)
}

fn run_detector(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arena: &mut EngineArena<EvtHpProcess>,
    scenario: &Scenario,
    seed: u64,
) -> RunVerdict<()> {
    let n = cfg.n;
    let sim = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base()).with_seed(seed);
    let sim = scenario.install(sim).expect("generated scenarios validate");
    let sched = sim.sched.clone();
    let clean = clean_instant(&sim, scenario);
    let horizon = clean + cfg.detector_margin;
    let mut engine = Engine::new_in(sim, |_, _| EvtHpProcess::new(), std::mem::take(arena));
    engine.run_until(horizon);
    let mut evt = Vec::with_capacity(n);
    let mut omg = Vec::with_capacity(n);
    for hist in engine.histories() {
        let (e, o) = split_snapshots(hist);
        evt.push(e);
        omg.push(o);
    }
    let result = check_evt_hp(&evt, &sched, assign)
        .map(|_| ())
        .and_then(|()| check_h_omega(&omg, &sched, assign).map(|_| ()));
    *arena = engine.into_arena();
    // `◇HP` lives in `HPS`, which tolerates arbitrary pre-GST behaviour
    // — lossy scenarios included — so liveness is required of every
    // scenario the generators produce (all network faults end before
    // GST); corrupt processes again turn violations into demonstrations.
    classify_run(
        RunCondition::clean_from(clean).with_corrupt(scenario.corrupt_count()),
        result,
    )
}

// ---------------------------------------------------------------------------
// Mid-run counterexample replay
// ---------------------------------------------------------------------------

/// Result of replaying one Byzantine counterexample across attack
/// variations (see [`replay_byzantine_counterexample`]): the per-variant
/// verdicts of the prefix-sharing executor, the flat from-tick-0
/// re-executions they must equal, and the fork accounting proving the
/// honest prefix was shared rather than re-executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzantineReplay {
    /// Each variation's full scenario script (variant 0 is the original
    /// counterexample), replayable verbatim.
    pub scripts: Vec<String>,
    /// Verdicts from the **forked** execution: the honest prefix runs
    /// once, is snapshotted just before the earliest attack window, and
    /// every variation restores from that snapshot.
    pub forked: Vec<RunVerdict<()>>,
    /// Verdicts from flat re-execution of every variation.
    pub flat: Vec<RunVerdict<()>>,
    /// Fork accounting of the forked execution (a nonzero
    /// [`ForkStats::forked`] proves the prefix was actually shared on
    /// sharable stacks).
    pub stats: ForkStats,
}

impl ByzantineReplay {
    /// Whether the forked replay reproduced the flat re-execution
    /// verdict for verdict — the soundness check of mid-run replay.
    #[must_use]
    pub fn verdicts_match(&self) -> bool {
        self.forked == self.flat
    }

    /// How many variations the original attack's damage survived into
    /// (non-passing forked verdicts).
    #[must_use]
    pub fn still_falsified(&self) -> usize {
        self.forked
            .iter()
            .filter(|v| v.violation().is_some())
            .count()
    }
}

/// Re-locates the **exact falsified scenario** a counterexample names: a
/// sweep with variant expansion (`cfg.variants > 1`) may have found the
/// counterexample in a fault-window variant of the family base, not the
/// base itself, so the scenario is pinned by matching each variant's
/// printed script against [`Counterexample::script`].
///
/// # Panics
///
/// Panics if the counterexample's family name is unknown or its script
/// matches no variant of `(family, seed)` under the sweep's variant
/// count — i.e. the counterexample did not come from a sweep with this
/// configuration.
#[must_use]
pub fn locate_counterexample_scenario(cfg: &SweepConfig, cex: &Counterexample) -> Scenario {
    let family = Family::by_name(cex.family)
        .unwrap_or_else(|| panic!("unknown scenario family {:?}", cex.family));
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    fault_window_variants(
        &family.generate(&assign, cex.seed),
        cex.seed,
        cfg.variants.max(1),
    )
    .into_iter()
    .find(|s| s.to_string() == cex.script)
    .unwrap_or_else(|| {
        panic!(
            "counterexample script matches no variant of family={} seed={}: {}",
            cex.family, cex.seed, cex.script
        )
    })
}

/// Replays a demonstrated Byzantine counterexample **from mid-run**: the
/// counterexample's `(family, seed)` coordinates rebuild the base
/// scenario, [`byzantine_attack_variants`] expands it into `variants`
/// attack variations (redrawn victim sets and timings, same corrupt
/// sources, same honest prefix), and the prefix-sharing executor runs
/// the family — the run is snapshotted just before the earliest
/// equivocation window and re-forked per variation via the same
/// [`PrefixSweeper`]/divergence machinery the falsification sweep uses,
/// never re-executing the honest prefix. The same variations are also
/// re-executed flat from tick 0; [`ByzantineReplay::verdicts_match`]
/// must hold (asserted by `exp_chaos` and the chaos integration tests).
///
/// The oracle-backed Figure 9 stack takes its documented flat fallback
/// inside the forked executor (per-variant oracle worlds are not
/// prefix-invariant), so its [`ForkStats`] report no sharing.
///
/// # Panics
///
/// Panics if the counterexample's family name is unknown, or the rebuilt
/// scenario mounts no Byzantine attack (the counterexample did not come
/// from a Byzantine run).
#[must_use]
pub fn replay_byzantine_counterexample(
    cfg: &SweepConfig,
    cex: &Counterexample,
    variants: usize,
) -> ByzantineReplay {
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let base = locate_counterexample_scenario(cfg, cex);
    let group: Vec<PlannedRun> = byzantine_attack_variants(&base, cex.seed, variants.max(1))
        .into_iter()
        .map(|scenario| PlannedRun {
            family: cex.family,
            seed: cex.seed,
            scenario,
            probe: false,
        })
        .collect();
    let mut workers = ForkedWorkers::new();
    let forked = run_family_forked(cfg, &assign, &mut workers, &group);
    let mut flat_arenas = WorkerArenas::new();
    let flat: Vec<RunOutcome> = group
        .iter()
        .map(|run| run_flat(cfg, &assign, &mut flat_arenas, run))
        .collect();
    let stats = ForkStats {
        runs: workers.fig8.stats.runs + workers.detector.stats.runs + workers.byz.stats.runs,
        forked: workers.fig8.stats.forked
            + workers.detector.stats.forked
            + workers.byz.stats.forked,
        snapshots: workers.fig8.stats.snapshots
            + workers.detector.stats.snapshots
            + workers.byz.stats.snapshots,
        shared_ticks: workers.fig8.stats.shared_ticks
            + workers.detector.stats.shared_ticks
            + workers.byz.stats.shared_ticks,
    };
    ByzantineReplay {
        scripts: group.iter().map(|r| r.scenario.to_string()).collect(),
        forked: forked.into_iter().map(|o| o.verdict).collect(),
        flat: flat.into_iter().map(|o| o.verdict).collect(),
        stats,
    }
}
