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
//! Each worker threads one reusable [`EngineArena`] through its block of
//! scenarios, so the thousandth run reuses the first run's queue ring,
//! history tables and scratch buffers instead of rebuilding a world.
//!
//! # One executor, and its flat reference
//!
//! * [`falsification_sweep_forked`] — the sweep's executor, which the
//!   checkpointed driver (`exp chaos --checkpoint-dir`) and the
//!   benchmark run: when
//!   [`SweepConfig::variants`] expands each generated scenario into a
//!   [`fault_window_variants`] family (same seed, same fault starts,
//!   different heal times / GST margins), each family is one
//!   [`PrefixSweeper::run_family`] call — its shared prefix runs
//!   **once**, is snapshotted at the computed divergence point and is
//!   restored per variant. The families fan out over cores, one sweeper
//!   per worker.
//! * [`falsification_sweep`] — its **flat** reference: every run
//!   re-executes its full history from tick 0. The verdict sets of the
//!   two are **identical** — `tests/chaos_scenarios.rs` asserts report
//!   equality on every stack.
//!
//! Both are generic over one description per [`StackKind`]
//! (network, goal, node construction, property check, verdict policy):
//! the sweep's stack is picked once per sweep, where the public entry
//! point is entered, and the run recipe below that point is written
//! once. A flat-versus-forked comparison therefore cannot see a wrong
//! recipe; `sweep_recipes_are_pinned_per_stack` in
//! `tests/chaos_scenarios.rs` pins each stack's report as constants.
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
use homonym_core::time::{Span, Time};
use homonym_core::wire::Persist;
use homonym_detectors::evt_hp::{split_snapshots, EvtHpProcess};
use homonym_detectors::oracle::{HOmegaOracle, HSigmaOracle, OracleWorld, PreStability};
use homonym_sim::engine::{Engine, EngineArena, SimConfig};
use homonym_sim::network::{LatencyDistribution, NetworkModel, PreGstBehavior};
use homonym_sim::process::Process;
use homonym_sim::stack::Stacked;

// The shared sweep plumbing lives in `homonym_sim::sweep`; re-exported
// here so the chaos crate presents one import surface.
pub use homonym_sim::sweep::{
    config_divergence, item_divergence, parallel_seed_sweep, parallel_seed_sweep_with, ForkStats,
    PrefixItem, PrefixSweeper, RunGoal,
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
    /// detector handing `HΩ` to Figure 8 majority consensus, in
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
    /// Every stack, in report order.
    pub const ALL: [StackKind; 4] = [
        StackKind::Fig8EvtHp,
        StackKind::Fig9OracleQuorum,
        StackKind::EvtHpDetector,
        StackKind::ByzTolerant,
    ];

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

    /// Whether sweeps of this stack run the pre-heal probes of
    /// [`SweepConfig::probe_every`] (the stack decides, so "blocked
    /// before the heal" is observable).
    #[must_use]
    pub fn runs_probes(self) -> bool {
        match self {
            StackKind::Fig8EvtHp => Fig8Stack::DECIDES,
            StackKind::Fig9OracleQuorum => Fig9Stack::DECIDES,
            StackKind::EvtHpDetector => DetectorStack::DECIDES,
            StackKind::ByzTolerant => ByzStack::DECIDES,
        }
    }

    /// Whether the stack claims its safety properties under corruption
    /// (inside its `3f < n` envelope) instead of having them voided by
    /// it.
    #[must_use]
    pub fn claims_byzantine_tolerance(self) -> bool {
        match self {
            StackKind::Fig8EvtHp => Fig8Stack::CLAIMS_TOLERANCE,
            StackKind::Fig9OracleQuorum => Fig9Stack::CLAIMS_TOLERANCE,
            StackKind::EvtHpDetector => DetectorStack::CLAIMS_TOLERANCE,
            StackKind::ByzTolerant => ByzStack::CLAIMS_TOLERANCE,
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

// ---------------------------------------------------------------------------
// Stack descriptions
// ---------------------------------------------------------------------------

/// What a [`StackKind`] means: the paper's (system model, detector
/// class, algorithm + property set) triple as one description. The
/// sweep executors, [`SessionBuilder`](crate::session::SessionBuilder)'s
/// terminal constructors and [`byzantine_story`](crate::byzantine_story)
/// are generic over it; a `StackKind` value is turned into a description
/// type once per public entry point, never per run. The provided items
/// describe a crash-model consensus algorithm in `HPS`; a description
/// states its nodes and where it departs from that.
///
/// A description may enter the **forked** executor only if its nodes
/// clone (`Node: Clone`; every process does) and — the part the compiler
/// cannot check — construction is **prefix-invariant**: [`Stack::world`]
/// must return the same world for every variant of one family, because
/// a variant restored from a sibling's snapshot keeps the sibling's
/// processes. The oracle-backed Figure 9 stack fails the second (its
/// `OracleWorld` stabilizes at the variant's own clean instant), so
/// under the forked entry points it runs flat — the documented worst
/// case, no shared prefix.
pub(crate) trait Stack {
    /// One node of the stack.
    type Node: Process;
    /// What node construction depends on besides the proposal.
    type World;

    /// Whether this is a consensus stack rather than a bare detector. A
    /// consensus stack runs until every correct process decided, at most
    /// [`SweepConfig::decision_margin`] past the clean instant; pre-heal
    /// probes apply to it; and its algorithm is written for reliable
    /// links, so a scenario that permanently loses copies leaves its
    /// model and liveness is excused. A detector is observed for
    /// [`SweepConfig::detector_margin`] and owes liveness on every
    /// scenario: `◇HP` lives in `HPS`, which tolerates arbitrary pre-GST
    /// behaviour, loss included (all generated network faults end
    /// before GST).
    const DECIDES: bool = true;
    /// Whether safety is claimed under corruption while `3f < n`;
    /// otherwise any corrupt process voids every obligation and
    /// violations are demonstrations
    /// ([`RunVerdict::ByzantineExpected`]).
    const CLAIMS_TOLERANCE: bool = false;

    /// The base network scenarios are installed over.
    fn network() -> NetworkModel {
        hps_base()
    }

    /// Everything node construction needs from an installed run.
    fn world(sim: &SimConfig, clean: Time) -> Self::World;

    /// Builds process `p`.
    fn node(world: &Self::World, proposal: u64, p: usize) -> Self::Node;

    /// The stack's property set, checked on a finished run of `corrupt`
    /// corrupt processes; by default crash-model consensus (validity,
    /// agreement, termination).
    fn check(engine: &Engine<Self::Node>, proposals: &[u64], _corrupt: usize) -> Checked {
        check_consensus(&engine.outcome(proposals.to_vec()), &engine.config().sched).map(|_| ())
    }
}

/// A property check's result.
type Checked = Result<(), PropertyViolation>;

/// [`StackKind::Fig8EvtHp`].
pub(crate) struct Fig8Stack;

impl Stack for Fig8Stack {
    type Node = Fig8Node;
    type World = usize;

    fn world(sim: &SimConfig, _clean: Time) -> usize {
        sim.assign.n()
    }

    fn node(&n: &usize, proposal: u64, _p: usize) -> Fig8Node {
        fig8_node(proposal, n, (n - 1) / 2)
    }
}

/// [`StackKind::Fig9OracleQuorum`], in `HAS`.
pub(crate) struct Fig9Stack;

impl Stack for Fig9Stack {
    type Node = QuorumConsensus<HOmegaOracle, HSigmaOracle>;
    type World = OracleWorld;

    fn network() -> NetworkModel {
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::TICK,
            max: Span::from_ticks(5),
        })
    }

    /// Oracle detectors stabilize once the environment is clean; before
    /// that they may churn arbitrarily (`PreStability::Chaotic` for `HΩ`).
    fn world(sim: &SimConfig, clean: Time) -> OracleWorld {
        OracleWorld::new(sim.sched.clone(), sim.assign.clone(), clean)
    }

    fn node(world: &OracleWorld, proposal: u64, p: usize) -> Self::Node {
        QuorumConsensus::new(
            proposal,
            world.h_omega_for(p, PreStability::Chaotic),
            world.h_sigma_for(p, PreStability::Truthful),
        )
    }
}

/// [`StackKind::EvtHpDetector`].
pub(crate) struct DetectorStack;

impl Stack for DetectorStack {
    type Node = EvtHpProcess;
    type World = ();
    const DECIDES: bool = false;

    fn world(_sim: &SimConfig, _clean: Time) {}

    fn node(_world: &(), _proposal: u64, _p: usize) -> EvtHpProcess {
        EvtHpProcess::new()
    }

    fn check(engine: &Engine<EvtHpProcess>, _proposals: &[u64], _corrupt: usize) -> Checked {
        let (sched, assign) = (&engine.config().sched, &engine.config().assign);
        let (evt, omg): (Vec<_>, Vec<_>) = engine.histories().iter().map(split_snapshots).unzip();
        check_evt_hp(&evt, sched, assign)?;
        check_h_omega(&omg, sched, assign)?;
        Ok(())
    }
}

/// [`StackKind::ByzTolerant`].
pub(crate) struct ByzStack;

impl Stack for ByzStack {
    type Node = ByzTolerantNode;
    type World = IdentityAssignment;
    const CLAIMS_TOLERANCE: bool = true;

    fn world(sim: &SimConfig, _clean: Time) -> IdentityAssignment {
        sim.assign.clone()
    }

    fn node(assign: &IdentityAssignment, proposal: u64, _p: usize) -> ByzTolerantNode {
        byz_tolerant_node(proposal, assign)
    }

    fn check(engine: &Engine<ByzTolerantNode>, proposals: &[u64], corrupt: usize) -> Checked {
        let outcome = engine.outcome(proposals.to_vec());
        check_byzantine_consensus(&outcome, &engine.config().sched, corrupt).map(|_| ())
    }
}

/// The verdict policy: which environment the stack's liveness is owed
/// in, and whether corruption voids its obligations or — inside the
/// `n > 3f` envelope of a tolerant stack — leaves violations *real*
/// counterexamples. Past the bound the claim is withdrawn and violations
/// are the demonstrated fall the threshold theory predicts.
fn run_condition<S: Stack>(cfg: &SweepConfig, scenario: &Scenario, clean: Time) -> RunCondition {
    let corrupt = scenario.corrupt_count();
    let condition = if S::DECIDES && scenario.is_lossy() {
        RunCondition::never_clean()
    } else {
        RunCondition::clean_from(clean)
    }
    .with_corrupt(corrupt);
    if S::CLAIMS_TOLERANCE && 3 * corrupt < cfg.n {
        condition.claiming_byzantine_tolerance(cfg.n)
    } else {
        condition
    }
}

/// The canonical full stack: the Figure 6 `◇HP`/`HΩ` detector handing
/// its `HΩ` output to Figure 8 majority consensus.
pub type Fig8Node = Stacked<EvtHpProcess, MajorityConsensus<HOmegaPolicy<HOmegaOutput>>>;

/// Builds one [`Fig8Node`] — the exact stack the falsification sweep
/// drives, exported so tests and examples exercise the same shape (same
/// consensus tick, same wiring) instead of hand-rolling a drifting copy.
#[must_use]
pub fn fig8_node(proposal: u64, n: usize, t: usize) -> Fig8Node {
    let reading = HOmegaOutput::new(Identity::BOTTOM, 1);
    let consensus = MajorityConsensus::new(proposal, n, t, HOmegaPolicy(reading))
        .with_tick(Span::from_ticks(2));
    Stacked::new(EvtHpProcess::new(), consensus)
}

/// The Byzantine-tolerant stack: the Figure 6 `◇HP`/`HΩ` detector
/// stacked over the `HΣ`-style quorum-certificate consensus — same
/// two-layer shape as [`Fig8Node`], so batched dispatch, the
/// snapshot/fork layer and the [`PrefixSweeper`] drive it unchanged.
pub type ByzTolerantNode = Stacked<EvtHpProcess, ByzQuorumConsensus>;

/// Builds one [`ByzTolerantNode`] — the exact stack the Byzantine sweep
/// drives, exported so tests, benches and examples exercise the same
/// shape (same design tolerance `f = ⌊(n−1)/3⌋`
/// fixed from the topology) instead of hand-rolling a drifting copy.
#[must_use]
pub fn byz_tolerant_node(proposal: u64, assign: &IdentityAssignment) -> ByzTolerantNode {
    Stacked::new(
        EvtHpProcess::new(),
        ByzQuorumConsensus::new(proposal, assign),
    )
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

// ---------------------------------------------------------------------------
// Run plan and report
// ---------------------------------------------------------------------------

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
struct PlannedRun {
    family: &'static str,
    seed: u64,
    scenario: Scenario,
    /// Whether this run also executes the truncated pre-heal probe.
    probe: bool,
}

/// The sweep configuration expanded into its full run list: base
/// scenarios in rotation order, each followed by its shared-prefix
/// variants (variant 0 *is* the base). One base scenario plus its
/// variants is a **group** — the unit the executors fan out and the
/// checkpointed driver persists.
struct Plan<'a> {
    cfg: &'a SweepConfig,
    assign: IdentityAssignment,
    runs: Vec<PlannedRun>,
}

impl<'a> Plan<'a> {
    fn new(cfg: &'a SweepConfig) -> Self {
        assert!(!cfg.families.is_empty(), "sweep needs at least one family");
        let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
        let variants = cfg.variants.max(1);
        let mut runs = Vec::with_capacity(cfg.scenarios * variants);
        for i in 0..cfg.scenarios as u64 {
            let seed = cfg.base_seed + i;
            let family = cfg.families[i as usize % cfg.families.len()];
            let base = family.generate(&assign, seed);
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
        Plan { cfg, assign, runs }
    }

    fn group(&self, g: usize) -> &[PlannedRun] {
        let variants = self.cfg.variants.max(1);
        &self.runs[g * variants..(g + 1) * variants]
    }
}

/// Folds per-run outcomes into the aggregate report (shared by both
/// executors and the checkpointed driver, so report equality reduces to
/// outcome equality).
pub(crate) fn aggregate(outcomes: impl Iterator<Item = RunOutcome>) -> SweepReport {
    let mut report = SweepReport::default();
    for o in outcomes {
        report.runs += 1;
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

// ---------------------------------------------------------------------------
// The run recipe
// ---------------------------------------------------------------------------

/// The installed run of `scenario` under `seed`: configuration, goal
/// and — as the tag — the instant its environment is clean.
pub(crate) fn installed_run<S: Stack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    scenario: &Scenario,
    seed: u64,
) -> PrefixItem<Time> {
    let sched = FailureSchedule::none(assign.n());
    let config = SimConfig::new(assign.clone(), sched, S::network()).with_seed(seed);
    let config = (scenario.install(config)).expect("generated scenarios validate");
    let clean = clean_instant(&config, scenario);
    let goal = if S::DECIDES {
        RunGoal::UntilAllCorrectDecided(clean + cfg.decision_margin)
    } else {
        RunGoal::Until(clean + cfg.detector_margin)
    };
    PrefixItem {
        config,
        goal,
        tag: clean,
    }
}

/// The sweep's proposal convention: process `p` proposes `100 + p`.
pub(crate) fn default_proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|p| 100 + p).collect()
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
/// consumer of the sweep's verdict semantics (the atlas example, the
/// benchmark's probes) must anchor deadlines to the same definition.
#[must_use]
pub fn clean_instant(cfg: &SimConfig, scenario: &Scenario) -> Time {
    let gst = match cfg.network {
        NetworkModel::PartialSync { gst, .. } => gst,
        _ => Time::ZERO,
    };
    scenario.last_fault_end().max(gst)
}

/// What the runs of one scenario group share on top of the sweep
/// configuration: the proposals and whatever node construction needs.
pub(crate) struct RunCtx<'a, S: Stack> {
    cfg: &'a SweepConfig,
    pub(crate) proposals: Vec<u64>,
    world: S::World,
}

impl<'a, S: Stack> RunCtx<'a, S> {
    pub(crate) fn new(cfg: &'a SweepConfig, first: &PrefixItem<Time>) -> Self {
        RunCtx {
            cfg,
            proposals: default_proposals(cfg.n),
            world: S::world(&first.config, first.tag),
        }
    }

    pub(crate) fn node(&self, p: usize) -> S::Node {
        S::node(&self.world, self.proposals[p], p)
    }

    /// Runs `run`, installed as `sim`, from tick 0 to `goal` inside
    /// `arena` and checks the stack's properties.
    fn execute(
        &self,
        run: &PlannedRun,
        sim: SimConfig,
        goal: RunGoal,
        arena: &mut EngineArena<S::Node>,
    ) -> Checked {
        let mut engine = Engine::new_in(sim, |p, _| self.node(p), std::mem::take(arena));
        goal.run(&mut engine, Time::MAX);
        let result = S::check(&engine, &self.proposals, run.scenario.corrupt_count());
        *arena = engine.into_arena();
        result
    }

    /// The pre-heal probe of `run`, when it has one: the same run cut
    /// off just before the first heal; `true` if it was blocked there.
    fn probe(
        &self,
        run: &PlannedRun,
        sim: &SimConfig,
        arena: &mut EngineArena<S::Node>,
    ) -> Option<bool> {
        let cut = (S::DECIDES && run.probe).then(|| first_heal(&run.scenario))??;
        let goal = RunGoal::UntilAllCorrectDecided(cut);
        Some(self.execute(run, sim.clone(), goal, arena).is_err())
    }

    fn outcome(
        &self,
        run: &PlannedRun,
        clean: Time,
        result: Checked,
        probe_blocked: Option<bool>,
    ) -> RunOutcome {
        RunOutcome {
            family: run.family,
            seed: run.seed,
            script: run.scenario.to_string(),
            verdict: classify_run(run_condition::<S>(self.cfg, &run.scenario, clean), result),
            corrupt: run.scenario.corrupt_count(),
            probe_blocked,
        }
    }
}

// ---------------------------------------------------------------------------
// The two runners
// ---------------------------------------------------------------------------

/// The **flat** runner: one run, and its probe, from tick 0.
fn run_flat<S: Stack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arena: &mut EngineArena<S::Node>,
    run: &PlannedRun,
) -> RunOutcome {
    let item = installed_run::<S>(cfg, assign, &run.scenario, run.seed);
    let ctx = RunCtx::<S>::new(cfg, &item);
    let probe_blocked = ctx.probe(run, &item.config, arena);
    let result = ctx.execute(run, item.config, item.goal, arena);
    ctx.outcome(run, item.tag, result, probe_blocked)
}

/// Per-worker state of the forked executor: the stack's prefix sweeper
/// and one flat arena for the probes (truncated separate runs by
/// definition).
struct ForkedWorker<P: Process + Clone> {
    sweeper: PrefixSweeper<P>,
    arena: EngineArena<P>,
}

impl<P: Process + Clone> ForkedWorker<P> {
    fn new() -> Self {
        ForkedWorker {
            sweeper: PrefixSweeper::new(),
            arena: EngineArena::new(),
        }
    }
}

/// The **forked** runner: one variant family through the prefix-sharing
/// executor. The first variant's world serves every variant — the
/// prefix-invariance half of the [`Stack`] contract.
fn run_family_forked<S: Stack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    worker: &mut ForkedWorker<S::Node>,
    group: &[PlannedRun],
) -> Vec<RunOutcome>
where
    S::Node: Clone,
{
    let items: Vec<PrefixItem<Time>> = group
        .iter()
        .map(|run| installed_run::<S>(cfg, assign, &run.scenario, run.seed))
        .collect();
    let ctx = RunCtx::<S>::new(cfg, &items[0]);
    let results = worker.sweeper.run_family(
        &items,
        |_, p, _| ctx.node(p),
        |engine, j| S::check(engine, &ctx.proposals, group[j].scenario.corrupt_count()),
    );
    (group.iter().zip(&items).zip(results))
        .map(|((run, item), result)| {
            let probe_blocked = ctx.probe(run, &item.config, &mut worker.arena);
            ctx.outcome(run, item.tag, result, probe_blocked)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Sweep drivers
// ---------------------------------------------------------------------------

/// Runs the groups `pending` flat, one recycled arena per worker;
/// `sink(g, outcomes)` runs on the worker the moment group `g` finishes.
fn flat_groups<S: Stack, R: Send>(
    plan: &Plan<'_>,
    pending: &[usize],
    sink: impl Fn(usize, Vec<RunOutcome>) -> R + Sync,
) -> Vec<R> {
    parallel_seed_sweep_with(pending.len(), EngineArena::<S::Node>::new, |arena, i| {
        let g = pending[i as usize];
        let runs = plan.group(g).iter();
        let outcomes = runs.map(|run| run_flat::<S>(plan.cfg, &plan.assign, arena, run));
        sink(g, outcomes.collect())
    })
}

/// Like [`flat_groups`] on the prefix-sharing executor: one
/// [`ForkedWorker`] per worker, one [`PrefixSweeper::run_family`] per
/// group.
fn forked_groups<S: Stack, R: Send>(
    plan: &Plan<'_>,
    pending: &[usize],
    sink: impl Fn(usize, Vec<RunOutcome>) -> R + Sync,
) -> Vec<R>
where
    S::Node: Clone,
{
    parallel_seed_sweep_with(pending.len(), ForkedWorker::new, |worker, i| {
        let g = pending[i as usize];
        let seg = run_family_forked::<S>(plan.cfg, &plan.assign, worker, plan.group(g));
        sink(g, seg)
    })
}

/// Executes the scenario groups `pending` of `cfg`'s sweep the way
/// [`falsification_sweep_forked`] does — forked, except Figure 9 (see
/// [`Stack`]) — for it and for the checkpointed driver. Arguments and
/// results as [`flat_groups`].
pub(crate) fn run_groups<R: Send>(
    cfg: &SweepConfig,
    pending: &[usize],
    sink: impl Fn(usize, Vec<RunOutcome>) -> R + Sync,
) -> Vec<R> {
    let plan = Plan::new(cfg);
    match cfg.stack {
        StackKind::Fig8EvtHp => forked_groups::<Fig8Stack, R>(&plan, pending, sink),
        StackKind::Fig9OracleQuorum => flat_groups::<Fig9Stack, R>(&plan, pending, sink),
        StackKind::EvtHpDetector => forked_groups::<DetectorStack, R>(&plan, pending, sink),
        StackKind::ByzTolerant => forked_groups::<ByzStack, R>(&plan, pending, sink),
    }
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
    let plan = Plan::new(cfg);
    let all: Vec<usize> = (0..cfg.scenarios).collect();
    let keep = |_, seg| seg;
    let per_group = match cfg.stack {
        StackKind::Fig8EvtHp => flat_groups::<Fig8Stack, _>(&plan, &all, keep),
        StackKind::Fig9OracleQuorum => flat_groups::<Fig9Stack, _>(&plan, &all, keep),
        StackKind::EvtHpDetector => flat_groups::<DetectorStack, _>(&plan, &all, keep),
        StackKind::ByzTolerant => flat_groups::<ByzStack, _>(&plan, &all, keep),
    };
    aggregate(per_group.into_iter().flatten())
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
    let all: Vec<usize> = (0..cfg.scenarios).collect();
    let per_group = run_groups(cfg, &all, |_, seg| seg);
    aggregate(per_group.into_iter().flatten())
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
/// must hold (asserted by `exp chaos` and the chaos integration tests).
///
/// On the oracle-backed Figure 9 stack the forked execution *is* the
/// flat one (its construction is not prefix-invariant), so its
/// [`ForkStats`] report no sharing.
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
    let (forked, flat, stats) = match cfg.stack {
        StackKind::Fig8EvtHp => replay_group::<Fig8Stack>(cfg, &assign, &group),
        StackKind::Fig9OracleQuorum => {
            let flat = flat_verdicts::<Fig9Stack>(cfg, &assign, &group);
            (flat.clone(), flat, ForkStats::default())
        }
        StackKind::EvtHpDetector => replay_group::<DetectorStack>(cfg, &assign, &group),
        StackKind::ByzTolerant => replay_group::<ByzStack>(cfg, &assign, &group),
    };
    ByzantineReplay {
        scripts: group.iter().map(|r| r.scenario.to_string()).collect(),
        forked,
        flat,
        stats,
    }
}

fn flat_verdicts<S: Stack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    group: &[PlannedRun],
) -> Vec<RunVerdict<()>> {
    let mut arena = EngineArena::new();
    let runs = group.iter();
    runs.map(|run| run_flat::<S>(cfg, assign, &mut arena, run).verdict)
        .collect()
}

/// `group` on the forked runner, then flat, plus the fork accounting.
fn replay_group<S: Stack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    group: &[PlannedRun],
) -> (Vec<RunVerdict<()>>, Vec<RunVerdict<()>>, ForkStats)
where
    S::Node: Clone,
{
    let mut worker = ForkedWorker::new();
    let forked = run_family_forked::<S>(cfg, assign, &mut worker, group);
    let forked = forked.into_iter().map(|o| o.verdict).collect();
    let flat = flat_verdicts::<S>(cfg, assign, group);
    (forked, flat, worker.sweeper.stats)
}
