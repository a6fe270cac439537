//! **`sweep_forked`** — the falsification user's workload:
//! `falsification_sweep_forked` over three stacks in sequence (Figure 8
//! over `◇HP`, the detector alone, the Byzantine-tolerant stack), 60
//! generated scenarios × 8 shared-prefix variants per stack. Hundreds
//! of short arena-warm runs, snapshot/restore at branch points,
//! property classification. Engine, `◇HP` and Figure 8 — the paper's
//! own algorithm — dominate; the log service does nothing. This is
//! where a router/dispatch refactor (ROADMAP 2) must not regress while
//! the `log_*` workloads improve. The sweep driver takes one worker per
//! available core, and every child is pinned to one core, so one worker
//! runs (two workers on two cores spread ± 16 % from repeat to repeat
//! on the reference container, one worker ± 3.5 %).
//!
//! A stack's 60 scenarios run as many small sweeps, each one rotation
//! of the stack's family list (four crash families, six with the
//! Byzantine ones), so every sweep has the same mix. Small and many
//! because host time is read from a floor over repeats of the same
//! work (see [`Floor`]): each sweep call is one timed segment of 10 to
//! 25 ms, and the forty of them repeat some forty times in a run. Not
//! smaller still: at one scenario a call, starting the call's worker
//! thread took 11 % of the floor and 45 % of the median repeat.
//!
//! One setting differs from `SweepConfig::new`, to keep the number
//! about runs and not about which scenarios a seed drew. A run whose
//! environment never comes clean (drop-mode partitions) cannot decide
//! and runs until `decision_margin` after its last fault. At the
//! default margin of 30 000 ticks those few runs took 70 % of the wall
//! and their count — hence the wall — varied by a factor of 1.9
//! between seeds; at 3 000 ticks by ± 18 %; at 500 (decisions land
//! within ≈ 100 ticks of a clean environment, and a later one would
//! fail the liveness check) by ± 6 %.

use std::collections::BTreeSet;

use homonym_chaos::{falsification_sweep_forked, Family, StackKind, SweepConfig, SweepReport};
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::Span;

use crate::common::{derive_seed, time, Budget, Floor};
use crate::probes;
use crate::report::Report;
use crate::trace::{timed, Tracer};

/// Scenarios per stack: a whole number of rotations of either family
/// list.
pub const SCENARIOS: usize = 60;
/// Ticks a consensus run gets to decide once its environment is clean.
pub const DECISION_MARGIN: u64 = 500;
pub const VARIANTS: usize = 8;

struct Inputs {
    configs: Vec<SweepConfig>,
    /// Per config: scenario seeds of the over-threshold family, the
    /// only place a Byzantine demonstration may come from.
    over_threshold: Vec<BTreeSet<u64>>,
}

/// The sweep configurations for `seed`, stack by stack, plus what the
/// checks need to know about the scenarios they will generate.
fn inputs(seed: u64) -> Inputs {
    let base = derive_seed(seed, 6) >> 16;
    let configs: Vec<SweepConfig> = [
        SweepConfig::new(StackKind::Fig8EvtHp, 0),
        SweepConfig::new(StackKind::EvtHpDetector, 0),
        SweepConfig::byzantine(StackKind::ByzTolerant, 0),
    ]
    .into_iter()
    .flat_map(|cfg| {
        let rotation = cfg.families.len();
        assert_eq!(SCENARIOS % rotation, 0, "whole rotations only");
        std::iter::repeat_n(cfg, SCENARIOS / rotation)
    })
    .enumerate()
    .map(|(i, cfg)| {
        let mut cfg = cfg.with_variants(VARIANTS);
        cfg.scenarios = cfg.families.len();
        // Scenario j of a sweep uses base_seed + j: keep the sweeps'
        // ranges (and neighbouring benchmark seeds') apart.
        cfg.base_seed = base + (i * 2 * cfg.scenarios) as u64;
        cfg.decision_margin = Span::from_ticks(DECISION_MARGIN);
        cfg
    })
    .collect();
    let over_threshold = configs
        .iter()
        .map(|cfg| {
            let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
            (0..cfg.scenarios)
                .filter_map(|i| {
                    let family = cfg.families[i % cfg.families.len()];
                    let scenario_seed = cfg.base_seed + i as u64;
                    // Generating and validating every base scenario is
                    // what a user does before launching a long sweep.
                    family
                        .generate(&assign, scenario_seed)
                        .validate()
                        .expect("generated scenarios validate");
                    (family == Family::OverThresholdByzantine).then_some(scenario_seed)
                })
                .collect()
        })
        .collect();
    Inputs {
        configs,
        over_threshold,
    }
}

/// Fatal checks on one stack's report; returns the runs that produced
/// a safety or liveness counterexample.
fn check(
    cfg: &SweepConfig,
    over_threshold: &BTreeSet<u64>,
    r: &SweepReport,
    report: &mut Report,
) -> u64 {
    let stack = cfg.stack.name();
    report.check(r.runs == cfg.scenarios * cfg.variants, || {
        format!(
            "{stack}: {} runs, expected {}",
            r.runs,
            cfg.scenarios * cfg.variants
        )
    });
    report.check(r.safety_counterexamples.is_empty(), || {
        format!(
            "{stack}: safety counterexample {:?}",
            r.safety_counterexamples.first()
        )
    });
    report.check(r.liveness_counterexamples.is_empty(), || {
        format!(
            "{stack}: liveness counterexample {:?}",
            r.liveness_counterexamples.first()
        )
    });
    let stray = r
        .byzantine_demonstrated
        .iter()
        .find(|c| !over_threshold.contains(&c.seed));
    report.check(stray.is_none(), || {
        format!("{stack}: Byzantine demonstration outside the over-threshold family: {stray:?}")
    });
    (r.safety_counterexamples.len() + r.liveness_counterexamples.len()) as u64
}

/// One stack's verdict counts summed over its sweeps.
#[derive(Default)]
struct StackTotals {
    runs: usize,
    liveness_held: usize,
    liveness_excused: usize,
    byzantine_survived: usize,
    byzantine_demonstrated: usize,
    probes: usize,
}

/// Runs the sweeps (a span each when tracing), applies the checks and
/// records the simulated results; returns each sweep call's seconds.
fn sweep_all(inputs: &Inputs, report: &mut Report, mut tracer: Option<&mut Tracer>) -> Vec<f64> {
    let (mut runs, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut totals: Vec<(&'static str, StackTotals)> = Vec::new();
    for (cfg, over) in inputs.configs.iter().zip(&inputs.over_threshold) {
        let (r, wall) = timed(
            &mut tracer,
            "chaos.sweep.falsification_sweep_forked",
            || falsification_sweep_forked(cfg),
        );
        walls.push(wall);
        failed += check(cfg, over, &r, report);
        runs += r.runs as u64;
        let stack = cfg.stack.name();
        if totals.last().is_none_or(|(name, _)| *name != stack) {
            totals.push((stack, StackTotals::default()));
        }
        let t = &mut totals.last_mut().expect("pushed above").1;
        t.runs += r.runs;
        t.liveness_held += r.liveness_held;
        t.liveness_excused += r.liveness_excused;
        t.byzantine_survived += r.byzantine_survived;
        t.byzantine_demonstrated += r.byzantine_demonstrated.len();
        t.probes += r.probes;
    }
    for (stack, t) in &totals {
        // Verdict counts are simulated results: they must repeat.
        report.sim(
            &format!("check.{stack}.liveness_held"),
            t.liveness_held as f64,
        );
        report.sim(
            &format!("check.{stack}.byzantine_survived"),
            t.byzantine_survived as f64,
        );
        report.note(format!(
            "{stack}: {} runs, liveness held {} excused {}, byzantine survived {} demonstrated {}, probes {}",
            t.runs,
            t.liveness_held,
            t.liveness_excused,
            t.byzantine_survived,
            t.byzantine_demonstrated,
            t.probes
        ));
    }
    report.sim(
        "served_share",
        (runs - failed.min(runs)) as f64 / runs.max(1) as f64,
    );
    report.attempted = runs;
    report.failed = failed;
    walls
}

/// The untraced measurement: the sweeps repeated while `seconds` last,
/// host time read from the per-sweep floor.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let budget = Budget::new(seconds);
    let mut floor = Floor::default();
    let mut setup_s = f64::INFINITY;
    let mut walls = Vec::new();
    while budget.more(floor.repeats()) {
        let (inputs, s) = time(|| inputs(seed));
        setup_s = setup_s.min(s);
        let mut facts = Report::default();
        let sweeps = sweep_all(&inputs, &mut facts, None);
        walls.push(sweeps.iter().sum());
        report.fold_repeat(floor.repeats(), facts);
        floor.add(&sweeps);
    }
    report.host("setup_s", setup_s);
    report.host("ops_per_s", report.attempted as f64 / floor.wall_s());
    report.host("wall_s", floor.wall_s());
    report.note(probes::floor_note(&floor, &walls));
}

/// The traced run: the same sweeps with a span around each call,
/// repeated while `seconds` last, then the probes.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    untraced_wall_s: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let inputs = inputs(seed);
    let budget = Budget::new(seconds);
    let mut floor = Floor::default();
    let mut walls = Vec::new();
    while budget.more(floor.repeats()) {
        let mut facts = Report::default();
        let sweeps = sweep_all(&inputs, &mut facts, Some(tracer));
        walls.push(sweeps.iter().sum());
        report.fold_repeat(floor.repeats(), facts);
        floor.add(&sweeps);
    }
    for stack in [
        StackKind::Fig8EvtHp,
        StackKind::EvtHpDetector,
        StackKind::ByzTolerant,
    ] {
        let seconds: f64 = inputs
            .configs
            .iter()
            .zip(floor.segments())
            .filter(|(cfg, _)| cfg.stack == stack)
            .map(|(_, s)| s)
            .sum();
        report.layer(
            &format!("chaos.sweep.runs_per_s.{}", stack.name()),
            (SCENARIOS * VARIANTS) as f64 / seconds,
        );
    }
    let traced_wall = floor.wall_s();
    // The sweep driver has no recorder or classifier hook to switch
    // on, so its traced wall differs from the untraced one by the
    // spans alone.
    report.layer("obs.recorder.overhead_ratio", traced_wall / untraced_wall_s);
    report.note(format!(
        "floor walls: untraced {untraced_wall_s:.3} s, traced {traced_wall:.3} s, {} sweep worker(s); traced {}",
        std::thread::available_parallelism().map_or(1, usize::from),
        probes::floor_note(&floor, &walls)
    ));
    probes::fig8_runs(seed, report, tracer);
    let ratio = probes::forked_over_flat(seed, report, tracer);
    report.layer("chaos.sweep.forked_over_flat", ratio);
}
