//! A scenario **atlas**: an exhaustive split-brain × heal-time grid swept
//! through the prefix-sharing executor, plus a Byzantine counterexample
//! replayed as a rendered timeline story.
//!
//! 250 seeded split-brain bases × 20 heal times = 5 000 scenarios of the
//! full Figure 6 + Figure 8 stack. Every scenario in a base's column
//! shares the pre-partition prefix (same seed, same groups, same start),
//! so one [`PrefixSweeper::run_family`] per base runs its warm-up
//! **once** and forks the heal variants off a snapshot — the divergence
//! times are computed from the configs, nothing is guessed. The bases
//! fan out across cores, one sweeper per worker. The flat executor would
//! re-run every prefix from tick 0; the printed run accounting shows
//! what the forks saved.
//!
//! The payoff is rendered with the `homonym-obs` toolkit:
//!
//! * a [`VerdictMatrix`] — per heal-time column, how many runs decided
//!   (liveness held), how many were excused, and — expected to be zero
//!   everywhere — how many violated safety or required liveness;
//! * a [`percentile_table`] of end-of-run tick distributions per heal
//!   column (later heals hold decisions hostage for longer);
//! * a **counterexample story**: a deterministic Byzantine sweep finds a
//!   crash-only stack falling to a hidden equivocator, and the same
//!   attack replayed on the Byzantine-tolerant stack is rendered as
//!   per-process ASCII and Mermaid timelines — the equivocation window
//!   and the surviving quorum certificates as visible events.
//!
//! Run with `cargo run --release --example scenario_atlas`; shrink with
//! `ATLAS_BASES=/ATLAS_HEALS=/ATLAS_BYZ_SCENARIOS=` for a quick look
//! (CI smoke runs a shrunken grid and asserts the Mermaid timeline is
//! emitted).

use homonym::chaos::sweep::{clean_instant, fig8_node, hps_base, Fig8Node};
use homonym::chaos::{
    byzantine_story, falsification_sweep, FaultClause, GstPlacement, PartitionMode, Scenario,
    StackKind, SweepConfig,
};
use homonym::obs::{percentile_table, Histogram, VerdictMatrix};
use homonym::prelude::*;
use homonym::sim::sweep::{
    parallel_seed_sweep_with, ForkStats, PrefixItem, PrefixSweeper, RunGoal,
};
use homonym::sim::Engine;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One base's split: a deterministic 4/4 cut of `0..n`, rotated by the
/// seed so bases exercise different group shapes.
fn split_groups(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let rot = (seed as usize) % n;
    let procs: Vec<usize> = (0..n).map(|p| (p + rot) % n).collect();
    vec![procs[..n / 2].to_vec(), procs[n / 2..].to_vec()]
}

fn main() {
    let bases = env_or("ATLAS_BASES", 250);
    let heals = env_or("ATLAS_HEALS", 20);
    let n = 8;
    let t = (n - 1) / 2;
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

    // The grid: base b contributes `heals` scenarios sharing everything
    // up to the partition start; column j heals at start + 20 + 10·j.
    let family = |b: u64| -> Vec<PrefixItem<(usize, Time)>> {
        let seed = 1_000 + b;
        let start = 40 + seed % 60;
        let groups = split_groups(n, seed);
        (0..heals as u64)
            .map(|j| {
                let scenario = Scenario::new(format!("atlas-split#{seed}"), n)
                    .with_clause(FaultClause::Partition {
                        groups: groups.clone(),
                        start: Time::from_ticks(start),
                        heal_at: Time::from_ticks(start + 20 + 10 * j),
                        mode: PartitionMode::QueueUntilHeal,
                    })
                    .with_gst(GstPlacement::AfterLastFault {
                        margin: Span::from_ticks(10),
                    });
                let sim = SimConfig::new(
                    IdentityAssignment::round_robin(n, 3),
                    FailureSchedule::none(n),
                    hps_base(),
                )
                .with_seed(seed);
                let sim = scenario.install(sim).expect("atlas scenarios validate");
                let clean = clean_instant(&sim, &scenario);
                PrefixItem {
                    config: sim,
                    goal: RunGoal::UntilAllCorrectDecided(clean + Span::from_ticks(20_000)),
                    tag: (j as usize, clean),
                }
            })
            .collect()
    };

    let total = bases * heals;
    println!("## scenario atlas: {bases} split-brain bases × {heals} heal times = {total} runs\n");

    let started = std::time::Instant::now();
    let per_base = parallel_seed_sweep_with(bases, PrefixSweeper::new, |sweeper, b| {
        let items = family(b);
        sweeper.stats = ForkStats::default();
        let results = sweeper.run_family(
            &items,
            |_i, p, _id| -> Fig8Node { fig8_node(proposals[p], n, t) },
            |engine: &mut Engine<Fig8Node>, i| {
                let (column, clean) = items[i].tag;
                let sched = engine.config().sched.clone();
                let result =
                    check_consensus(&engine.outcome(proposals.clone()), &sched).map(|_| ());
                let verdict = classify_run(RunCondition::clean_from(clean), result);
                (column, verdict, engine.now().ticks())
            },
        );
        (results, sweeper.stats)
    });
    let elapsed = started.elapsed();
    let mut stats = ForkStats::default();
    let mut results = Vec::with_capacity(total);
    for (base_results, base_stats) in per_base {
        results.extend(base_results);
        stats.runs += base_stats.runs;
        stats.forked += base_stats.forked;
        stats.snapshots += base_stats.snapshots;
        stats.shared_ticks += base_stats.shared_ticks;
    }

    // The verdict matrix: one row per heal column, rendered by the obs
    // toolkit; end-of-run tick distributions feed the percentile table.
    let cols = ["decided", "excused", "liveness-violated", "SAFETY-violated"];
    let mut matrix = VerdictMatrix::new(cols.iter().map(|c| (*c).to_string()).collect());
    let mut end_ticks: Vec<Histogram> = vec![Histogram::new(); heals];
    let mut violated = 0usize;
    let mut flat_ticks = 0u64;
    for (j, verdict, end) in &results {
        flat_ticks += end;
        end_ticks[*j].add(*end);
        let col = match verdict {
            RunVerdict::Pass(()) => cols[0],
            RunVerdict::LivenessExcused(_) => cols[1],
            RunVerdict::LivenessViolated(_) => {
                violated += 1;
                cols[2]
            }
            RunVerdict::SafetyViolated(_) => {
                violated += 1;
                cols[3]
            }
            // The atlas sweeps crash scenarios only; a Byzantine verdict
            // here would mean a corrupt process leaked into the grid.
            RunVerdict::ByzantineExpected(v) => panic!("no corrupt processes in the atlas: {v}"),
        };
        matrix.add(&format!("heal start+{}", 20 + 10 * j), col, 1);
    }
    println!("{}", matrix.render_markdown());
    assert_eq!(violated, 0, "the atlas found a counterexample!");

    println!("\n## end-of-run ticks per heal column\n");
    let labels: Vec<String> = (0..heals)
        .map(|j| format!("start+{}", 20 + 10 * j))
        .collect();
    let entries: Vec<(&str, &Histogram)> = labels
        .iter()
        .map(String::as_str)
        .zip(end_ticks.iter())
        .collect();
    println!("{}", percentile_table(&entries));

    println!("\n## tree vs flat accounting\n");
    println!("flat executor:  {total} full runs, ~{flat_ticks} ticks re-executed from tick 0");
    println!(
        "prefix tree:    {} leaf runs, {} forked from {} snapshots, {} shared ticks never re-run",
        stats.runs, stats.forked, stats.snapshots, stats.shared_ticks
    );
    println!(
        "tick volume:    {} of {} (~{:.0}% saved), wall clock {elapsed:.2?}",
        flat_ticks - stats.shared_ticks,
        flat_ticks,
        100.0 * stats.shared_ticks as f64 / flat_ticks.max(1) as f64
    );

    // ----------------------------------------------------------------
    // The counterexample story: a deterministic Byzantine sweep fells
    // the crash-only Figure 8 stack (hidden equivocators inside the
    // `f < n/3` envelope), and the same attack replayed on the
    // Byzantine-tolerant stack renders as a per-process timeline.
    // ----------------------------------------------------------------
    let byz_scenarios = env_or("ATLAS_BYZ_SCENARIOS", 12);
    let fig8_cfg = SweepConfig::byzantine(StackKind::Fig8EvtHp, byz_scenarios);
    let report = falsification_sweep(&fig8_cfg);
    let cex = report
        .byzantine_demonstrated
        .iter()
        .find(|c| c.family != "over-threshold-byzantine")
        .expect("a within-envelope attack must fell the crash-only stack");
    println!(
        "\n## counterexample story: family={} seed={}\n\nviolation: {}\nscript: {}",
        cex.family, cex.seed, cex.violation, cex.script
    );
    let cfg = SweepConfig::byzantine(StackKind::ByzTolerant, byz_scenarios);
    let story = byzantine_story(&cfg, cex);
    assert!(
        !story.violated,
        "the tolerant stack fell to a within-envelope attack: {}",
        story.script
    );
    assert!(
        story.mermaid.contains("gantt") && story.mermaid.lines().count() > 3,
        "the Mermaid timeline came out empty:\n{}",
        story.mermaid
    );
    println!("\n{}", story.ascii);
    println!("```mermaid\n{}```", story.mermaid);
    println!(
        "the tolerant stack survived: {} certificates formed (p50 size {}), \
         {} attack firings visible in the window, {} processes decided",
        story.stats.certificate_sizes.count(),
        story.stats.certificate_sizes.percentile(50),
        story.stats.attacks_fired,
        story.stats.decided,
    );
}
