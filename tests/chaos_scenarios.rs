//! Full-stack integration of the chaos subsystem: adversarial scenarios
//! driving the real Figure 6 + Figure 8 pipeline, under the same
//! determinism guarantees as fault-free runs.

use homonym::chaos::session::SessionBuilder;
use homonym::chaos::sweep::{
    falsification_sweep, falsification_sweep_forked, fig8_node, replay_byzantine_counterexample,
    StackKind, SweepConfig,
};
use homonym::chaos::{FaultClause, GstPlacement, PartitionMode, Scenario};
use homonym::consensus::{classify_fig8, Fig8Msg};
use homonym::detectors::evt_hp::EvtHpMsg;
use homonym::prelude::*;
use homonym::sim::reference::ReferenceEngine;

fn classify(msg: &Either<EvtHpMsg, Fig8Msg>) -> &'static str {
    match msg {
        Either::L(_) => "detector",
        Either::R(m) => classify_fig8(m),
    }
}

/// An 8-process 4/4 split-brain: neither half can gather the `n − t = 5`
/// replies Figure 8 waits for, so termination is impossible before the
/// heal.
fn even_split(n: usize, heal: u64) -> Scenario {
    Scenario::new("even-split", n)
        .with_clause(FaultClause::Partition {
            groups: vec![(0..n / 2).collect(), (n / 2..n).collect()],
            start: Time::from_ticks(10),
            heal_at: Time::from_ticks(heal),
            mode: PartitionMode::QueueUntilHeal,
        })
        .with_gst(GstPlacement::AfterLastFault {
            margin: Span::from_ticks(15),
        })
}

fn stack_builder(scenario: &Scenario, n: usize, seed: u64, deadline: Time) -> SessionBuilder {
    SessionBuilder::new(n, 3)
        .with_seed(seed)
        .with_scenario(scenario.clone())
        .with_trace(500_000)
        .with_deadline(deadline)
}

type StackRun = (Recorder, Vec<Option<(Time, u64)>>, Metrics);

fn run_stack(scenario: &Scenario, n: usize, seed: u64, deadline: Time) -> StackRun {
    let mut session = stack_builder(scenario, n, seed, deadline).fig8();
    session.engine_mut().set_classifier(classify);
    session.run();
    let engine = session.engine();
    (
        engine.trace().expect("enabled").clone(),
        engine.decisions().to_vec(),
        engine.metrics().clone(),
    )
}

/// The same Figure 6 + Figure 8 run on the naive reference interpreter
/// (Figure 8 processes halt as they decide, so the first-decision goal
/// stops both at the same event).
fn run_stack_reference(scenario: &Scenario, n: usize, seed: u64, deadline: Time) -> StackRun {
    let cfg = stack_builder(scenario, n, seed, deadline).sim_config();
    let t = (n - 1) / 2;
    let mut reference = ReferenceEngine::new(cfg, |p, _| fig8_node(100 + p as u64, n, t));
    reference.set_classifier(classify);
    reference.enable_trace(500_000);
    reference.run_with(deadline, ReferenceEngine::all_correct_decided);
    (
        reference.trace().expect("enabled").clone(),
        reference.decisions().to_vec(),
        reference.metrics().clone(),
    )
}

/// The reference-interpreter equality extends to adversarial runs: same
/// seed + same scenario script ⇒ byte-identical trace, decisions and
/// metrics on the engine and the interpreter, across scenario shapes
/// (queued partition, drop partition + crash, churn + overlay).
#[test]
fn scenario_runs_dispatch_identically_on_both_hot_paths() {
    let n = 8;
    let scenarios = [
        even_split(n, 120),
        Scenario::new("drop-split-crash", n)
            .with_clause(FaultClause::Partition {
                groups: vec![vec![0, 1, 2], (3..n).collect()],
                start: Time::from_ticks(5),
                heal_at: Time::from_ticks(90),
                mode: PartitionMode::DropWhilePartitioned,
            })
            .with_clause(FaultClause::Crash {
                process: 7,
                at: Time::from_ticks(40),
            })
            .with_gst(GstPlacement::AfterLastFault {
                margin: Span::from_ticks(10),
            }),
        Scenario::new("churn-overlay", n)
            .with_clause(FaultClause::Churn {
                process: 2,
                down: Time::from_ticks(15),
                up: Time::from_ticks(60),
            })
            .with_clause(FaultClause::LinkOverlay {
                from: vec![0, 1],
                to: vec![4, 5],
                start: Time::from_ticks(10),
                end: Time::from_ticks(80),
                loss_percent: 40,
                extra_delay: Span::from_ticks(6),
            })
            .with_gst(GstPlacement::At(Time::from_ticks(100))),
    ];
    for scenario in &scenarios {
        for seed in [3u64, 19] {
            let deadline = Time::from_ticks(40_000);
            let (trace, decisions, metrics) = run_stack(scenario, n, seed, deadline);
            let (trace_ref, decisions_ref, metrics_ref) =
                run_stack_reference(scenario, n, seed, deadline);
            assert_eq!(
                decisions, decisions_ref,
                "decisions diverged for seed {seed} under {scenario}"
            );
            assert_eq!(
                trace, trace_ref,
                "dispatch order diverged for seed {seed} under {scenario}"
            );
            assert_eq!(metrics, metrics_ref, "seed {seed} under {scenario}");
            assert!(!trace.events().is_empty());
        }
    }
}

/// Liveness correctly fails pre-heal and holds post-heal: the truncated
/// run violates termination (excused — the environment was never clean
/// inside the window), the full run satisfies every consensus property.
#[test]
fn liveness_fails_pre_heal_and_holds_post_heal() {
    let n = 8;
    let heal = 150;
    let scenario = even_split(n, heal);
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

    // Truncated run: cut just before the heal.
    let sched = FailureSchedule::none(n); // `even_split` crashes no one
    let (_, decisions_pre, _) = run_stack(&scenario, n, 5, Time::from_ticks(heal - 1));
    let pre = check_consensus(
        &ConsensusOutcome {
            proposals: proposals.clone(),
            decisions: decisions_pre,
        },
        &sched,
    );
    let pre_verdict = classify_run(RunCondition::never_clean(), pre);
    match &pre_verdict {
        RunVerdict::LivenessExcused(v) => {
            assert_eq!(v.property, "termination");
        }
        other => panic!("expected an excused termination failure pre-heal, got {other:?}"),
    }

    // Full run: generous post-heal window.
    let (_, decisions_full, _) = run_stack(&scenario, n, 5, Time::from_ticks(40_000));
    let full = check_consensus(
        &ConsensusOutcome {
            proposals,
            decisions: decisions_full,
        },
        &sched,
    );
    let clean = scenario.last_fault_end() + Span::from_ticks(15);
    let full_verdict = classify_run(RunCondition::clean_from(clean), full);
    assert!(
        matches!(full_verdict, RunVerdict::Pass(_)),
        "post-heal run must satisfy all consensus properties, got {full_verdict:?}"
    );
}

/// A small end-to-end falsification sweep through the meta-crate: no
/// safety violations, no liveness violations on clean runs, and at least
/// one pre-heal/post-heal demonstration.
#[test]
fn falsification_sweep_smoke() {
    let mut cfg = SweepConfig::new(StackKind::Fig8EvtHp, 24);
    cfg.probe_every = 4;
    let report = falsification_sweep(&cfg);
    assert_eq!(report.runs, 24);
    assert!(
        !report.falsified(),
        "sweep falsified the stack: {:?}",
        report.first_counterexample()
    );
    assert!(
        report.probe_demonstrations >= 1,
        "expected at least one pre-heal blocked → post-heal decided demonstration: {report:?}"
    );
    assert!(report.liveness_held > 0);
}

/// Two executions of the same sweep produce identical reports: the
/// per-worker engine arenas recycle allocations only — every scenario
/// run stays a pure function of its config and seed, however the seeds
/// are sliced across workers.
#[test]
fn sweep_report_is_deterministic() {
    for stack in [StackKind::Fig9OracleQuorum, StackKind::EvtHpDetector] {
        let mut cfg = SweepConfig::new(stack, 12);
        cfg.probe_every = 3;
        assert_eq!(
            falsification_sweep(&cfg),
            falsification_sweep(&cfg),
            "sweep nondeterminism on {stack:?}"
        );
    }
}

/// The prefix-sharing executor is **verdict-identical** to the flat
/// executor on every stack: shared-prefix variant families run through
/// snapshot-at-branch-point + restore-per-child must classify exactly
/// the runs the one-engine-per-scenario baseline classifies — same
/// safety violations, same liveness verdicts, same excusals, same probe
/// outcomes, scenario for scenario.
#[test]
fn forked_and_flat_executors_produce_identical_reports() {
    for stack in [
        StackKind::Fig8EvtHp,
        StackKind::EvtHpDetector,
        StackKind::Fig9OracleQuorum,
        StackKind::ByzTolerant,
    ] {
        let mut cfg = SweepConfig::new(stack, 6).with_variants(4);
        cfg.probe_every = 3;
        let flat = falsification_sweep(&cfg);
        let forked = falsification_sweep_forked(&cfg);
        assert_eq!(flat.runs, 24, "{}", stack.name());
        assert_eq!(flat, forked, "executors diverged on {}", stack.name());
        assert!(
            !flat.falsified(),
            "{}: {:?}",
            stack.name(),
            flat.first_counterexample()
        );
    }
}

/// Flat and forked sweeps share one run recipe per stack, so their
/// equality cannot see a recipe that is wrong on both sides (margin,
/// network, lossy excusal, claim gating, probe policy). These reports
/// and fingerprints were recorded before the per-stack runners were
/// unified and must never move: `(runs, liveness held, excused, safety
/// cex, liveness cex, byzantine demonstrated, byzantine survived,
/// probes, probe demonstrations, probes decided early)` of a 12-scenario
/// crash sweep with 2 variants and a probe every 3rd scenario, and of
/// the default 12-scenario Byzantine sweep.
///
/// One row has moved since, because the algorithm did and not the
/// recipe: `ByzQuorumConsensus` gained its coordination step and the
/// round-skip rule, and the three crash-sweep runs of the tolerant stack
/// that used to be excused (undecided at the deadline under a lossy
/// schedule) now decide — liveness held 21 → 24, excused 3 → 0. Its
/// Byzantine row and the other stacks' rows are the original recording.
///
/// The eight fingerprints have moved once, all together, because the
/// codec did and not the recipe: a fingerprint hashes the
/// `homonym_core::wire` encoding of the configuration, and that codec
/// now writes integers as varints (container format 2). The same fields
/// are hashed in the same order, and no count row moved with them.
#[test]
fn sweep_recipes_are_pinned_per_stack() {
    type Counts = [usize; 10];
    const PINNED: [(StackKind, u64, Counts, u64, Counts); 4] = [
        (
            StackKind::Fig8EvtHp,
            0xd682_58cf_bf38_0e95,
            [24, 21, 3, 0, 0, 0, 0, 4, 3, 0],
            0x4668_2e81_6470_cb14,
            [12, 5, 1, 0, 0, 2, 4, 0, 0, 0],
        ),
        (
            StackKind::Fig9OracleQuorum,
            0x043a_2e72_a7e3_7899,
            [24, 18, 6, 0, 0, 0, 0, 4, 3, 0],
            0x62cb_091e_b5f1_8ffe,
            [12, 5, 1, 0, 0, 5, 1, 0, 0, 0],
        ),
        (
            StackKind::EvtHpDetector,
            0xd3ea_4058_d10e_f089,
            [24, 24, 0, 0, 0, 0, 0, 0, 0, 0],
            0x37f7_9b0b_d860_7bc4,
            [12, 6, 0, 0, 0, 5, 1, 0, 0, 0],
        ),
        (
            StackKind::ByzTolerant,
            0x4b57_841e_155f_5d05,
            [24, 24, 0, 0, 0, 0, 0, 4, 4, 0],
            0x3408_8027_27e1_6ab4,
            [12, 5, 1, 0, 0, 0, 6, 0, 0, 0],
        ),
    ];
    for (stack, crash_fingerprint, crash_counts, byz_fingerprint, byz_counts) in PINNED {
        let mut crash = SweepConfig::new(stack, 12).with_variants(2);
        crash.probe_every = 3;
        let byzantine = SweepConfig::byzantine(stack, 12);
        for (cfg, fingerprint, counts) in [
            (&crash, crash_fingerprint, crash_counts),
            (&byzantine, byz_fingerprint, byz_counts),
        ] {
            assert_eq!(cfg.fingerprint(), fingerprint, "{}", stack.name());
            let r = falsification_sweep_forked(cfg);
            let got = [
                r.runs,
                r.liveness_held,
                r.liveness_excused,
                r.safety_counterexamples.len(),
                r.liveness_counterexamples.len(),
                r.byzantine_demonstrated.len(),
                r.byzantine_survived,
                r.probes,
                r.probe_demonstrations,
                r.probe_decided_early,
            ];
            assert_eq!(got, counts, "{} {:?}", stack.name(), cfg.families);
        }
    }
}

/// Variant expansion preserves the flat executor's semantics: with
/// `variants == 1` the planned run list (and therefore the report) is
/// exactly the historical single-scenario sweep, on both executors.
#[test]
fn single_variant_sweeps_match_on_both_executors() {
    let mut cfg = SweepConfig::new(StackKind::EvtHpDetector, 9);
    cfg.probe_every = 0;
    let flat = falsification_sweep(&cfg);
    assert_eq!(flat.runs, 9);
    assert_eq!(flat, falsification_sweep_forked(&cfg));
}

/// The reference-interpreter equality extends to **Byzantine** runs:
/// same seed + same scenario (equivocation plus a crash plus a selective
/// suppressor) ⇒ byte-identical trace, decisions and metrics on the
/// engine and the interpreter for the full Figure 6 + Figure 8 stack,
/// with the attack demonstrably active (forged or suppressed copies in
/// the metrics).
#[test]
fn byzantine_runs_dispatch_identically_on_both_hot_paths() {
    let n = 8;
    let scenario = Scenario::new("byz-paths", n)
        .with_clause(FaultClause::Byzantine {
            attack: Attack::Equivocate,
            sources: vec![1],
            victims: vec![0, 3, 5],
            start: Time::from_ticks(8),
            until: Time::MAX,
        })
        .with_clause(FaultClause::Byzantine {
            attack: Attack::SelectiveSend,
            sources: vec![6],
            victims: vec![2],
            start: Time::from_ticks(20),
            until: Time::from_ticks(300),
        })
        .with_clause(FaultClause::Crash {
            process: 7,
            at: Time::from_ticks(40),
        })
        .with_gst(GstPlacement::At(Time::from_ticks(60)));
    for seed in [2u64, 23] {
        let deadline = Time::from_ticks(20_000);
        let (trace, decisions, metrics) = run_stack(&scenario, n, seed, deadline);
        assert_eq!(
            (trace, decisions, metrics.clone()),
            run_stack_reference(&scenario, n, seed, deadline),
            "engine and interpreter diverged under Byzantine attack, seed {seed}"
        );
        assert!(
            metrics.copies_forged > 0,
            "the equivocator never forged a copy (seed {seed}): {metrics:?}"
        );
        assert!(
            metrics.copies_suppressed > 0,
            "the suppressor never dropped a copy (seed {seed}): {metrics:?}"
        );
    }
}

/// A small Byzantine-mode sweep through the meta-crate: the corrupt
/// families must demonstrate counterexamples against the crash-only
/// stack (never falsify the implementation), the crash families keep
/// their clean verdicts, and the whole report is deterministic.
#[test]
fn byzantine_sweep_demonstrates_counterexamples_without_falsifying() {
    let cfg = SweepConfig::byzantine(StackKind::Fig8EvtHp, 20);
    let report = falsification_sweep(&cfg);
    assert_eq!(report.runs, 20);
    assert!(
        !report.falsified(),
        "Byzantine demonstrations must not classify as falsifications: {:?}",
        report.first_counterexample()
    );
    assert!(
        !report.byzantine_demonstrated.is_empty(),
        "no attack landed on the crash-only stack: {report:?}"
    );
    assert!(
        report.liveness_held > 0,
        "the crash-only (clean) subset vanished: {report:?}"
    );
    // Demonstrations are replayable coordinates into Byzantine families.
    for cex in &report.byzantine_demonstrated {
        assert!(
            cex.family == "hidden-equivocator"
                || cex.family == "corrupt-minority-homonyms"
                || cex.family == "over-threshold-byzantine",
            "demonstration from a crash family: {cex:?}"
        );
        assert!(
            cex.script.contains("byz["),
            "script lost the attack: {cex:?}"
        );
    }
    assert_eq!(report, falsification_sweep(&cfg), "sweep nondeterminism");
}

/// Counterexamples found under fault-window variant expansion replay
/// the **exact falsified variant**, not the family base: the replay
/// re-locates the scenario by its printed script, so variant 0 of the
/// attack-variation family reproduces the original violation.
#[test]
fn replay_relocates_variant_counterexamples() {
    let cfg = SweepConfig::byzantine(StackKind::Fig8EvtHp, 6).with_variants(3);
    let report = falsification_sweep(&cfg);
    assert_eq!(report.runs, 18);
    let cex = report
        .first_demonstration()
        .expect("a corrupt family must land within 18 runs");
    let replay = replay_byzantine_counterexample(&cfg, cex, 4);
    assert_eq!(
        replay.scripts[0], cex.script,
        "replay must rebuild the falsified variant, not the base"
    );
    assert!(replay.verdicts_match());
    assert!(
        replay.forked[0].violation().is_some(),
        "the exact falsified variant must reproduce its violation"
    );
}

/// The Byzantine-tolerant stack under the full Byzantine rotation: the
/// tolerance claim is live on every `f < n/3` run, so the sweep must
/// report **zero** counterexamples of any kind (within-envelope attacks
/// are survived, never excused), while any demonstrated fall comes from
/// the over-threshold family alone — and the whole report stays
/// deterministic.
#[test]
fn tolerant_stack_byzantine_sweep_asserts_the_claim() {
    let cfg = SweepConfig::byzantine(StackKind::ByzTolerant, 18);
    let report = falsification_sweep(&cfg);
    assert_eq!(report.runs, 18);
    assert!(
        !report.falsified(),
        "the tolerant stack fell inside its envelope: {:?}",
        report.first_counterexample()
    );
    assert!(
        report.byzantine_survived > 0,
        "no within-envelope attack was survived — the claim was never exercised: {report:?}"
    );
    for cex in &report.byzantine_demonstrated {
        assert_eq!(
            cex.family, "over-threshold-byzantine",
            "demonstrated fall inside the `n > 3f` envelope: {cex:?}"
        );
    }
    assert_eq!(report, falsification_sweep(&cfg), "sweep nondeterminism");
}

/// A counterexample that felled the crash-only Figure 8 stack (PR 5's
/// demonstration shape), replayed **mid-run** against the tolerant
/// stack: the honest prefix is snapshotted and re-forked across attack
/// variations exactly as in the crash-stack replay, but every variation
/// stays inside the `f < n/3` envelope — so the tolerant stack must
/// survive all of them, with forked verdicts equal to flat re-execution.
#[test]
fn tolerant_stack_survives_crash_stack_counterexamples() {
    let fig8_cfg = SweepConfig::byzantine(StackKind::Fig8EvtHp, 12);
    let report = falsification_sweep(&fig8_cfg);
    let cex = report
        .byzantine_demonstrated
        .iter()
        .find(|c| c.family != "over-threshold-byzantine")
        .expect("a within-envelope attack must land within 12 scenarios");
    let cfg = SweepConfig::byzantine(StackKind::ByzTolerant, 12);
    let replay = replay_byzantine_counterexample(&cfg, cex, 5);
    assert_eq!(replay.scripts.len(), 5);
    assert_eq!(
        replay.scripts[0], cex.script,
        "replay must rebuild the exact falsified scenario"
    );
    assert!(
        replay.verdicts_match(),
        "tolerant-stack forked replay diverged from flat re-execution:\nforked: {:?}\nflat: {:?}",
        replay.forked,
        replay.flat
    );
    assert_eq!(
        replay.still_falsified(),
        0,
        "the tolerant stack fell to a within-envelope attack it must survive: {:?}",
        replay.forked
    );
    assert!(
        replay.stats.forked > 0,
        "honest prefix never shared on the tolerant stack: {:?}",
        replay.stats
    );
}

/// Mid-run counterexample replay: the first demonstrated counterexample
/// is re-forked across attack variations from a snapshot taken just
/// before the equivocation window, and the forked verdicts must equal
/// flat re-execution — with the honest prefix actually shared, on both
/// sharable stacks.
#[test]
fn byzantine_replay_forks_match_flat_reexecution() {
    for stack in [StackKind::Fig8EvtHp, StackKind::EvtHpDetector] {
        let cfg = SweepConfig::byzantine(stack, 10);
        let report = falsification_sweep(&cfg);
        let cex = report
            .first_demonstration()
            .unwrap_or_else(|| panic!("{}: no demonstration in 10 scenarios", stack.name()));
        let replay = replay_byzantine_counterexample(&cfg, cex, 5);
        assert_eq!(replay.scripts.len(), 5, "{}", stack.name());
        assert!(
            replay.verdicts_match(),
            "{}: forked replay diverged from flat re-execution:\nforked: {:?}\nflat: {:?}",
            stack.name(),
            replay.forked,
            replay.flat
        );
        assert!(
            replay.stats.forked > 0,
            "{}: honest prefix never shared: {:?}",
            stack.name(),
            replay.stats
        );
        // Variant 0 is the original counterexample: its damage must
        // reproduce from the fork.
        assert!(
            replay.forked[0].violation().is_some(),
            "{}: the original attack no longer falsifies on replay",
            stack.name()
        );
    }
}
