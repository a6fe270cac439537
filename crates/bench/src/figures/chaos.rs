//! `chaos_sweep` experiment: the falsification sweep over generated
//! adversarial scenarios.
//!
//! Runs every stack (`fig8-evt-hp`, `fig9-oracle-quorum`,
//! `evt-hp-detector`, `byz-tolerant-quorum`) against the scenario family
//! rotation and asserts:
//!
//! * **zero safety violations** anywhere — a safety counterexample makes
//!   the binary print the replayable seed + scenario script and exit
//!   nonzero;
//! * **zero liveness violations on the eventually-clean subset** — same
//!   failure mode;
//! * at least one **pre-heal/post-heal demonstration** per consensus
//!   stack: a truncated probe blocked before the first heal whose full
//!   run then terminated, i.e. liveness correctly fails while the
//!   partition is up and holds once it heals.
//!
//! In **Byzantine mode** (`CHAOS_BYZANTINE=1`) the rotation interleaves
//! the equivocation/corruption families (including the over-threshold
//! `f ≥ ⌈n/3⌉` coalition) with the crash families, and the contract
//! splits by stack:
//!
//! * the **crash-only** stacks must produce at least one **demonstrated
//!   counterexample** (a crash-only stack falling to a hidden
//!   equivocator — replayable as family + seed + script) while the
//!   crash-only subset keeps zero safety violations;
//! * the **Byzantine-tolerant** stack asserts its tolerance claim:
//!   **zero** counterexamples of any kind on `f < n/3` runs (violations
//!   there are falsifications, never excused), at least one run
//!   *survived* under active corruption, and every demonstrated fall
//!   comes from the `over-threshold-byzantine` family — the stack falls
//!   exactly past its `n > 3f` bound, never inside it.
//!
//! Afterwards the first Figure 8 demonstration is **replayed from
//! mid-run** — the honest prefix snapshotted just before the
//! equivocation window and re-forked across attack variations — and the
//! forked verdicts are asserted identical to flat re-execution; the same
//! within-tolerance counterexample is then replayed against the
//! tolerant stack, which must survive every variation.
//!
//! Usage: `cargo run --release -p homonym-bench --bin exp -- chaos [flags]`
//! Flags:
//! * `--checkpoint-dir <dir>` — run the **kill-tolerant** sweep driver:
//!   per-stack progress is checkpointed under `<dir>/<stack>/` (atomic,
//!   checksummed segment files), so a SIGKILL at any instant loses at
//!   most the in-flight scenario groups;
//! * `--resume` — reuse verified segments already in the checkpoint
//!   directory instead of starting fresh (without it the directory is
//!   cleared first). A directory written by a different configuration or
//!   binary fails with a clear error and exit code 2, never a panic;
//! * `--verify-resume` — after the checkpointed sweep, re-run
//!   uninterrupted in RAM and assert the two reports are identical
//!   (prints a greppable verdict).
//!
//! Environment:
//! * `CHAOS_SWEEP_SCENARIOS=<k>` — scenarios **per stack** (default 400,
//!   so the default run sweeps 1200 scenarios overall; CI smoke uses a
//!   small value);
//! * `CHAOS_BYZANTINE=1` — Byzantine mode (see above).

use std::path::PathBuf;

use homonym_chaos::{
    byzantine_story, checkpointed_falsification_sweep, falsification_sweep,
    falsification_sweep_forked, replay_byzantine_counterexample, CheckpointConfig, StackKind,
    SweepConfig, SweepReport,
};

/// Checkpointing knobs.
#[derive(Default)]
struct CheckpointArgs {
    dir: Option<PathBuf>,
    resume: bool,
    verify_resume: bool,
}

fn parse_args() -> CheckpointArgs {
    let mut out = CheckpointArgs::default();
    // Past the binary's name and the figure's.
    let mut args = std::env::args().skip(2);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--checkpoint-dir" => out.dir = Some(PathBuf::from(value("--checkpoint-dir"))),
            "--resume" => out.resume = true,
            "--verify-resume" => out.verify_resume = true,
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if out.dir.is_none() && (out.resume || out.verify_resume) {
        eprintln!("--resume and --verify-resume need --checkpoint-dir");
        std::process::exit(2);
    }
    out
}

pub fn main() {
    let per_stack: usize = std::env::var("CHAOS_SWEEP_SCENARIOS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let byzantine = std::env::var("CHAOS_BYZANTINE").is_ok_and(|v| v != "0");
    let ck_args = parse_args();

    let mode = if byzantine { "Byzantine" } else { "crash" };
    println!("## chaos falsification sweep ({per_stack} scenarios per stack, {mode} mode)\n");
    println!(
        "| stack | scenarios | liveness held | excused | safety cex | liveness cex | byz demonstrated | byz survived | probes | pre-heal blocked → post-heal decided |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");

    let mut falsified = false;
    let mut fig8_report: Option<SweepReport> = None;
    for stack in StackKind::ALL {
        let cfg = if byzantine {
            SweepConfig::byzantine(stack, per_stack)
        } else {
            SweepConfig::new(stack, per_stack)
        };
        let report = match &ck_args.dir {
            None => falsification_sweep(&cfg),
            Some(dir) => {
                let stack_dir = dir.join(stack.name());
                if !ck_args.resume {
                    // A fresh start was requested: previous progress in
                    // this directory must not leak into the report.
                    let _ = std::fs::remove_dir_all(&stack_dir);
                }
                let ck = CheckpointConfig::new(&stack_dir);
                match checkpointed_falsification_sweep(&cfg, &ck) {
                    Ok((report, stats)) => {
                        eprintln!(
                            "checkpoint[{}]: {} groups ({} resumed, {} executed, \
                             {} corrupt segment(s) re-executed)",
                            stack.name(),
                            stats.groups_total,
                            stats.groups_resumed,
                            stats.groups_executed,
                            stats.corrupt_segments,
                        );
                        if ck_args.verify_resume {
                            let uninterrupted = falsification_sweep_forked(&cfg);
                            assert_eq!(
                                report, uninterrupted,
                                "checkpointed report diverged from the uninterrupted run"
                            );
                            eprintln!(
                                "resume verified[{}]: report identical to uninterrupted run",
                                stack.name()
                            );
                        }
                        report
                    }
                    Err(e) => {
                        // Version/fingerprint mismatches and I/O faults
                        // are operator problems: clear message, clean
                        // exit — never a panic backtrace.
                        eprintln!("checkpoint sweep failed for {}: {e}", stack.name());
                        std::process::exit(2);
                    }
                }
            }
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            stack.name(),
            report.runs,
            report.liveness_held,
            report.liveness_excused,
            report.safety_counterexamples.len(),
            report.liveness_counterexamples.len(),
            report.byzantine_demonstrated.len(),
            report.byzantine_survived,
            report.probes,
            report.probe_demonstrations,
        );
        if let Some(cex) = report.first_counterexample() {
            falsified = true;
            eprintln!(
                "\nFALSIFIED {}: {}\n  replay: family={} seed={}\n  script: {}",
                stack.name(),
                cex.violation,
                cex.family,
                cex.seed,
                cex.script
            );
        }
        if stack.runs_probes() && report.probes > 0 && report.probe_demonstrations == 0 {
            falsified = true;
            eprintln!(
                "\n{}: no pre-heal/post-heal liveness demonstration in {} probes",
                stack.name(),
                report.probes
            );
        }
        if byzantine && report.byzantine_demonstrated.is_empty() {
            falsified = true;
            if stack.claims_byzantine_tolerance() {
                eprintln!(
                    "\n{}: the over-threshold family failed to fell the tolerant stack — \
                     `f >= n/3` coalitions must demonstrate the bound is tight",
                    stack.name()
                );
            } else {
                eprintln!(
                    "\n{}: the Byzantine families produced no demonstrated counterexample — \
                     a crash-only stack survived every equivocation/corruption attack",
                    stack.name()
                );
            }
        }
        if byzantine && stack.claims_byzantine_tolerance() {
            // The tolerance claim, both halves: survivals under active
            // corruption inside the envelope, demonstrated falls only
            // past it. Claim-gating in the sweep already turns any
            // within-envelope violation into a hard counterexample
            // (caught above); this pins the demonstration provenance.
            if report.byzantine_survived == 0 {
                falsified = true;
                eprintln!(
                    "\n{}: no corrupt run survived — the tolerance claim was never exercised",
                    stack.name()
                );
            }
            if let Some(cex) = report
                .byzantine_demonstrated
                .iter()
                .find(|c| c.family != "over-threshold-byzantine")
            {
                falsified = true;
                eprintln!(
                    "\n{}: demonstrated fall inside the `n > 3f` envelope \
                     (family={} seed={}) — the tolerant stack must only fall past its bound\n  {}",
                    stack.name(),
                    cex.family,
                    cex.seed,
                    cex.script
                );
            }
        }
        if stack == StackKind::Fig8EvtHp {
            fig8_report = Some(report);
        }
    }

    assert!(
        !falsified,
        "falsification sweep found a counterexample (see stderr)"
    );

    if byzantine {
        // Mid-run counterexample replay: rebuild the first Figure 8
        // demonstration, snapshot just before its equivocation window,
        // and re-fork across attack variations. The forked verdicts
        // must equal flat re-execution, and the prefix must actually be
        // shared (nonzero fork count).
        let report = fig8_report.expect("fig8 stack ran");
        let cex = report
            .first_demonstration()
            .expect("asserted nonempty above");
        println!(
            "\n### mid-run replay of the first fig8 demonstration\n\n\
             base counterexample: family={} seed={}\n  {}",
            cex.family, cex.seed, cex.violation
        );
        let cfg = SweepConfig::byzantine(StackKind::Fig8EvtHp, per_stack);
        let replay = replay_byzantine_counterexample(&cfg, cex, 6);
        for (script, verdict) in replay.scripts.iter().zip(&replay.forked) {
            let outcome = match verdict.violation() {
                Some(v) => format!("{v}"),
                None => "all properties held (attack variation missed)".to_string(),
            };
            println!("- {script}\n  → {outcome}");
        }
        assert!(
            replay.verdicts_match(),
            "forked mid-run replay diverged from flat re-execution:\nforked: {:?}\nflat: {:?}",
            replay.forked,
            replay.flat
        );
        assert!(
            replay.stats.forked > 0,
            "the replay never restored from the honest-prefix snapshot: {:?}",
            replay.stats
        );
        println!(
            "\nforked replay == flat re-execution on all {} variations; \
             {} forked from {} snapshot(s), {} shared ticks never re-executed; \
             {} variation(s) still falsify the crash-only stack",
            replay.forked.len(),
            replay.stats.forked,
            replay.stats.snapshots,
            replay.stats.shared_ticks,
            replay.still_falsified(),
        );
        // The same attack that felled the crash-only Figure 8 stack,
        // replayed mid-run against the Byzantine-tolerant stack: every
        // variation stays inside the `f < n/3` envelope (same corrupt
        // sources), so the tolerant stack must survive all of them.
        if let Some(cex) = report
            .byzantine_demonstrated
            .iter()
            .find(|c| c.family != "over-threshold-byzantine")
        {
            let cfg = SweepConfig::byzantine(StackKind::ByzTolerant, per_stack);
            let survival = replay_byzantine_counterexample(&cfg, cex, 6);
            assert!(
                survival.verdicts_match(),
                "tolerant-stack forked replay diverged from flat re-execution:\nforked: {:?}\nflat: {:?}",
                survival.forked,
                survival.flat
            );
            assert_eq!(
                survival.still_falsified(),
                0,
                "the tolerant stack fell to a within-envelope attack it must survive: {:?}",
                survival.forked
            );
            println!(
                "\nthe same within-envelope attack (family={} seed={}) replayed against \
                 {}: all {} variations survived (forked == flat)",
                cex.family,
                cex.seed,
                StackKind::ByzTolerant.name(),
                survival.forked.len(),
            );
            // The counterexample as a story: the exact falsified
            // scenario re-run with the observability recorder attached,
            // rendered as per-process timelines — the equivocation
            // window (attack firings) and the surviving quorum
            // certificates become visible events.
            let story = byzantine_story(&cfg, cex);
            assert!(
                !story.violated,
                "the story replay fell where the sweep survived: {}",
                story.script
            );
            println!(
                "\n### the surviving run as a story\n\n\
                 script: {}\n\n{}\n```mermaid\n{}```",
                story.script, story.ascii, story.mermaid
            );
            println!(
                "certificates formed: {} (sizes p50/p99: {}/{}); attacks fired: {}; \
                 copies discarded by ledgers: {}",
                story.stats.certificate_sizes.count(),
                story.stats.certificate_sizes.percentile(50),
                story.stats.certificate_sizes.percentile(99),
                story.stats.attacks_fired,
                story.stats.ledger_discards,
            );
        }
        println!(
            "\nByzantine contract held: every crash-only stack produced \
             demonstrated counterexamples under corrupt homonyms (crash-only \
             algorithms fall to f < n/3 equivocators, as predicted), safety \
             held untouched on the crash-only subset, and the tolerant stack \
             survived every within-envelope attack while falling only to the \
             over-threshold family."
        );
    } else {
        println!(
            "\nNo counterexamples: safety held in every run; liveness held on \
             every eventually-clean run and failed only pre-heal or on lossy \
             scenarios, as the definitions permit."
        );
    }
}
