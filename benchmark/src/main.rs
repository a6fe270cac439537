//! The repository's benchmark: four workloads over the layered
//! agreement service, absolute end-to-end metrics, and a per-layer
//! ledger timed from outside the program under test.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed <u64>
//!     [--workload <name>] [--seconds <n>] [--trace 0|1] [--self-check]
//! ```
//!
//! Without `--workload` every workload runs, untraced then traced, and
//! the process exits non-zero on any failed check. With `--workload`
//! one measurement is made and its result is the last line of standard
//! output, one JSON object. Every measurement runs in a fresh child
//! process of this same executable (`--child`), which repeats the
//! workload for `--seconds` and reads host time from the per-segment
//! floor over the repeats (`common::Floor`). See `README.md`.

mod arrivals;
mod common;
mod durable;
mod log;
mod probes;
mod report;
mod spec;
mod stats;
mod sweep;
mod trace;

use std::process::{Command, ExitCode};

use report::Report;
use spec::{Clock, Workload, END_TO_END, NOT_DEFINED, PER_LAYER, RUN_SECONDS};

/// Seconds of a run kept back from the child's repeat budget for what
/// surrounds the repeats: starting the process, the last repeat
/// running past the budget, printing.
const OVERHEAD_SECONDS: f64 = 1.0;

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    workload: Option<Workload>,
    seconds: Option<f64>,
    trace: bool,
    self_check: bool,
    print_spec: bool,
    child: bool,
    untraced_wall_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--workload" => {
                let v = value("a name")?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload = Some(
                    Workload::by_name(&v)
                        .ok_or(format!("unknown workload {v}; one of {names:?}"))?,
                );
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = Some(v.parse().map_err(|e| format!("--seconds {v}: {e}"))?);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--untraced-wall-s" => {
                let v = value("seconds")?;
                args.untraced_wall_s = Some(v.parse().map_err(|e| format!("{flag} {v}: {e}"))?);
            }
            "--self-check" => args.self_check = true,
            "--print-spec" => args.print_spec = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One measurement inside a child process — the untraced repeats, or
/// the traced run when the parent passes the untraced floor wall —
/// then the report for the parent on standard output.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    untraced_wall_s: Option<f64>,
) -> Result<(), String> {
    let mut report = Report::default();
    match common::pin_to_one_cpu() {
        Ok(cpu) => report.note(format!("child pinned to CPU {cpu}")),
        Err(e) => report.note(format!(
            "child not pinned ({e}); the sweep takes a worker per core"
        )),
    }
    match untraced_wall_s {
        None => match workload {
            Workload::LogSteady | Workload::LogFaultsOpen => {
                log::run(workload, seed, seconds, &mut report);
            }
            Workload::SweepForked => sweep::run(seed, seconds, &mut report),
            Workload::DurableCycle => durable::run(seed, seconds, &mut report)?,
        },
        Some(wall) => {
            let mut tracer = trace::Tracer::new(seed);
            match workload {
                Workload::LogSteady | Workload::LogFaultsOpen => {
                    log::run_traced(workload, seed, seconds, wall, &mut report, &mut tracer);
                }
                Workload::SweepForked => {
                    sweep::run_traced(seed, seconds, wall, &mut report, &mut tracer);
                }
                Workload::DurableCycle => {
                    durable::run_traced(seed, wall, &mut report, &mut tracer)?;
                }
            }
            let dir = common::out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("trace-{}.json", workload.name()));
            tracer
                .write_json(&path, workload.name(), seed)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            report.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
    }
    // Read last: the high-water mark covers everything above.
    let rss = common::peak_rss_mb()?;
    report.host("peak_rss_mb", rss);
    if untraced_wall_s.is_some() {
        report.layer("benchmark.child.peak_rss_mb", rss);
    }
    print!("{}", report.encode());
    Ok(())
}

fn spawn_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    untraced_wall_s: Option<f64>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &format!("{seconds:?}"),
    ]);
    if let Some(wall) = untraced_wall_s {
        cmd.args(["--untraced-wall-s", &format!("{wall:?}")]);
    }
    // `output` waits for the child to end and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child for {} ended with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Report::decode(&stdout)
}

/// One measurement of one workload, as the driver sees it.
struct Measurement {
    workload: Workload,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in table order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    violations: Vec<String>,
    notes: Vec<String>,
}

fn same_sim(a: &Report, b: &Report) -> Option<String> {
    for (name, va) in &a.sim {
        if let Some((_, vb)) = b.sim.iter().find(|(n, _)| n == name) {
            if va.to_bits() != vb.to_bits() {
                return Some(format!(
                    "simulated metric {name} differs between the untraced and the traced run: {va} vs {vb}"
                ));
            }
        }
    }
    None
}

fn measure_untraced(workload: Workload, seed: u64, seconds: f64) -> Result<Measurement, String> {
    let budget = (seconds - OVERHEAD_SECONDS).max(0.0);
    let report = spawn_child(workload, seed, budget, None)?;
    let mut metrics = Vec::new();
    for m in END_TO_END {
        let value = if m.on.contains(&workload) {
            report
                .get(m.name)
                .ok_or(format!("{}: no {} reported", workload.name(), m.name))?
        } else {
            NOT_DEFINED
        };
        metrics.push((m.name, m.unit, value));
    }
    Ok(Measurement {
        workload,
        trace: false,
        correct: report.violations.is_empty(),
        attempted: report.attempted,
        failed: report.failed,
        metrics,
        violations: report.violations,
        notes: report.notes,
    })
}

/// The traced measurement: a third of the time goes to an untraced
/// child, whose floor wall the tracing overhead and the probes' shares
/// are stated against, a third to the traced repeats, and the rest to
/// the probes.
fn measure_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Measurement, String> {
    let third = (seconds - OVERHEAD_SECONDS).max(0.0) / 3.0;
    let untraced = spawn_child(workload, seed, third, None)?;
    let wall = untraced.get("wall_s").ok_or(format!(
        "{}: untraced run reported no wall",
        workload.name()
    ))?;
    let traced = spawn_child(workload, seed, third, Some(wall))?;
    let mut violations = untraced.violations.clone();
    violations.extend(traced.violations.clone());
    // Recorder on or off, the run must be the same run.
    violations.extend(same_sim(&untraced, &traced));
    violations.dedup();
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, traced.get(m.name).unwrap_or(0.0)))
        .collect();
    Ok(Measurement {
        workload,
        trace: true,
        correct: violations.is_empty(),
        attempted: traced.attempted,
        failed: traced.failed.max(untraced.failed),
        metrics,
        violations,
        notes: traced.notes,
    })
}

impl Measurement {
    fn print_table(&self) {
        println!(
            "## {} ({}) — {}",
            self.workload.name(),
            if self.trace {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.workload.why()
        );
        for (name, unit, value) in &self.metrics {
            let defined = self.trace
                || END_TO_END
                    .iter()
                    .any(|m| m.name == *name && m.on.contains(&self.workload));
            if defined {
                println!("  {name:<52} {value:>18.6} {unit}");
            } else {
                println!(
                    "  {name:<52} {:>18} (not defined on this workload; reads {value})",
                    "-"
                );
            }
        }
        println!(
            "  operations ({}): {} verified, {} failed",
            self.workload.operation(),
            self.attempted,
            self.failed
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
        for v in &self.violations {
            println!("  FAILED CHECK: {v}");
        }
    }

    /// The driver's result line.
    fn json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("{name} is {value}, not a finite number"));
            }
            let sep = if i == 0 { "" } else { ", " };
            s.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// Every workload, untraced then traced.
fn full_set(seed: u64, seconds: f64) -> Result<Vec<Measurement>, String> {
    let mut all = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let m = if trace {
                measure_traced(workload, seed, seconds)?
            } else {
                measure_untraced(workload, seed, seconds)?
            };
            m.print_table();
            println!();
            all.push(m);
        }
    }
    Ok(all)
}

/// Whether two full sets of one seed agree: simulated metrics exactly,
/// host-time metrics within the metric's bound. Prints one line per
/// workload and metric; returns whether all agree.
fn sets_agree(first: &[Measurement], second: &[Measurement]) -> bool {
    let mut all = true;
    println!("## self-check: two sets of runs of the same code");
    for (a, b) in first.iter().zip(second).filter(|(a, _)| !a.trace) {
        for ((name, unit, va), (_, _, vb)) in a.metrics.iter().zip(&b.metrics) {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("table metric");
            if !m.on.contains(&a.workload) {
                continue;
            }
            let (ok, rule) = match m.clock {
                Clock::Sim => (va.to_bits() == vb.to_bits(), "identical".to_string()),
                Clock::Host => (
                    (va - vb).abs() <= m.bound * va.abs(),
                    format!("within {:.0} %", m.bound * 100.0),
                ),
            };
            all &= ok;
            println!(
                "  {:<16} {name:<24} {va:>16.6} {vb:>16.6} {unit:<6} {rule:<12} {}",
                a.workload.name(),
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    all
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.print_spec {
        print!("{}", spec::render_benchmark_json());
        return Ok(true);
    }
    let seed = args.seed.ok_or(format!(
        "--seed <u64> is required (README.md quotes seed {} and held-out seed {})",
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED
    ))?;
    if args.child {
        let workload = args.workload.ok_or("--child needs --workload")?;
        let seconds = args.seconds.ok_or("--child needs --seconds")?;
        child(workload, seed, seconds, args.untraced_wall_s)?;
        return Ok(true);
    }
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    println!(
        "seed {seed}; {} cores available, each child process pinned to one",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    if let Some(workload) = args.workload {
        let m = if args.trace {
            measure_traced(workload, seed, seconds)?
        } else {
            measure_untraced(workload, seed, seconds)?
        };
        m.print_table();
        println!("{}", m.json()?);
        return Ok(m.correct);
    }
    let first = full_set(seed, seconds)?;
    let mut ok = first.iter().all(|m| m.correct);
    if args.self_check {
        let second = full_set(seed, seconds)?;
        ok &= second.iter().all(|m| m.correct);
        ok &= sets_agree(&first, &second);
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}
