//! **`durable_cycle`** — checkpoint-and-resume cycles of an n = 32
//! `◇HP` detector engine: 60 times {`run_until(+≈500 ticks)` →
//! `snapshot` → `wire::to_bytes` → `store::write_atomic` → drop the
//! engine → `read_verified` → `wire::from_bytes` → `Engine::resume_in`},
//! then the resumed engine's `(now, metrics)` must equal a
//! straight-through run's. The seed draws the checkpoint schedule (the
//! operator's input); the engine's own seed is the default one, as in
//! the log workloads, so every seed checkpoints the same run at
//! different instants. The wire codec, the `HSNP` container and
//! fsync do some 90 % of the work and consensus none, so ROADMAP 2d
//! (one codec) and 4a (state transfer in `HSNP`) have a workload that
//! moves while the other three must not. Writes sit beside reads:
//! both halves are timed.
//!
//! The issue sketched 600 cycles 50 ticks apart; this is 60 cycles
//! 500 ticks apart — the same 30 k ticks of run, so the same snapshot
//! sizes — because host time is read from a floor over repeats of the
//! same work (see [`Floor`]): every call of a cycle is one timed
//! segment, and sixty cycles repeat some fifty times in a run where six
//! hundred would repeat five times.

use std::path::Path;
use std::time::Instant;

use homonym_chaos::hps_base;
use homonym_core::failure::FailureSchedule;
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::Time;
use homonym_core::wire;
use homonym_detectors::EvtHpProcess;
use homonym_sim::engine::{Engine, EngineArena, Metrics, SimConfig};
use homonym_sim::{read_verified, write_atomic, EngineSnapshot};

use crate::common::{derive_seed, time, Budget, Floor, ScratchDir};
use crate::probes;
use crate::report::Report;
use crate::stats::percentile_sorted;
use crate::trace::{allocations, count_allocations, timed, Tracer};

pub const N: usize = 32;
pub const L: usize = 4;
pub const CYCLES: u64 = 60;
/// Ticks between checkpoints: uniform in `MEAN ± JITTER`.
pub const MEAN_TICKS_PER_CYCLE: u64 = 500;
pub const JITTER_TICKS: u64 = 100;

/// Payload schema tag of the benchmark's checkpoint files.
const SCHEMA: u32 = 0xBE;

type Detector = Engine<EvtHpProcess>;

fn engine() -> Detector {
    let config = SimConfig::new(
        IdentityAssignment::round_robin(N, L),
        FailureSchedule::none(N),
        hps_base(),
    );
    Engine::new(config, |_, _| EvtHpProcess::new())
}

/// The instants at which the run is checkpointed, drawn from the seed.
fn schedule(seed: u64) -> Vec<Time> {
    let mut now = 0u64;
    (0..CYCLES)
        .map(|c| {
            let draw = derive_seed(seed, 1_000 + c) % (2 * JITTER_TICKS + 1);
            now += MEAN_TICKS_PER_CYCLE - JITTER_TICKS + draw;
            Time::from_ticks(now)
        })
        .collect()
}

/// What the timed section starts from: the schedule, a fresh scratch
/// directory and the engine.
struct Setup {
    schedule: Vec<Time>,
    dir: ScratchDir,
    engine: Detector,
}

fn setup(seed: u64) -> Result<Setup, String> {
    Ok(Setup {
        schedule: schedule(seed),
        dir: ScratchDir::create("durable").map_err(|e| format!("scratch directory: {e}"))?,
        engine: engine(),
    })
}

struct Outcome {
    engine: Detector,
    bytes: u64,
    /// Cycles whose read failed verification or did not decode.
    failed: u64,
    /// Seconds of every lap: [`LAPS`] a cycle, adding up to the whole.
    lap_s: Vec<f64>,
}

/// Timed segments a cycle: one per call into the program, each taking
/// in what follows it up to the next call (the drops of the snapshot,
/// the buffers and the old engine). A failed cycle makes the same laps.
const LAPS: usize = 7;

/// One clock read closes a lap and opens the next, so the laps add up
/// to the whole.
struct Laps {
    mark: Instant,
    seconds: Vec<f64>,
}

impl Laps {
    fn lap(&mut self) {
        let now = Instant::now();
        self.seconds.push((now - self.mark).as_secs_f64());
        self.mark = now;
    }
}

/// One call into the program, spanned when tracing.
fn call<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    timed(tracer, name, f).0
}

/// Runs the cycles, with a span around each call into the program
/// when a tracer is given.
fn cycle(
    mut e: Detector,
    schedule: &[Time],
    file: &Path,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let t = &mut tracer;
    let (mut bytes, mut failed) = (0u64, 0u64);
    let mut laps = Laps {
        mark: Instant::now(),
        seconds: Vec::with_capacity(schedule.len() * LAPS),
    };
    for (c, &deadline) in schedule.iter().enumerate() {
        call(t, "sim.engine.run_until", || e.run_until(deadline));
        laps.lap();
        let snap = call(t, "sim.snapshot.snapshot", || e.snapshot());
        laps.lap();
        let encoded = call(t, "core.wire.to_bytes", || wire::to_bytes(&snap));
        laps.lap();
        let written = call(t, "sim.store.write_atomic", || {
            write_atomic(file, SCHEMA, &encoded)
        });
        bytes += encoded.len() as u64;
        // The "kill": only the file and the configuration survive.
        let config = e.config().clone();
        drop((snap, encoded));
        laps.lap();
        let payload = written
            .map_err(|err| format!("write_atomic: {err}"))
            .and_then(|()| {
                call(t, "sim.store.read_verified", || read_verified(file, SCHEMA))
                    .map_err(|err| err.to_string())
            })
            .and_then(|payload| payload.ok_or_else(|| "file absent".to_string()));
        laps.lap();
        let snapshot = payload.and_then(|payload| {
            call(t, "core.wire.from_bytes", || {
                wire::from_bytes::<EngineSnapshot<EvtHpProcess>>(&payload)
            })
            .map_err(|err| err.to_string())
        });
        laps.lap();
        match snapshot {
            Ok(snapshot) => {
                e = call(t, "sim.engine.resume_in", || {
                    Engine::resume_in(config, &snapshot, EngineArena::new())
                });
            }
            // Keep the live engine and count the cycle as failed.
            Err(err) => {
                report.check(false, || format!("cycle {c}: {err}"));
                failed += 1;
            }
        }
        laps.lap();
    }
    Outcome {
        engine: e,
        bytes,
        failed,
        lap_s: laps.seconds,
    }
}

/// Where a run that never stopped stands at `end`.
fn straight_through(end: Time) -> (Time, Metrics) {
    let mut straight = engine();
    straight.run_until(end);
    (straight.now(), straight.metrics().clone())
}

/// The resumed engine must stand where the straight-through run
/// stands; a divergence fails every cycle.
fn verify(outcome: &Outcome, straight: &(Time, Metrics), report: &mut Report) -> u64 {
    let same = (outcome.engine.now(), outcome.engine.metrics()) == (straight.0, &straight.1);
    report.check(same, || {
        format!(
            "resumed engine at {} with {} events, straight-through at {} with {}",
            outcome.engine.now(),
            outcome.engine.metrics().events,
            straight.0,
            straight.1.events
        )
    });
    if same {
        outcome.failed
    } else {
        CYCLES
    }
}

fn emit_sim(outcome: &Outcome, failed: u64, report: &mut Report) {
    report.sim("bytes_per_cycle", outcome.bytes as f64 / CYCLES as f64);
    report.sim("served_share", (CYCLES - failed) as f64 / CYCLES as f64);
    report.sim("check.events", outcome.engine.metrics().events as f64);
    report.attempted = CYCLES;
    report.failed = failed;
}

/// The untraced measurement: the cycles repeated while `seconds` last
/// — a fresh scratch directory and engine each time — host time read
/// from the per-lap floor.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let budget = Budget::new(seconds);
    let mut floor = Floor::default();
    let mut setup_s = f64::INFINITY;
    let mut walls = Vec::new();
    let mut straight = None;
    while budget.more(floor.repeats()) {
        let (built, s) = time(|| setup(seed));
        setup_s = setup_s.min(s);
        let Setup {
            schedule,
            dir,
            engine,
        } = built?;
        let file = dir.path().join("cycle.ck");
        let mut facts = Report::default();
        let outcome = cycle(engine, &schedule, &file, &mut facts, None);
        let straight =
            straight.get_or_insert_with(|| straight_through(schedule[schedule.len() - 1]));
        let failed = verify(&outcome, straight, &mut facts);
        emit_sim(&outcome, failed, &mut facts);
        walls.push(outcome.lap_s.iter().sum());
        report.fold_repeat(floor.repeats(), facts);
        floor.add(&outcome.lap_s);
    }
    report.host("setup_s", setup_s);
    report.host("ops_per_s", CYCLES as f64 / floor.wall_s());
    report.host("wall_s", floor.wall_s());
    report.note(probes::floor_note(&floor, &walls));
    Ok(())
}

/// The traced run: one pass with a span around every call and
/// allocations counted — the spans give each call a median over the 60
/// cycles — then the checkpointed-sweep probe.
pub fn run_traced(
    seed: u64,
    untraced_wall_s: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // No recorder here: it travels inside every snapshot, so attaching
    // one would change the bytes this workload exists to measure.
    let (built, _) = tracer.span("benchmark.setup", |_| setup(seed));
    let Setup {
        schedule,
        dir,
        engine,
    } = built?;
    let file = dir.path().join("cycle.ck");
    let before = allocations();
    count_allocations(true);
    let (outcome, traced_wall) = tracer.span("benchmark.cycles", |tracer| {
        cycle(engine, &schedule, &file, report, Some(tracer))
    });
    count_allocations(false);
    let allocs = allocations() - before;
    let straight = straight_through(schedule[schedule.len() - 1]);
    let failed = verify(&outcome, &straight, report);
    emit_sim(&outcome, failed, report);

    let m = outcome.engine.metrics();
    let p50_us =
        |name: &str| percentile_sorted(&tracer.durations_ns(name), 50).unwrap_or(0) as f64 / 1e3;
    let mb = outcome.bytes as f64 / 1e6;
    report.layer("sim.engine.events", m.events as f64);
    report.layer(
        "sim.engine.ns_per_event",
        tracer.total_s("sim.engine.run_until") * 1e9 / m.events.max(1) as f64,
    );
    report.layer(
        "sim.engine.allocs_per_event",
        allocs as f64 / m.events.max(1) as f64,
    );
    report.layer("sim.network.copies_lost", m.copies_lost as f64);
    report.layer(
        "sim.snapshot.snapshot_us_p50",
        p50_us("sim.snapshot.snapshot"),
    );
    report.layer(
        "sim.snapshot.restore_us_p50",
        p50_us("sim.engine.resume_in"),
    );
    report.layer(
        "sim.store.write_atomic_us_p50",
        p50_us("sim.store.write_atomic"),
    );
    report.layer(
        "sim.store.read_verified_us_p50",
        p50_us("sim.store.read_verified"),
    );
    report.layer("sim.store.bytes_written", outcome.bytes as f64);
    report.layer(
        "core.wire.encode_mb_per_s",
        mb / tracer.total_s("core.wire.to_bytes"),
    );
    report.layer(
        "core.wire.decode_mb_per_s",
        mb / tracer.total_s("core.wire.from_bytes"),
    );
    report.layer("obs.recorder.overhead_ratio", traced_wall / untraced_wall_s);
    let mut shares = String::new();
    for name in [
        "sim.engine.run_until",
        "sim.snapshot.snapshot",
        "core.wire.to_bytes",
        "sim.store.write_atomic",
        "sim.store.read_verified",
        "core.wire.from_bytes",
        "sim.engine.resume_in",
    ] {
        shares.push_str(&format!(" {name} {:.3} s;", tracer.total_s(name)));
    }
    report.note(format!(
        "walls: untraced floor {untraced_wall_s:.3} s, traced single pass {traced_wall:.3} s;{shares}"
    ));

    let probe = probes::checkpointed_sweep(seed, report, tracer)?;
    report.layer("chaos.checkpoint.durable_over_ram", probe.durable_over_ram);
    report.layer("chaos.checkpoint.resume_s", probe.resume_s);
    Ok(())
}
