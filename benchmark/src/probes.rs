//! Layer probes: small isolated drives of one layer's public functions
//! on inputs shaped like a workload's. A probe gives the per-layer
//! ledger a number for a layer the end-to-end run cannot time on its
//! own from outside.

use homonym_chaos::session::{Goal, Session, SessionBuilder};
use homonym_chaos::{
    checkpointed_falsification_sweep, falsification_sweep, falsification_sweep_forked,
    CheckpointConfig, Family, StackKind, SweepConfig,
};
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::{check_consensus, classify_run, RunCondition};
use homonym_core::time::{Span, Time};
use homonym_obs::{detector_quality, ObsKind, Recorder};
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::workload::WorkloadConfig;

use crate::common::{derive_seed, floor_over, Floor, ScratchDir};
use crate::log;
use crate::report::Report;
use crate::stats::{median, percentile_sorted};
use crate::trace::{allocations, count_allocations, timed, Tracer};

/// Seconds each timing probe repeats for; its number is the floor over
/// those repeats, like the workloads' own.
const PROBE_SECONDS: f64 = 0.8;

/// What a floor was taken over, for the notes: the repeats, and how
/// far the host's interference moved them (fastest, median and slowest
/// whole repeat against the floor).
pub fn floor_note(floor: &Floor, walls: &[f64]) -> String {
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    format!(
        "{} repeats in one process, {} timed segments each; floor {:.4} s; whole repeats: fastest {:.4} s, median {:.4} s, slowest {:.4} s",
        floor.repeats(),
        floor.segments().len(),
        floor.wall_s(),
        fastest,
        median(walls).unwrap_or(f64::NAN),
        slowest
    )
}

/// Leader flips in a recorded run, and the tick at which the detector
/// last misbehaved: the latest `DetectorEpoch` of the last round that
/// [`detector_quality`] still finds incomplete, inaccurate or flipping
/// (0 when every round is clean).
pub fn detector_settling(rec: &Recorder, correct: usize) -> (u64, u64) {
    let rows = detector_quality(rec, correct);
    let flips: u64 = rows.iter().map(|r| r.flips as u64).sum();
    let last_bad = rows
        .iter()
        .rev()
        .find(|r| r.incomplete + r.inaccurate + r.flips > 0)
        .map(|r| r.round);
    let stabilize = last_bad.map_or(0, |bad| {
        rec.events()
            .iter()
            .filter(|e| {
                matches!(e.kind, ObsKind::DetectorEpoch { round, .. } | ObsKind::LeaderFlip { round, .. } if round == bad)
            })
            .map(|e| e.at.ticks())
            .max()
            .unwrap_or(0)
    });
    (flips, stabilize)
}

/// A broadcast mesh with no algorithm: every process broadcasts on a
/// fixed period and counts what it hears. Queue, routing and dispatch
/// are all that runs.
struct Mesh {
    heard: u64,
}

const MESH_PERIOD: Span = Span::from_ticks(4);

impl Process for Mesh {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, ()>) {
        ctx.broadcast(self.heard);
        ctx.set_timer(MESH_PERIOD, TimerTag(0));
    }

    fn on_message(&mut self, msg: u64, _ctx: &mut ActionSink<'_, u64, ()>) {
        self.heard = self.heard.wrapping_add(msg | 1);
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, u64, ()>) {
        ctx.broadcast(self.heard);
        ctx.set_timer(MESH_PERIOD, timer);
    }
}

pub struct MeshProbe {
    pub clean_ns_per_event: f64,
    pub n64_events_per_s: f64,
    /// ns/event under the workload's fault scenario ÷ clean ns/event;
    /// 1 by definition when the workload has no scenario.
    pub overhead_ratio: f64,
}

fn mesh_run(builder: SessionBuilder, name: &'static str, tracer: &mut Tracer) -> (u64, f64) {
    let mut session = builder
        .with_goal(Goal::TickHorizon)
        .build(|_, _: Identity| Mesh { heard: 0 });
    let (_, wall) = tracer.span(name, |_| session.run());
    std::hint::black_box(session.engine().process(0).heard);
    (session.stats().events, wall)
}

pub fn mesh(inputs: &log::Inputs, seed: u64, tracer: &mut Tracer) -> MeshProbe {
    let seed = derive_seed(seed, 2);
    let base = || {
        SessionBuilder::new(log::N, log::L)
            .with_seed(seed)
            .with_deadline_ticks(log::HORIZON)
    };
    let mut ns_per_event = |builder: &dyn Fn() -> SessionBuilder, name: &'static str| {
        let mut events = 0;
        let floor = floor_over(PROBE_SECONDS, || {
            let (e, wall) = mesh_run(builder(), name, tracer);
            events = e;
            vec![wall]
        });
        floor.wall_s() * 1e9 / events as f64
    };
    let clean = ns_per_event(&base, "probe.mesh.n8_clean");
    let overhead_ratio = match inputs.scenario() {
        None => 1.0,
        Some(s) => {
            ns_per_event(
                &|| base().with_scenario(s.clone()),
                "probe.mesh.n8_scenario",
            ) / clean
        }
    };
    let n64 = ns_per_event(
        &|| {
            SessionBuilder::new(64, 16)
                .with_seed(seed)
                .with_deadline_ticks(2_000)
        },
        "probe.mesh.n64",
    );
    MeshProbe {
        clean_ns_per_event: clean,
        n64_events_per_s: 1e9 / n64,
        overhead_ratio,
    }
}

/// One `run_until` slice of a sliced run.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub events: u64,
    pub seconds: f64,
}

/// Runs `session` to `horizon` in `run_until` slices of
/// [`log::SLICE_TICKS`] ticks, a span each when tracing.
pub fn run_sliced<P: Process>(
    session: &mut Session<P>,
    horizon: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Vec<Slice> {
    let mut slices = Vec::new();
    let mut reached = 0;
    while reached < horizon {
        reached = (reached + log::SLICE_TICKS).min(horizon);
        let before = session.engine().metrics().events;
        let (_, seconds) = timed(tracer, "sim.engine.run_until", || {
            session.engine_mut().run_until(Time::from_ticks(reached))
        });
        slices.push(Slice {
            events: session.engine().metrics().events - before,
            seconds,
        });
    }
    slices
}

/// ns per dispatched event in each fifth of a sliced run, from every
/// slice's events and seconds.
pub fn ns_per_event_by_fifth(events: &[u64], seconds: &[f64]) -> Vec<f64> {
    let n = events.len();
    (0..5)
        .map(|i| {
            let fifth = i * n / 5..(i + 1) * n / 5;
            let e: u64 = events[fifth.clone()].iter().sum();
            let s: f64 = seconds[fifth].iter().sum();
            s * 1e9 / e.max(1) as f64
        })
        .collect()
}

/// Last fifth's cost per event over the first's.
pub fn last_over_first(by_fifth: &[f64]) -> f64 {
    by_fifth[by_fifth.len() - 1] / by_fifth[0]
}

pub struct SoloProbe {
    pub wall_s: f64,
    pub events: u64,
    pub last_over_first: f64,
}

/// The detector alone under the workload's n, ℓ, seed, scenario and
/// horizon, sliced like the workload.
pub fn detector_solo(inputs: &log::Inputs, tracer: &mut Tracer) -> SoloProbe {
    let mut events = Vec::new();
    let floor = floor_over(PROBE_SECONDS, || {
        let mut session = inputs.builder().detector();
        let (slices, _) = tracer.span("probe.detector_solo", |tracer| {
            run_sliced(&mut session, log::HORIZON, &mut Some(tracer))
        });
        events = slices.iter().map(|s| s.events).collect();
        slices.iter().map(|s| s.seconds).collect()
    });
    SoloProbe {
        wall_s: floor.wall_s(),
        events: events.iter().sum(),
        last_over_first: last_over_first(&ns_per_event_by_fifth(&events, floor.segments())),
    }
}

/// One untraced pass of the full stack over [`log::LONG_RUN_TICKS`]:
/// ns per event in each fifth. One pass, so a reading and not a floor;
/// the fifths of one pass share whatever the host was doing.
pub fn long_run(inputs: &log::Inputs, tracer: &mut Tracer) -> Vec<f64> {
    let mut session = inputs.builder_to(log::LONG_RUN_TICKS).rsm(inputs.clients());
    let (slices, _) = tracer.span("probe.long_run", |_| {
        run_sliced(&mut session, log::LONG_RUN_TICKS, &mut None)
    });
    let events: Vec<u64> = slices.iter().map(|s| s.events).collect();
    let seconds: Vec<f64> = slices.iter().map(|s| s.seconds).collect();
    ns_per_event_by_fifth(&events, &seconds)
}

/// Ticks per height of a single-process log (crash-model Figure 8
/// engine; the Byzantine engine needs n ≥ 4): the height envelope's
/// floor, with no peer to wait for.
pub fn single_node_log(clients: &WorkloadConfig, seed: u64, tracer: &mut Tracer) -> f64 {
    const TICKS: u64 = 20_000;
    let mut session = SessionBuilder::new(1, 1)
        .with_seed(derive_seed(seed, 3))
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(TICKS)
        .rsm_fig8(clients);
    // Simulated time only: one pass says it all.
    tracer.span("probe.single_node_log", |_| session.run());
    TICKS as f64 / session.stats().min_correct_log.unwrap_or(0).max(1) as f64
}

/// Lock-step rounds per second of Figure 7 `HΣ` on the second engine.
pub fn sync_hsigma(seed: u64, tracer: &mut Tracer) -> f64 {
    const STEPS: u64 = 400;
    let floor = floor_over(PROBE_SECONDS, || {
        let mut session = SessionBuilder::new(log::N, log::L)
            .with_seed(derive_seed(seed, 4))
            .with_deadline_ticks(STEPS)
            .sync_hsigma();
        let (_, wall) = tracer.span("probe.sync_hsigma", |_| session.run());
        assert_eq!(session.engine().metrics().steps, STEPS);
        vec![wall]
    });
    STEPS as f64 / floor.wall_s()
}

/// What one pass over the Figure 8 probe's runs produced.
struct Fig8Pass {
    /// Seconds of every run, then of every property check.
    seconds: Vec<f64>,
    events: u64,
    allocs: u64,
    decide_ticks: Vec<u64>,
    flips: u64,
    stabilize: u64,
}

const FIG8_RUNS: u64 = 32;

fn fig8_pass(seed: u64, report: &mut Report, tracer: &mut Tracer) -> Fig8Pass {
    let (n, l) = (8, 3);
    let assign = IdentityAssignment::round_robin(n, l);
    let proposals: Vec<u64> = (0..n as u64).map(|p| 100 + p).collect();
    let mut decide_ticks = Vec::new();
    let (mut events, mut allocs) = (0u64, 0u64);
    let (mut run_s, mut check_s) = (Vec::new(), Vec::new());
    let (mut flips, mut stabilize) = (0u64, 0u64);
    for i in 0..FIG8_RUNS {
        let run_seed = derive_seed(seed, 100 + i);
        let scenario = Family::ALL[i as usize % Family::ALL.len()].generate(&assign, run_seed);
        // Liveness is owed only to runs whose environment ends clean,
        // as in the sweep (drop-mode partitions never do).
        let lossy = scenario.is_lossy();
        let builder = SessionBuilder::new(n, l)
            .with_seed(run_seed)
            .with_scenario(scenario)
            .with_recorder(1 << 20);
        let clean = builder.stability_instant();
        let condition = if lossy {
            RunCondition::never_clean()
        } else {
            RunCondition::clean_from(clean)
        };
        let deadline = clean + Span::from_ticks(30_000);
        let mut session = builder.with_deadline(deadline).fig8();

        // Snapshot and restore at a mid-run cut, as the sweep's
        // branch points do; the restored engine then finishes the run.
        session.engine_mut().run_until(Time::from_ticks(200));
        let mut snap = session.engine().snapshot();
        tracer.span("sim.snapshot.snapshot_into", |_| {
            session.engine().snapshot_into(&mut snap)
        });
        tracer.span("sim.snapshot.restore_from", |_| {
            session.engine_mut().restore_from(&snap)
        });

        let before = allocations();
        count_allocations(true);
        let (_, s) = tracer.span("chaos.session.run", |_| session.run());
        count_allocations(false);
        allocs += allocations() - before;
        run_s.push(s);
        events += session.stats().events;

        let engine = session.engine();
        let sched = engine.config().sched.clone();
        let outcome = engine.outcome(proposals.clone());
        let (verdict, s) = tracer.span("core.properties.classify_run", |_| {
            classify_run(condition, check_consensus(&outcome, &sched))
        });
        check_s.push(s);
        report.check(!verdict.is_falsifying(), || {
            format!("fig8 probe run {i} (seed {run_seed}): {verdict:?}")
        });
        decide_ticks.extend(
            engine
                .decisions()
                .iter()
                .enumerate()
                .filter(|&(p, _)| sched.is_correct(p))
                .filter_map(|(_, d)| d.map(|(t, _)| t.ticks())),
        );
        let correct = (0..n).filter(|&p| sched.is_correct(p)).count();
        let (f, s) = detector_settling(engine.recorder().expect("recorder attached"), correct);
        flips += f;
        stabilize = stabilize.max(s);
    }
    decide_ticks.sort_unstable();
    run_s.extend(check_s);
    Fig8Pass {
        seconds: run_s,
        events,
        allocs,
        decide_ticks,
        flips,
        stabilize,
    }
}

/// What 32 single Figure 8 runs shaped like the sweep's say about the
/// layers the sweep driver hides: decision latency, engine cost,
/// allocations, snapshot/restore cost, property checking, detector
/// settling.
pub fn fig8_runs(seed: u64, report: &mut Report, tracer: &mut Tracer) {
    let mut last = None;
    let floor = floor_over(PROBE_SECONDS, || {
        let pass = fig8_pass(seed, report, tracer);
        let seconds = pass.seconds.clone();
        last = Some(pass);
        seconds
    });
    let pass = last.expect("at least one pass");
    let (run_s, check_s) = floor.segments().split_at(FIG8_RUNS as usize);
    let p50_us =
        |name: &str| percentile_sorted(&tracer.durations_ns(name), 50).unwrap_or(0) as f64 / 1e3;
    report.layer("sim.engine.events", pass.events as f64);
    report.layer(
        "sim.engine.ns_per_event",
        run_s.iter().sum::<f64>() * 1e9 / pass.events.max(1) as f64,
    );
    report.layer(
        "sim.engine.allocs_per_event",
        pass.allocs as f64 / pass.events.max(1) as f64,
    );
    report.layer(
        "consensus.fig8.decide_ticks_p50",
        percentile_sorted(&pass.decide_ticks, 50).unwrap_or(0) as f64,
    );
    report.layer(
        "core.properties.check_us_per_run",
        check_s.iter().sum::<f64>() * 1e6 / FIG8_RUNS as f64,
    );
    report.layer(
        "sim.snapshot.snapshot_us_p50",
        p50_us("sim.snapshot.snapshot_into"),
    );
    report.layer(
        "sim.snapshot.restore_us_p50",
        p50_us("sim.snapshot.restore_from"),
    );
    report.layer("detectors.evt_hp.leader_flips", pass.flips as f64);
    report.layer(
        "detectors.evt_hp.stabilize_ticks_max",
        pass.stabilize as f64,
    );
    report.note(format!(
        "fig8 probe: {FIG8_RUNS} runs x {} passes, {} decision samples, {} events a pass",
        floor.repeats(),
        pass.decide_ticks.len(),
        pass.events
    ));
}

fn small_sweep(seed: u64) -> SweepConfig {
    let mut cfg = SweepConfig::new(StackKind::Fig8EvtHp, 12).with_variants(8);
    cfg.base_seed = derive_seed(seed, 5) >> 16;
    cfg
}

/// Prefix-sharing executor against the flat one on a small config:
/// flat floor wall ÷ forked floor wall.
pub fn forked_over_flat(seed: u64, report: &mut Report, tracer: &mut Tracer) -> f64 {
    let cfg = small_sweep(seed);
    let floor = floor_over(2.0 * PROBE_SECONDS, || {
        let (flat, flat_s) = tracer.span("probe.sweep_flat", |_| falsification_sweep(&cfg));
        let (forked, forked_s) =
            tracer.span("probe.sweep_forked", |_| falsification_sweep_forked(&cfg));
        report.check(flat == forked, || {
            "flat and forked sweep reports differ on the small config".to_string()
        });
        vec![flat_s, forked_s]
    });
    floor.segments()[0] / floor.segments()[1]
}

pub struct CheckpointProbe {
    /// In-RAM forked sweep floor wall ÷ checkpointed sweep floor wall.
    pub durable_over_ram: f64,
    /// Floor wall of re-invoking the checkpointed sweep on its
    /// complete directory.
    pub resume_s: f64,
}

pub fn checkpointed_sweep(
    seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<CheckpointProbe, String> {
    let cfg = small_sweep(seed);
    let mut error = None;
    let floor = floor_over(2.0 * PROBE_SECONDS, || {
        match checkpointed_pass(&cfg, report, tracer) {
            Ok(seconds) => seconds.to_vec(),
            Err(e) => {
                error = Some(e);
                vec![f64::INFINITY; 3]
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let [ram_s, durable_s, resume_s] = floor.segments() else {
        unreachable!("three segments a pass");
    };
    Ok(CheckpointProbe {
        durable_over_ram: ram_s / durable_s,
        resume_s: *resume_s,
    })
}

/// In-RAM sweep, checkpointed sweep into a fresh directory, and its
/// re-invocation on the complete directory: seconds of each.
fn checkpointed_pass(
    cfg: &SweepConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<[f64; 3], String> {
    let dir = ScratchDir::create("checkpoint").map_err(|e| format!("scratch directory: {e}"))?;
    let ck = CheckpointConfig::new(dir.path());
    let (ram, ram_s) = tracer.span("probe.sweep_ram", |_| falsification_sweep_forked(cfg));
    let (durable, durable_s) = tracer.span("probe.sweep_checkpointed", |_| {
        checkpointed_falsification_sweep(cfg, &ck)
    });
    let (durable, stats) = durable.map_err(|e| format!("checkpointed sweep: {e}"))?;
    report.check(durable == ram, || {
        "checkpointed and in-RAM sweep reports differ".to_string()
    });
    report.check(stats.groups_executed == cfg.scenarios as u64, || {
        format!("fresh checkpoint directory executed {stats:?}")
    });
    let (resumed, resume_s) = tracer.span("probe.sweep_resume", |_| {
        checkpointed_falsification_sweep(cfg, &ck)
    });
    let (resumed, stats) = resumed.map_err(|e| format!("resumed sweep: {e}"))?;
    report.check(
        resumed == ram && stats.groups_resumed == cfg.scenarios as u64,
        || format!("resume re-executed groups or changed the report: {stats:?}"),
    );
    Ok([ram_s, durable_s, resume_s])
}
