//! The two log-service workloads: `SessionBuilder::rsm` — the `◇HP`
//! detector under `ReplicatedLog<ByzQuorumConsensus>` — at n = 8, ℓ = 4,
//! run to a fixed tick horizon on the default partial-synchrony network.
//!
//! **`log_steady`** — closed loop (one command in flight per client, 8
//! clients), no faults, 100 k ticks (≈ 4 k heights). Consensus rounds,
//! the height envelope and the detector do nearly all the work and the
//! adversary and the store none. Batching, pipelining and traffic cuts
//! (ROADMAP 3) must show here. The issue asked for 500 k ticks, long
//! enough that a per-height cost that is not flat (ROADMAP 4a) shows
//! in throughput and resident memory; a repeat of that length takes
//! 3.4 to 6.5 s depending on the host's other tenants, five or six fit
//! in a run, and no statistic of five or six is steady on this host
//! (see [`Floor`]). The traced run keeps one 500 k-tick pass as a
//! probe, so the growth still has a line in the ledger.
//!
//! **`log_faults_open`** — the same stack used differently: open-loop
//! arrivals on a schedule (mean gap 400 ticks per client, about half
//! of the one-command-per-25-ticks capacity), process 0
//! crashing for good at T/4 and process 5 at T/2 (f = 2), and a
//! queue-until-heal partition isolating a rotating two-process
//! minority for 300 ticks every 2 000. Catch-up `Commit` traffic, link-fault routing, quorum
//! loss and recovery all run. A gain on `log_steady` bought by starving
//! laggards, dropping catch-up or deciding no-ops shows here as
//! `served_share`, `commit_ticks_p99` or `service_gap_ticks_max`. (A
//! churn-based schedule was tried and rejected: churn lowers to dropped
//! copies, stranded replicas never catch up and the service halts for
//! good — a robustness bug for ROADMAP 4, not a baseline for speed.)

use std::collections::{BTreeMap, BTreeSet};

use homonym_chaos::session::{Goal, RsmNode, Session, SessionBuilder};
use homonym_chaos::{FaultClause, GstPlacement, PartitionMode, Scenario};
use homonym_consensus::{classify_byz, ByzMsg, LogEntry, RsmMsg};
use homonym_core::time::Time;
use homonym_detectors::{classify_evt_hp, EvtHpMsg};
use homonym_obs::{ObsKind, Recorder, RunStats};
use homonym_sim::workload::{is_noop, proposer_of, ArrivalModel, WorkloadConfig};
use homonym_sim::{CommandQueue, Either};

use crate::arrivals::{reconstruct, Arrival};
use crate::common::{derive_seed, time, Budget, Floor};
use crate::probes;
use crate::report::Report;
use crate::spec::Workload;
use crate::stats::{jain_index, percentile_sorted, supported_tail};
use crate::trace::{allocations, count_allocations, Tracer};

pub const N: usize = 8;
pub const L: usize = 4;
/// Ticks both workloads run for.
pub const HORIZON: u64 = 100_000;

/// Ticks per `run_until` slice of the timed section: ≈ 2 ms of host
/// time, short enough to fit whole between two preemptions and to find
/// quiet moments on a busy host (see [`Floor`]), long enough that the
/// clock reads cost nothing. With a busy loop sharing the child's CPU
/// for the whole run, 8 ms slices read a floor 1.7 times the quiet
/// one, 2 ms slices 1.02 times (the median repeat doubled in both).
pub const SLICE_TICKS: u64 = 500;

/// Horizon of the traced `log_steady` run's long-run probe: the length
/// the issue asked the workload itself to have.
pub const LONG_RUN_TICKS: u64 = 500_000;

/// A command counts as attempted only if it was due this long before
/// the horizon, so the service had time to commit it.
const GRACE_TICKS: u64 = 2_000;

/// Closed-loop stream length per client: eight times what one client
/// commits today over the workload's horizon, so a faster service does
/// not drain it (draining is a fatal check, not a silent switch to
/// no-ops), and enough for the long-run probe.
const CLOSED_COMMANDS: usize = 1 << 15;

pub const OPEN_MEAN_GAP: u64 = 400;

/// Open-loop stream length per client: the arrivals expected in the
/// horizon plus 28 %, so arrivals outlast the run.
const OPEN_COMMANDS: usize = (HORIZON / OPEN_MEAN_GAP * 32 / 25) as usize;

pub const PARTITION_EVERY: u64 = 2_000;
pub const PARTITION_TICKS: u64 = 300;
pub const CRASHES: [(usize, u64); 2] = [(0, HORIZON / 4), (5, HORIZON / 2)];

/// Recorder capacity for the traced run, twice what `log_steady`
/// emits; an overflow is reported as `obs.recorder.dropped`.
const RECORDER_CAPACITY: usize = 1 << 20;

/// Everything the service receives, generated from the seed: the
/// clients' command streams and arrival instants.
///
/// The environment is not an input. Network delays and the processes'
/// own random streams are drawn from the session's default seed, the
/// same for every `--seed`: host time per event on this stack swings
/// by a factor of 1.8 with the environment's draws (flat at ≈ 140
/// ns/event under some, growing to ≈ 300 under others, at equal event
/// counts), which would bury any change to the program under the
/// spread between seeds.
pub struct Inputs {
    clients: WorkloadConfig,
    scenario: Option<Scenario>,
    /// Processes the fault schedule crashes.
    crashing: BTreeSet<usize>,
}

/// The fault schedule of `log_faults_open` (independent of the seed:
/// the seed varies arrivals, commands and network delays under it).
pub fn fault_scenario() -> Scenario {
    let mut scenario = Scenario::new("bench-log-faults-open", N).with_gst(GstPlacement::Keep);
    for (process, at) in CRASHES {
        scenario = scenario.with_clause(FaultClause::Crash {
            process,
            at: Time::from_ticks(at),
        });
    }
    let mut start = PARTITION_EVERY;
    let mut window = 0usize;
    while start + PARTITION_TICKS < HORIZON {
        let minority = [(2 * window) % N, (2 * window + 1) % N];
        let rest: Vec<usize> = (0..N).filter(|p| !minority.contains(p)).collect();
        scenario = scenario.with_clause(FaultClause::Partition {
            groups: vec![minority.to_vec(), rest],
            start: Time::from_ticks(start),
            heal_at: Time::from_ticks(start + PARTITION_TICKS),
            mode: PartitionMode::QueueUntilHeal,
        });
        start += PARTITION_EVERY;
        window += 1;
    }
    scenario
}

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let open = workload == Workload::LogFaultsOpen;
    let clients = WorkloadConfig {
        commands_per_proc: if open { OPEN_COMMANDS } else { CLOSED_COMMANDS },
        arrival: if open {
            ArrivalModel::Open {
                mean_gap_ticks: OPEN_MEAN_GAP,
            }
        } else {
            ArrivalModel::Closed
        },
        seed: derive_seed(seed, 1),
        ..WorkloadConfig::default()
    };
    Inputs {
        clients,
        scenario: open.then(fault_scenario),
        crashing: if open {
            CRASHES.iter().map(|&(p, _)| p).collect()
        } else {
            BTreeSet::new()
        },
    }
}

impl Inputs {
    /// The session options of a run of `ticks` ticks.
    pub fn builder_to(&self, ticks: u64) -> SessionBuilder {
        let builder = SessionBuilder::new(N, L)
            .with_goal(Goal::TickHorizon)
            .with_deadline_ticks(ticks);
        match &self.scenario {
            Some(s) => builder.with_scenario(s.clone()),
            None => builder,
        }
    }

    pub fn builder(&self) -> SessionBuilder {
        self.builder_to(HORIZON)
    }

    pub fn scenario(&self) -> Option<&Scenario> {
        self.scenario.as_ref()
    }

    pub fn clients(&self) -> &WorkloadConfig {
        &self.clients
    }
}

/// Set-up as the end-to-end metric counts it: inputs from the seed,
/// then the session.
fn build(workload: Workload, seed: u64) -> (Inputs, Session<RsmNode>) {
    let inputs = inputs(workload, seed);
    let session = inputs.builder().rsm(&inputs.clients);
    (inputs, session)
}

fn classify(msg: &Either<EvtHpMsg, RsmMsg<ByzMsg>>) -> &'static str {
    match msg {
        Either::L(m) => classify_evt_hp(m),
        Either::R(RsmMsg::Inner { msg, .. }) => classify_byz(msg),
        Either::R(RsmMsg::Commit { .. }) => "RSM_COMMIT",
    }
}

/// What the finished run says, read off public state only.
struct Analysis {
    heights: u64,
    max_log: u64,
    commands: u64,
    noops: u64,
    winners: usize,
    events: u64,
    latency_sorted: Vec<u64>,
    fairness: f64,
    service_gap: u64,
    due: u64,
    served: u64,
    verified_bad: u64,
}

fn analyze(session: &Session<RsmNode>, inputs: &Inputs, report: &mut Report) -> Analysis {
    let engine = session.engine();
    let stats = session.stats();
    let sched = &engine.config().sched;
    let correct: Vec<usize> = (0..N).filter(|&p| sched.is_correct(p)).collect();
    let heights = stats.min_correct_log.unwrap_or(0);
    let max_log = stats.max_log.unwrap_or(0);

    report.check(session.prefix_violation().is_none(), || {
        format!("prefix violation: {:?}", session.prefix_violation())
    });

    // Each replica's commits in commit order: (tick, height, value).
    let commits: Vec<Vec<(u64, LogEntry)>> = engine
        .histories()
        .iter()
        .map(|h| {
            h.iter()
                .filter_map(|(t, o)| match o {
                    Either::R(entry) => Some((t.ticks(), *entry)),
                    Either::L(_) => None,
                })
                .collect()
        })
        .collect();

    let witness = correct[0];
    let prefix = &session
        .log_of(witness)
        .expect("rsm sessions have a log view")
        [..usize::try_from(heights).expect("heights fit usize")];
    let generated: Vec<Vec<Arrival>> = inputs
        .clients
        .queues(N)
        .iter()
        .map(|q: &CommandQueue| reconstruct(q, HORIZON))
        .collect();

    // Verify every committed command: generated by its proposer,
    // committed once, and in the proposer's issue order.
    let mut per_client = [0u64; N];
    let mut noops = 0u64;
    let mut verified_bad = 0u64;
    for &value in prefix {
        if is_noop(value) {
            noops += 1;
            continue;
        }
        let p = proposer_of(value);
        match (generated.get(p), per_client.get_mut(p)) {
            (Some(stream), Some(count)) => {
                if stream.get(*count as usize).map(|a| a.cmd) != Some(value) {
                    verified_bad += 1;
                }
                *count += 1;
            }
            _ => verified_bad += 1,
        }
    }
    let commands: u64 = per_client.iter().sum();
    report.check(commands >= 1, || "no client command committed".to_string());
    report.check(verified_bad == 0, || {
        format!("{verified_bad} committed commands are not the proposer's next generated command")
    });

    // Due → commit latency in the proposer's own history, and the
    // served share over never-crashing proposers.
    let mut latency = Vec::new();
    let (mut due_count, mut served) = (0u64, 0u64);
    let closed = inputs.clients.arrival == ArrivalModel::Closed;
    for p in 0..N {
        let own: BTreeMap<u64, u64> = commits[p]
            .iter()
            .filter(|(_, e)| !is_noop(e.value) && proposer_of(e.value) == p)
            .map(|&(t, e)| (e.value, t))
            .collect();
        let mut previous_commit = Some(0u64);
        for a in &generated[p] {
            // Closed loop: a command is due when its predecessor
            // commits; one whose predecessor never did is not due yet.
            let due = if closed {
                previous_commit
            } else {
                Some(a.tick)
            };
            let Some(due) = due else { break };
            let committed = own.get(&a.cmd).copied();
            if let Some(at) = committed {
                latency.push(at.saturating_sub(due));
            }
            if !inputs.crashing.contains(&p) && due + GRACE_TICKS <= HORIZON {
                due_count += 1;
                served += u64::from(committed.is_some());
            }
            previous_commit = committed;
            if closed && committed.is_none() {
                break;
            }
        }
        report.check(own.len() < generated[p].len() || !closed, || {
            format!("client {p} drained its closed-loop stream; raise CLOSED_COMMANDS")
        });
    }
    latency.sort_unstable();

    let never_crashing: Vec<u64> = (0..N)
        .filter(|p| !inputs.crashing.contains(p))
        .map(|p| per_client[p])
        .collect();

    // First-commit instant of each height over the correct replicas.
    let mut first_commit: Vec<u64> = vec![u64::MAX; usize::try_from(max_log).expect("fits")];
    for &p in &correct {
        for &(t, e) in &commits[p] {
            let slot = &mut first_commit[usize::try_from(e.height).expect("fits")];
            *slot = (*slot).min(t);
        }
    }
    first_commit.retain(|&t| t != u64::MAX);
    let mut service_gap = 0u64;
    let mut last = 0u64;
    for &t in &first_commit {
        service_gap = service_gap.max(t.saturating_sub(last));
        last = last.max(t);
    }
    // The stretch from the last commit to the horizon counts too: a
    // service that halts for good must not report a short gap.
    service_gap = service_gap.max(HORIZON.saturating_sub(last));

    Analysis {
        heights,
        max_log,
        commands,
        noops,
        winners: per_client.iter().filter(|&&c| c > 0).count(),
        events: stats.events,
        latency_sorted: latency,
        fairness: jain_index(&never_crashing),
        service_gap,
        due: due_count,
        served,
        verified_bad,
    }
}

fn emit_sim(a: &Analysis, report: &mut Report) {
    let p50 = percentile_sorted(&a.latency_sorted, 50).unwrap_or(0);
    let (tail_p, tail) = supported_tail(&a.latency_sorted, &[50, 90, 99]).unwrap_or((50, 0));
    report.sim("commit_ticks_p50", p50 as f64);
    report.sim("commit_ticks_p99", tail as f64);
    report.note(format!(
        "commit_ticks: {} samples; tail reported at p{tail_p} (p99 needs 10 samples beyond it); \
         open-loop generator lateness is 0 by construction in simulated time",
        a.latency_sorted.len()
    ));
    report.sim(
        "events_per_command",
        a.events as f64 / a.commands.max(1) as f64,
    );
    report.sim("client_fairness", a.fairness);
    report.sim("service_gap_ticks_max", a.service_gap as f64);
    report.sim("served_share", a.served as f64 / a.due.max(1) as f64);
    report.note(format!(
        "served_share: {} of {} commands of never-crashing proposers due at least {GRACE_TICKS} ticks \
         before the horizon were committed; {} clients had a command committed",
        a.served, a.due, a.winners
    ));
    report.attempted = a.commands;
    report.failed = a.verified_bad;
}

/// One pass over the inputs of `seed`: set-up, the timed section in
/// slices, and what the finished run says.
struct Pass {
    setup_s: f64,
    slices: Vec<probes::Slice>,
    /// Simulated metrics and failed checks of this pass.
    facts: Report,
}

fn pass(workload: Workload, seed: u64) -> Pass {
    let ((inputs, mut session), setup_s) = time(|| build(workload, seed));
    let slices = probes::run_sliced(&mut session, HORIZON, &mut None);
    let mut facts = Report::default();
    let a = analyze(&session, &inputs, &mut facts);
    emit_sim(&a, &mut facts);
    Pass {
        setup_s,
        slices,
        facts,
    }
}

/// The untraced measurement — recorder, classifier and allocation
/// counting all off: passes repeated while `seconds` last, host time
/// read from the per-slice floor, every pass analysed and held to the
/// first one's simulated metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let budget = Budget::new(seconds);
    let mut floor = Floor::default();
    let mut setup_s = f64::INFINITY;
    let mut walls = Vec::new();
    while budget.more(floor.repeats()) {
        let pass = pass(workload, seed);
        let seconds: Vec<f64> = pass.slices.iter().map(|s| s.seconds).collect();
        walls.push(seconds.iter().sum());
        report.fold_repeat(floor.repeats(), pass.facts);
        floor.add(&seconds);
        setup_s = setup_s.min(pass.setup_s);
    }
    report.host("setup_s", setup_s);
    report.host("ops_per_s", report.attempted as f64 / floor.wall_s());
    report.host("wall_s", floor.wall_s());
    report.note(probes::floor_note(&floor, &walls));
}

/// Rounds each replica entered per height, from the recorder: the
/// log service marks every commit with `PhaseEnter { phase: "HEIGHT" }`
/// and the height engine marks every round with `PhaseEnter { phase:
/// "VOTE" }`, rounds counted from 0.
fn rounds_per_height(rec: &Recorder) -> Vec<u64> {
    let mut current: BTreeMap<usize, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for e in rec.events() {
        match &e.kind {
            ObsKind::PhaseEnter {
                round,
                phase: "VOTE",
            } => {
                let r = current.entry(e.process).or_insert(0);
                *r = (*r).max(round + 1);
            }
            ObsKind::PhaseEnter {
                phase: "HEIGHT", ..
            } => {
                if let Some(r) = current.remove(&e.process) {
                    out.push(r);
                }
            }
            _ => {}
        }
    }
    out.sort_unstable();
    out
}

/// The traced run: same inputs, recorder and classifier attached,
/// allocations counted, the horizon cut into the same `run_until`
/// slices with a span around each — repeated while `seconds` last, so
/// its host times are floors like the untraced ones — plus the layer
/// probes shaped like this workload.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    untraced_wall_s: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let budget = Budget::new(seconds);
    let mut floor = Floor::default();
    let mut walls = Vec::new();
    let (mut generate_s, mut build_s) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    while budget.more(floor.repeats()) {
        // The previous pass's session goes before the next is built:
        // one recorder's worth of memory at a time.
        drop(last.take());
        let (inputs, s) = tracer.span("sim.workload.generate", |_| {
            let inputs = inputs(workload, seed);
            std::hint::black_box(inputs.clients.queues(N));
            inputs
        });
        generate_s = generate_s.min(s);
        let (mut session, s) = tracer.span("chaos.session.build", |_| {
            inputs
                .builder()
                .with_recorder(RECORDER_CAPACITY)
                .rsm(&inputs.clients)
        });
        build_s = build_s.min(s);
        session.engine_mut().set_classifier(classify);

        let allocs_before = allocations();
        count_allocations(true);
        let (slices, _) = tracer.span("chaos.session.run_sliced", |tracer| {
            probes::run_sliced(&mut session, HORIZON, &mut Some(tracer))
        });
        count_allocations(false);
        let allocs = allocations() - allocs_before;
        let seconds: Vec<f64> = slices.iter().map(|s| s.seconds).collect();
        walls.push(seconds.iter().sum());
        floor.add(&seconds);
        last = Some((inputs, session, slices, allocs));
    }
    let (inputs, session, slices, allocs) = last.expect("at least one pass");
    let traced_wall = floor.wall_s();
    let slice_events: Vec<u64> = slices.iter().map(|s| s.events).collect();
    let fifth_ns_per_event = probes::ns_per_event_by_fifth(&slice_events, floor.segments());

    let (a, _) = tracer.span("benchmark.analyze", |_| analyze(&session, &inputs, report));
    // The traced run must be the same run: simulated metrics equal to
    // the untraced ones are checked by the parent.
    emit_sim(&a, report);

    let engine = session.engine();
    let m = engine.metrics();
    let commands = a.commands.max(1) as f64;
    let heights = a.heights.max(1) as f64;
    let class = |name: &str| m.by_class.get(name).copied().unwrap_or(0) as f64;
    report.layer("sim.engine.events", m.events as f64);
    report.layer(
        "sim.engine.ns_per_event",
        traced_wall * 1e9 / m.events.max(1) as f64,
    );
    report.layer(
        "sim.engine.ns_per_event_last_over_first",
        probes::last_over_first(&fifth_ns_per_event),
    );
    report.layer(
        "sim.engine.copies_sent_per_command",
        m.copies_sent as f64 / commands,
    );
    report.layer(
        "sim.engine.copies_delivered_per_command",
        m.copies_delivered as f64 / commands,
    );
    report.layer(
        "sim.engine.timers_per_command",
        m.timers_fired as f64 / commands,
    );
    report.layer(
        "sim.engine.allocs_per_event",
        allocs as f64 / m.events.max(1) as f64,
    );
    report.layer("sim.adversary.copies_blocked", m.copies_blocked as f64);
    report.layer("sim.network.copies_lost", m.copies_lost as f64);
    report.layer("sim.workload.generate_s", generate_s);
    report.layer("chaos.session.build_s", build_s);
    report.layer(
        "detectors.evt_hp.broadcasts_per_command",
        (class("POLLING") + class("P_REPLY")) / commands,
    );
    report.layer(
        "consensus.byz_quorum.broadcasts_per_command.vote",
        class("VOTE") / commands,
    );
    report.layer(
        "consensus.byz_quorum.broadcasts_per_command.commit",
        class("COMMIT") / commands,
    );
    report.layer(
        "consensus.byz_quorum.broadcasts_per_command.decide",
        class("DECIDE") / commands,
    );
    report.layer(
        "consensus.rsm.commit_broadcasts_per_height",
        class("RSM_COMMIT") / heights,
    );
    report.layer("consensus.rsm.ticks_per_height", HORIZON as f64 / heights);
    report.layer(
        "consensus.rsm.heights_per_s",
        a.heights as f64 / untraced_wall_s,
    );
    report.layer("consensus.rsm.noop_share", a.noops as f64 / heights);
    report.layer("consensus.rsm.winners_distinct", a.winners as f64);
    report.layer(
        "consensus.rsm.replica_lag_max",
        (a.max_log - a.heights) as f64,
    );

    let recorder = engine.recorder().expect("recorder attached above");
    let run_stats = RunStats::from_recorder(recorder);
    let rounds = rounds_per_height(recorder);
    let (tail_p, rounds_tail) = supported_tail(&rounds, &[50, 90, 99]).unwrap_or((50, 0));
    report.layer(
        "consensus.byz_quorum.cert_size_p50",
        run_stats.certificate_sizes.percentile(50) as f64,
    );
    report.layer(
        "consensus.byz_quorum.ledger_discards",
        run_stats.ledger_discards as f64,
    );
    report.layer(
        "consensus.byz_quorum.rounds_per_height_p50",
        percentile_sorted(&rounds, 50).unwrap_or(0) as f64,
    );
    report.layer(
        "consensus.byz_quorum.rounds_per_height_p99",
        rounds_tail as f64,
    );
    report.note(format!(
        "rounds_per_height: {} samples, tail at p{tail_p}",
        rounds.len()
    ));
    let correct = (0..N)
        .filter(|&p| engine.config().sched.is_correct(p))
        .count();
    let (flips, stabilize) = probes::detector_settling(recorder, correct);
    report.layer("detectors.evt_hp.leader_flips", flips as f64);
    report.layer("detectors.evt_hp.stabilize_ticks_max", stabilize as f64);
    report.layer("obs.recorder.events", recorder.events().len() as f64);
    report.layer("obs.recorder.dropped", recorder.dropped() as f64);
    report.layer("obs.recorder.overhead_ratio", traced_wall / untraced_wall_s);
    report.note(format!(
        "floor walls: untraced {untraced_wall_s:.3} s, traced {traced_wall:.3} s; \
         ns/event per fifth of the horizon {fifth_ns_per_event:.1?}; traced {}",
        probes::floor_note(&floor, &walls)
    ));
    drop(session);

    // Probes: one layer at a time, on inputs shaped like this workload.
    let mesh = probes::mesh(&inputs, seed, tracer);
    report.layer("sim.engine.mesh_ns_per_event", mesh.clean_ns_per_event);
    report.layer("sim.engine.mesh_n64_events_per_s", mesh.n64_events_per_s);
    report.layer("sim.adversary.mesh_overhead_ratio", mesh.overhead_ratio);
    let solo = probes::detector_solo(&inputs, tracer);
    report.layer(
        "detectors.evt_hp.solo_time_share",
        solo.wall_s / untraced_wall_s,
    );
    report.layer(
        "detectors.evt_hp.solo_ns_per_event_last_over_first",
        solo.last_over_first,
    );
    report.layer(
        "consensus.rsm.n1_ticks_per_height",
        probes::single_node_log(&inputs.clients, seed, tracer),
    );
    report.layer(
        "detectors.h_sigma_sync.steps_per_s",
        probes::sync_hsigma(seed, tracer),
    );
    report.note(format!(
        "probe floor walls: detector alone {:.3} s over the same horizon ({} events)",
        solo.wall_s, solo.events
    ));
    let long_run = if workload == Workload::LogSteady {
        let by_fifth = probes::long_run(&inputs, tracer);
        report.note(format!(
            "long-run probe: one {LONG_RUN_TICKS}-tick pass, ns/event per fifth {by_fifth:.1?}"
        ));
        probes::last_over_first(&by_fifth)
    } else {
        0.0
    };
    report.layer("sim.engine.long_run_ns_per_event_last_over_first", long_run);
}
