//! End-to-end tests for the multi-height replicated log service
//! (`homonym_consensus::rsm`) through the session lifecycle API:
//!
//! * the acceptance bar — ≥100 heights committed under leader churn
//!   with agreement on every log prefix across correct homonyms;
//! * reference equivalence — a fixed-horizon run under leader churn is
//!   byte-identical (trace, metrics, recorder contents, logs) to the
//!   naive reference interpreter's;
//! * what a decided height costs — no `DECIDE` echo, and a `Commit`
//!   broadcast only from the replica with news, on a clean run — and
//!   that a replica cut off for 300 ticks still catches up, and one cut
//!   off for longer than its peers keep values through a state transfer;
//! * nobody is left behind — over 60 seeds of the churn family no
//!   replica is stranded while the others move on;
//! * who gets proposed — an open-loop run serves every client, each
//!   command once and in issue order, with or without a dead
//!   coordinator carrier, and the closed-loop log is pinned to the one
//!   recorded before forwarding existed;
//! * an idle service waits — with nothing to propose, no-op heights
//!   commit at least one `ANSWER_INTERVAL` apart;
//! * snapshot/fork properties — forks taken mid-height **and exactly at
//!   a height boundary**, under closed- or open-loop clients (so also
//!   while a replica waits to boot a height), continue byte-identically,
//!   the resumed log matches flat execution, and [`PrefixSweeper`] forks
//!   over log-service items agree with their flat baselines.

use homonym::chaos::generators::leader_churn_across_heights;
use homonym::chaos::session::{rsm_node, Goal, RsmNode, Session, SessionBuilder};
use homonym::chaos::sweep::hps_base;
use homonym::chaos::{FaultClause, GstPlacement, PartitionMode, Scenario};
use homonym::consensus::rsm::{LogEntry, RsmMsg, ANSWER_INTERVAL};
use homonym::consensus::{
    classify_byz, ByzHeightSeed, ByzMsg, ByzQuorumConsensus, ReplicatedLog, RsmOptions,
};
use homonym::detectors::evt_hp::{classify_evt_hp, EvtHpMsg, EvtHpSnapshot};
use homonym::prelude::*;
use homonym::sim::process::Action;
use homonym::sim::reference::ReferenceEngine;
use homonym::sim::workload::{
    is_noop, proposer_of, seq_of, ArrivalModel, CommandQueue, KeySkew, WorkloadConfig, NOOP,
};
use homonym::sim::Engine;
use proptest::prelude::*;

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        commands_per_proc: 512,
        arrival: ArrivalModel::Closed,
        keys: 256,
        skew: KeySkew::Squared,
        write_percent: 60,
        seed: 11,
    }
}

fn churn_builder(n: usize, l: usize, seed: u64) -> SessionBuilder {
    let assign = IdentityAssignment::round_robin(n, l);
    SessionBuilder::new(n, l)
        .with_seed(seed)
        .with_scenario(leader_churn_across_heights(&assign, seed))
}

/// The headline acceptance criterion: the log service commits at least
/// 100 heights while leader-carrier churn keeps knocking the `HΩ`
/// favourites out mid-height, and every pair of correct replicas agrees
/// on the shared log prefix.
#[test]
fn commits_100_heights_under_leader_churn_with_prefix_agreement() {
    let mut session = churn_builder(4, 2, 42)
        .with_goal(Goal::HeightsCommitted(100))
        .with_deadline_ticks(120_000)
        .rsm(&workload());
    let reason = session.run();
    let stats = session.stats();
    assert_eq!(
        reason,
        StopReason::ConditionMet,
        "did not reach 100 heights: {stats:?}"
    );
    assert!(stats.min_correct_log >= Some(100), "stats: {stats:?}");
    assert!(
        session.prefix_violation().is_none(),
        "correct replicas diverged: {:?}",
        session.prefix_violation()
    );
}

/// Runs `churn_builder(n, l, seed)` toward 100 heights on every replica
/// within 20 000 ticks; returns whether it got there and the longest
/// log. Prefix agreement is asserted either way.
fn churn_run(n: usize, l: usize, seed: u64) -> (bool, u64) {
    let mut session = churn_builder(n, l, seed)
        .with_goal(Goal::HeightsCommitted(100))
        .with_deadline_ticks(20_000)
        .rsm(&workload());
    let reason = session.run();
    assert!(
        session.prefix_violation().is_none(),
        "n = {n}, seed {seed}: correct replicas diverged"
    );
    let stats = session.stats();
    (
        reason == StopReason::ConditionMet,
        stats.max_log.unwrap_or(0),
    )
}

/// Churn drops copies, and the height engines never retransmit, so a
/// replica can lose the copies that would have taken it through a height
/// while the others move on without it. It must not stay there: a
/// replica that sits at one height repeats its last `Commit` and is
/// answered with the entry it misses (and one at height 0, with nothing
/// to repeat, is certified by its stalled peers' repeats). At n = 8,
/// ℓ = 4 every one of 60 seeds reaches 100 heights on every replica
/// (36 left a replica at height ≤ 3 for ever before). At n = 4, ℓ = 2
/// a quorum is 3 of 4, so one lost copy can stop the *whole* system at
/// one height — the engine's no-retransmission price, which pulling
/// entries cannot pay — and such a run is excused; a run where somebody
/// reached 100 heights and somebody else did not is not (7 of 60
/// before, with 29 whole-system stalls; 18 stalls measured now).
#[test]
fn no_replica_is_stranded_under_leader_churn() {
    for seed in 1..=60 {
        let (met, max_log) = churn_run(8, 4, seed);
        assert!(met, "n = 8, seed {seed}: longest log {max_log}");
    }
    let failing: Vec<(u64, u64)> = (1..=60)
        .map(|seed| (seed, churn_run(4, 2, seed)))
        .filter(|&(_, (met, _))| !met)
        .map(|(seed, (_, max_log))| (seed, max_log))
        .collect();
    for &(seed, max_log) in &failing {
        assert!(max_log < 100, "n = 4, seed {seed}: a replica is stranded");
    }
    assert!(failing.len() <= 29, "whole-system stalls: {failing:?}");
}

/// The Figure 8 variant of the log service chains heights across
/// repeated queue-mode partitions (crash-model catch-up quorum of one).
///
/// It gets `flapping_minority` rather than the churn family on purpose:
/// churn windows lower to message-dropping link faults, and Figure 8
/// broadcasts each round message exactly once — its `on_timer` only
/// re-evaluates guards, it never retransmits — so a single dropped
/// COORD can stall the Leaders' Coordination Phase forever. That is
/// exactly why the sweep classifies churn scenarios as lossy and
/// withholds liveness claims there; the Byzantine-tolerant default
/// engine (tested above) is the churn-tolerant choice.
#[test]
fn fig8_log_service_survives_flapping_partitions() {
    use homonym::chaos::generators::flapping_minority;
    let mut session = SessionBuilder::new(4, 2)
        .with_seed(7)
        .with_scenario(flapping_minority(4, 7))
        .with_goal(Goal::HeightsCommitted(40))
        .with_deadline_ticks(120_000)
        .rsm_fig8(&workload());
    let reason = session.run();
    assert_eq!(
        reason,
        StopReason::ConditionMet,
        "stats: {:?}",
        session.stats()
    );
    assert!(session.prefix_violation().is_none());
}

fn classify(msg: &Either<EvtHpMsg, RsmMsg<ByzMsg>>) -> &'static str {
    match msg {
        Either::L(m) => classify_evt_hp(m),
        Either::R(RsmMsg::Inner { msg, .. }) => classify_byz(msg),
        Either::R(RsmMsg::Commit { state: Some(_), .. }) => "RSM_STATE",
        Either::R(RsmMsg::Commit { .. }) => "RSM_COMMIT",
    }
}

/// A height is over for the log the moment its engine decides: on a
/// clean closed-loop run no `DECIDE` echo is ever broadcast, and a
/// `Commit` is broadcast only by a replica with news — the one whose
/// client's command just committed and whose next one is due, once per
/// height, plus every replica's first announcement and the odd status —
/// where every replica used to push one per height (8 per height; 1.12
/// measured now). The tail of a height's copies reaching a replica that
/// already committed it still earns no answer.
#[test]
fn a_clean_run_broadcasts_no_decide_and_commit_only_on_news() {
    let n = 8;
    let mut session = SessionBuilder::new(n, 4)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(4_000)
        .rsm(&workload());
    session.engine_mut().set_classifier(classify);
    session.run();
    let by_class = &session.engine().metrics().by_class;
    let heights = session.stats().max_log.unwrap_or(0);
    assert!(heights >= 400, "only {heights} heights");
    assert_eq!(by_class.get("DECIDE").copied().unwrap_or(0), 0);
    let commits = by_class.get("RSM_COMMIT").copied().unwrap_or(0);
    assert!(
        (heights..=2 * heights).contains(&commits),
        "{commits} Commit broadcasts over {heights} heights"
    );
}

/// A replica cut off for 300 ticks (its traffic queued until the heal)
/// is some forty heights behind when the partition lifts; the `Commit`s
/// queued for it certify every one of them and it rejoins at the tip.
#[test]
fn a_replica_partitioned_for_300_ticks_catches_up() {
    let n = 8;
    let cut_off = 7;
    let scenario = Scenario::new("cut-off-replica", n)
        .with_gst(GstPlacement::Keep)
        .with_clause(FaultClause::Partition {
            groups: vec![vec![cut_off], (0..cut_off).collect()],
            start: Time::from_ticks(1_000),
            heal_at: Time::from_ticks(1_300),
            mode: PartitionMode::QueueUntilHeal,
        });
    let builder = SessionBuilder::new(n, 4)
        .with_scenario(scenario)
        .with_goal(Goal::TickHorizon);
    let height_at = |ticks| {
        let mut session = builder.clone().with_deadline_ticks(ticks).rsm(&workload());
        session.run();
        assert!(session.prefix_violation().is_none(), "at tick {ticks}");
        let len = |p| session.log_of(p).unwrap_or_default().len();
        (len(cut_off), len(0))
    };
    let (behind, tip) = height_at(1_299);
    assert!(tip >= behind + 30, "the rest moved on: {behind} vs {tip}");
    let (caught_up, tip) = height_at(1_400);
    assert!(caught_up + 2 >= tip, "still behind: {caught_up} vs {tip}");
}

/// A replica whose traffic is dropped for 1 500 ticks — 183 heights,
/// nearly three times the 64 its peers keep — has nothing queued when
/// the partition lifts, and asks for a height its peers no longer hold.
/// They answer with their state, and one certified state takes it to
/// their height: it publishes the tail it did not have and never the
/// heights below it, and the session still reads its whole log.
#[test]
fn a_replica_cut_off_past_the_ring_catches_up_through_a_state_transfer() {
    let n = 8;
    let cut_off = 7;
    let scenario = Scenario::new("dropped-replica", n)
        .with_gst(GstPlacement::Keep)
        .with_clause(FaultClause::Partition {
            groups: vec![vec![cut_off], (0..cut_off).collect()],
            start: Time::from_ticks(1_000),
            heal_at: Time::from_ticks(2_500),
            mode: PartitionMode::DropWhilePartitioned,
        });
    let builder = SessionBuilder::new(n, 4)
        .with_scenario(scenario)
        .with_goal(Goal::TickHorizon);
    let run_to = |ticks| {
        let mut session = builder.clone().with_deadline_ticks(ticks).rsm(&workload());
        session.engine_mut().set_classifier(classify);
        session.run();
        assert!(session.prefix_violation().is_none(), "at tick {ticks}");
        session
    };
    let height =
        |session: &Session<RsmNode>, p: usize| session.engine().process(p).upper().height();
    let cut = run_to(2_499);
    assert!(height(&cut, 0) > height(&cut, cut_off) + 2 * 64);
    let healed = run_to(3_500);
    let (caught_up, tip) = (height(&healed, cut_off), height(&healed, 0));
    assert!(caught_up + 2 >= tip, "still behind: {caught_up} vs {tip}");
    let by_class = &healed.engine().metrics().by_class;
    assert!(by_class.get("RSM_STATE").is_some_and(|&states| states > 0));
    let own = published(&healed.engine().histories()[cut_off]);
    assert!(own.len() < healed.log_of(cut_off).unwrap_or_default().len());
    assert_eq!(
        healed.log_of(cut_off).unwrap_or_default().len() as u64,
        caught_up
    );
}

/// An open-loop n = 8, ℓ = 4 run of 20 000 ticks (a command per client
/// every 400 ticks on average) with `crashed` down from tick 0: the log
/// and, per process, its client's commands as `(command, due tick)`.
fn open_loop_run(crashed: &[usize]) -> (Vec<u64>, Vec<Vec<(u64, u64)>>) {
    let n = 8;
    let clients = WorkloadConfig {
        commands_per_proc: 64,
        arrival: ArrivalModel::Open {
            mean_gap_ticks: 400,
        },
        ..workload()
    };
    let mut schedule = FailureSchedule::none(n);
    for &p in crashed {
        schedule = schedule.with_crash(p, Time::ZERO);
    }
    let mut session = SessionBuilder::new(n, 4)
        .with_schedule(schedule)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(20_000)
        .rsm(&clients);
    session.run();
    assert!(session.prefix_violation().is_none());
    let witness = (0..n).find(|p| !crashed.contains(p)).expect("someone");
    let log = session.log_of(witness).unwrap_or_default().to_vec();
    let issued = |mut q: CommandQueue| {
        let mut out = Vec::new();
        while let Some(due) = q.next_arrival() {
            let cmd = q.proposal(due);
            out.push((cmd, due.ticks()));
            q.on_commit(cmd);
        }
        out
    };
    (log, clients.queues(n).into_iter().map(issued).collect())
}

/// Every command of a live client due 2 000 ticks before the horizon is
/// in the log, every logged command is some client's, exactly once and
/// in its client's issue order, and every live client is served.
fn assert_all_served(log: &[u64], issued: &[Vec<(u64, u64)>], crashed: &[usize]) {
    let mut served = vec![0usize; issued.len()];
    for &cmd in log.iter().filter(|&&cmd| !is_noop(cmd)) {
        let p = proposer_of(cmd);
        let expected = issued[p].get(served[p]).map(|&(cmd, _)| cmd);
        assert_eq!(Some(cmd), expected, "client {p}, seq {}", seq_of(cmd));
        served[p] += 1;
    }
    for (p, stream) in issued.iter().enumerate() {
        if crashed.contains(&p) {
            assert_eq!(served[p], 0, "client {p} never spoke");
            continue;
        }
        let due = stream.iter().filter(|&&(_, t)| t + 2_000 <= 20_000).count();
        assert!(due >= 30, "client {p}: only {due} commands due");
        assert!(served[p] >= due, "client {p}: {} of {due}", served[p]);
    }
}

/// A client attached to any replica is served: its due command reaches
/// the round's coordinators on the `Commit` broadcast.
#[test]
fn an_open_loop_run_serves_every_client_once_and_in_order() {
    let (log, issued) = open_loop_run(&[]);
    assert_all_served(&log, &issued, &[]);
}

/// The same with process 0 — one of the two carriers of the round-0
/// coordinator label — dead from the start: the seven live clients are
/// served through the other carrier or the next round's coordinators.
#[test]
fn an_open_loop_run_serves_every_client_past_a_dead_coordinator_carrier() {
    let (log, issued) = open_loop_run(&[0]);
    assert_all_served(&log, &issued, &[0]);
}

/// The closed-loop log, pinned by length and FNV-1a fingerprint after
/// 10 000 ticks: a replica whose own client always has a command
/// proposes it, whatever else it holds. Re-pinned once (from 1 316
/// entries, `0x2802_dd2e_12ff_8ad8`) when replicas stopped pushing a
/// `Commit` at every height: the one time in this run a replica adopted
/// a height from three pushed copies before its own engine decided, it
/// now commits on that decision, and the seven broadcasts a height no
/// longer sends no longer draw from the network's delay stream, so
/// later delays — and with them which client's command a height picks
/// — differ. The engine's deadline timers alone left the old pin
/// standing.
#[test]
fn the_closed_loop_log_is_pinned() {
    let clients = WorkloadConfig {
        commands_per_proc: 4_096, // the winner must not drain
        ..workload()
    };
    let mut session = SessionBuilder::new(8, 4)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(10_000)
        .rsm(&clients);
    session.run();
    let log = session.log_of(0).unwrap_or_default();
    let fingerprint = log.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((log.len(), fingerprint), (1_321, 0x2e3f_e001_a412_d4b5));
}

/// The Figure 8 log, pinned the same way after 10 000 ticks at n = 4,
/// ℓ = 2: every height's engine starts from the `HΩ` reading the replica
/// holds when the height opens, so a height engine spawned from a stale
/// reading moves the log. Re-pinned once (from 1 253 entries,
/// `0x743c_c358_1a5e_5c6a`) when the status chain stopped arming the
/// firings that would only find a boot: the firing after one is now
/// armed at the boot, so its timer takes an earlier place among the
/// events of its tick. The first event that moved is a stall status sent
/// ahead of a detector broadcast of the same tick (tick 192); from there
/// the network's delay draws, and the log, differ. No event was added or
/// dropped before it.
#[test]
fn the_fig8_log_is_pinned() {
    let clients = WorkloadConfig {
        commands_per_proc: 4_096, // the winner must not drain
        ..workload()
    };
    let mut session = SessionBuilder::new(4, 2)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(10_000)
        .rsm_fig8(&clients);
    session.run();
    let log = session.log_of(0).unwrap_or_default();
    let fingerprint = log.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((log.len(), fingerprint), (1_267, 0xb979_0c81_5feb_36d1));
}

/// Fixed-horizon runs are the reference-interpreter comparison surface:
/// under an active churn scenario the engine's full dispatch trace, its
/// metrics, its recorder contents and every replica's log equal the
/// naive interpreter's.
#[test]
fn hot_paths_agree_on_events_and_logs_under_churn() {
    let builder = churn_builder(4, 2, 3)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(6_000)
        .with_trace(2_000_000)
        .with_recorder(2_000_000);
    let mut session = builder.clone().rsm(&workload());
    session.run();
    let engine = session.engine();

    let (assign, queues) = (builder.assignment(), workload().queues(4));
    let mut reference = ReferenceEngine::new(builder.sim_config(), |p, _| {
        rsm_node(&assign, queues[p].clone())
    });
    reference.enable_trace(2_000_000);
    reference.enable_recorder(2_000_000);
    reference.run_until(session.deadline());

    let trace = engine.trace().expect("enabled");
    assert_eq!(trace.dropped(), 0, "trace capacity too small to compare");
    assert_eq!(trace, reference.trace().expect("enabled"), "trace diverged");
    assert_eq!(engine.metrics(), reference.metrics(), "metrics diverged");
    let recorded = engine.recorder().expect("enabled");
    assert_eq!(recorded.dropped(), 0, "recorder capacity too small");
    assert_eq!(
        recorded.events(),
        reference.recorder().expect("enabled").events(),
        "recorder contents diverged"
    );
    for p in 0..4 {
        let log = session.log_of(p).unwrap_or_default();
        assert_eq!(log, published(&reference.histories()[p]), "replica {p}");
        assert_eq!(log.len() as u64, reference.process(p).upper().height());
    }
    assert!(
        (0..4).any(|p| !session.log_of(p).unwrap_or_default().is_empty()),
        "horizon run committed nothing"
    );
}

/// The log values a replica's history records, in commit order.
fn published(history: &[(Time, Either<EvtHpSnapshot, LogEntry>)]) -> Vec<u64> {
    let entry = |(_, output): &(Time, Either<EvtHpSnapshot, LogEntry>)| match output {
        Either::R(entry) => Some(entry.value),
        Either::L(_) => None,
    };
    history.iter().filter_map(entry).collect()
}

type RsmState = (
    Vec<Vec<u64>>,
    Vec<u64>,
    Metrics,
    Vec<Option<(Time, u64)>>,
    u64,
);

fn rsm_state(engine: &Engine<RsmNode>) -> RsmState {
    let n = engine.n();
    (
        engine.histories().iter().map(|h| published(h)).collect(),
        (0..n)
            .map(|p| engine.process(p).upper().state_hash())
            .collect(),
        engine.metrics().clone(),
        engine.decisions().to_vec(),
        engine.now().ticks(),
    )
}

/// The clients of the snapshot and fork properties: the closed loop,
/// or open-loop arrivals sparse enough that most heights find every
/// replica idle, so a cut often lands while a replica waits to boot.
fn clients(open: bool) -> WorkloadConfig {
    if !open {
        return workload();
    }
    WorkloadConfig {
        commands_per_proc: 64,
        arrival: ArrivalModel::Open {
            mean_gap_ticks: 200,
        },
        ..workload()
    }
}

fn mk_engine(seed: u64, scenario_seed: u64, open: bool) -> Engine<RsmNode> {
    churn_builder(4, 2, seed)
        .with_scenario(leader_churn_across_heights(
            &IdentityAssignment::round_robin(4, 2),
            scenario_seed,
        ))
        .rsm(&clients(open))
        .into_engine()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// A snapshot taken at a random mid-run instant — almost always
    /// mid-height, or under open-loop clients often mid-wait — restored
    /// and continued is byte-identical to the uninterrupted run: same
    /// logs, same state hashes, same metrics, same decisions.
    #[test]
    fn rsm_snapshot_restore_is_byte_identical(
        seed in any::<u64>(),
        scenario_seed in 0u64..500,
        cut in 20u64..2_000,
        open in any::<bool>(),
    ) {
        let horizon = Time::from_ticks(4_000);
        let mut baseline = mk_engine(seed, scenario_seed, open);
        baseline.run_until(horizon);
        let expected = rsm_state(&baseline);

        let mut engine = mk_engine(seed, scenario_seed, open);
        engine.run_until(Time::from_ticks(cut));
        let snap = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&rsm_state(&engine), &expected);

        // Rewind and replay: the resumed log matches flat execution.
        engine.restore_from(&snap);
        engine.run_until(horizon);
        prop_assert_eq!(&rsm_state(&engine), &expected);

        // Fresh arena-backed resume too (the sweep executor's path).
        let mut resumed = Engine::resume_in(engine.config().clone(), &snap, EngineArena::new());
        resumed.run_until(horizon);
        prop_assert_eq!(&rsm_state(&resumed), &expected);
    }

    /// A fork taken **exactly at a height boundary** — the instant some
    /// replica's log first reaches `k` entries — continues
    /// byte-identically. Height turnover (engine
    /// replacement, buffered-future drain, timer-stride bump) is the
    /// riskiest instant for fork soundness, so it gets its own cut
    /// placement. Under open-loop clients the replica that just moved
    /// up usually has nothing to propose, so the fork lands while it
    /// waits to boot the height.
    #[test]
    fn rsm_fork_at_height_boundary_is_byte_identical(
        seed in any::<u64>(),
        scenario_seed in 0u64..500,
        k in 1u64..12,
        open in any::<bool>(),
    ) {
        let horizon = Time::from_ticks(4_000);
        let mut baseline = mk_engine(seed, scenario_seed, open);
        baseline.run_until(horizon);
        let expected = rsm_state(&baseline);

        let mut engine = mk_engine(seed, scenario_seed, open);
        // Stop at the first instant replica 0's log holds k entries: a
        // height boundary (or the horizon, if k heights never happen).
        engine.run_with(horizon, |e| e.process(0).upper().height() >= k);
        let snap = engine.snapshot();
        engine.run_until(horizon);
        prop_assert_eq!(&rsm_state(&engine), &expected);

        let mut resumed = Engine::resume_in(engine.config().clone(), &snap, EngineArena::new());
        resumed.run_until(horizon);
        prop_assert_eq!(&rsm_state(&resumed), &expected);
    }

    /// [`PrefixSweeper`] forks over log-service items: two items sharing
    /// a configuration but stopping at different horizons share their
    /// prefix through a fork, and both extracted logs match fresh flat
    /// runs of the same items.
    #[test]
    fn prefix_sweeper_forks_match_flat_rsm_runs(
        seed in any::<u64>(),
        scenario_seed in 0u64..500,
        first in 200u64..1_500,
        extra in 100u64..2_000,
        open in any::<bool>(),
    ) {
        let assign = IdentityAssignment::round_robin(4, 2);
        let scenario = leader_churn_across_heights(&assign, scenario_seed);
        let queues = clients(open).queues(4);
        let cfg = SimConfig::new(assign.clone(), FailureSchedule::none(4), hps_base())
            .with_seed(seed);
        let cfg = scenario.install(cfg).expect("valid scenario");
        let items: Vec<PrefixItem<()>> = [first, first + extra]
            .into_iter()
            .map(|t| PrefixItem {
                config: cfg.clone(),
                goal: RunGoal::Until(Time::from_ticks(t)),
                tag: (),
            })
            .collect();
        let factory = {
            let assign = assign.clone();
            let queues = queues.clone();
            move |_item: usize, p: usize, _id: Identity| {
                rsm_node(&assign, queues[p].clone())
            }
        };
        let extract = |engine: &mut Engine<RsmNode>, _i: usize| rsm_state(engine);

        let mut sweeper: PrefixSweeper<RsmNode> = PrefixSweeper::new();
        let shared = sweeper.run_family(&items, &factory, extract);
        prop_assert!(sweeper.stats.forked > 0, "items must share a prefix");

        for (item, got) in items.iter().zip(&shared) {
            let mut flat = Engine::new(item.config.clone(), |p, id| factory(0, p, id));
            flat.run_until(item.goal.deadline());
            prop_assert_eq!(&rsm_state(&flat), got);
        }
    }
}

/// The published history is the committed log: every `LogEntry` output
/// of a correct replica appears in height order, one per height it
/// committed, and matches the log the session reads verbatim.
#[test]
fn published_entries_reconstruct_the_log() {
    let mut session = SessionBuilder::new(4, 2)
        .with_seed(13)
        .with_goal(Goal::HeightsCommitted(20))
        .with_deadline_ticks(30_000)
        .rsm(&workload());
    session.run();
    let engine = session.engine();
    for p in 0..4 {
        let log = session.log_of(p).unwrap_or_default();
        let replica = engine.process(p).upper();
        assert_eq!(log.len() as u64, replica.height(), "replica {p}");
        let published: Vec<LogEntry> = engine.histories()[p]
            .iter()
            .filter_map(|(_, out)| match out {
                Either::R(entry) => Some(*entry),
                Either::L(_) => None,
            })
            .collect();
        assert_eq!(published.len(), log.len(), "replica {p}");
        for (h, (entry, &value)) in published.iter().zip(&log).enumerate() {
            assert_eq!(entry.height, h as u64, "replica {p}");
            assert_eq!(entry.value, value, "replica {p}");
        }
    }
}

/// A service with nothing to do waits: every replica holds each no-op
/// height back for one `ANSWER_INTERVAL` before its engine runs, so
/// commits come at least that far apart, where a no-op height used to
/// take six ticks or so. The wait never stalls the log: the first
/// replica's timer boots the height and its traffic wakes the rest.
#[test]
fn an_idle_service_waits_an_answer_interval_between_noop_heights() {
    let n = 8;
    let quiet = WorkloadConfig {
        commands_per_proc: 0,
        arrival: ArrivalModel::Open {
            mean_gap_ticks: 400,
        },
        ..workload()
    };
    let horizon = 4_000;
    let mut session = SessionBuilder::new(n, 4)
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(horizon)
        .rsm(&quiet);
    session.run();
    assert!(session.prefix_violation().is_none());
    let wait = ANSWER_INTERVAL.ticks();
    for p in 0..n {
        let commits: Vec<(u64, u64)> = session.engine().histories()[p]
            .iter()
            .filter_map(|(t, out)| match out {
                Either::R(entry) => Some((t.ticks(), entry.value)),
                Either::L(_) => None,
            })
            .collect();
        assert!(commits.iter().all(|&(_, v)| is_noop(v)), "replica {p}");
        assert!(
            commits.len() as u64 >= horizon / (2 * wait),
            "replica {p}: {} heights",
            commits.len()
        );
        for pair in commits.windows(2) {
            let gap = pair[1].0 - pair[0].0;
            assert!(gap >= wait, "replica {p}: heights {gap} ticks apart");
        }
    }
}

/// A height's engine leaves no timer behind when the height ends: one
/// that decides cancels the deadline its deciding phase had armed (the
/// log lets a cancel pass the cut at the decision), and one whose height
/// is adopted from a certificate while it waits out a grace is closed,
/// which cancels that wait's. So no timer of a decided height is ever
/// pending. Driven by hand at n = 4, ℓ = 2, for a carrier of label 1 in a
/// closed loop: every height boots at once and waits for round 0's
/// coordinators, label 0, with the grace armed. A height-`h` engine's
/// timers travel under tags `16 · (h + 1)` and up; the log's own are 0
/// and 1.
#[test]
fn a_decided_height_leaves_no_timer_pending() {
    type Log = ReplicatedLog<ByzQuorumConsensus>;
    let assign = IdentityAssignment::round_robin(4, 2);
    let queues = workload().queues(4);
    let opts = RsmOptions::byzantine(&assign);
    let seed = ByzHeightSeed {
        assign: assign.clone(),
    };
    let mut node: Log = ReplicatedLog::new(seed, queues[1].clone(), &assign, opts);
    let me = assign.id_of(1);
    let mut pending: Vec<(u64, TimerTag)> = Vec::new();
    let mut step = |node: &mut Log, at: u64, msg: Option<RsmMsg<ByzMsg>>| {
        let mut actions = Vec::new();
        let mut sink = ActionSink::new(me, Time::from_ticks(at), &mut actions);
        match msg {
            Some(msg) => node.on_message(msg, &mut sink),
            None => node.on_start(&mut sink),
        }
        for action in actions {
            match action {
                Action::SetTimer(d, tag) if tag.0 >= 16 => {
                    pending.push((at + d.ticks().max(1), tag));
                }
                Action::CancelTimer(due, tag) if tag.0 >= 16 => {
                    pending.retain(|&armed| armed != (due.ticks(), tag));
                }
                _ => {}
            }
        }
        pending.clone()
    };
    let grace = |height: u64, from: u64| (from + 10, TimerTag((height + 1) * 16));
    assert_eq!(step(&mut node, 0, None), [grace(0, 0)]);

    // Height 0: the coordinators and a vote quorum at tick 1 (which
    // cancels the coordinators' grace); then `wait` commits without a
    // quorum, which arm the commit phase's grace; then the commit that
    // makes the quorum, at tick 3.
    let est = 5;
    let id = |p: usize| assign.id_of(p);
    let engine = |msg| Some(RsmMsg::Inner { height: 0, msg });
    let coord = ByzMsg::Coord {
        id: id(0),
        round: 0,
        est,
        locked: false,
    };
    let vote = |p| ByzMsg::Vote {
        id: id(p),
        round: 0,
        est,
        locked: false,
    };
    let commit = |p, val| ByzMsg::Commit {
        id: id(p),
        round: 0,
        val,
    };
    let mut left = Vec::new();
    for msg in [coord, coord, vote(0), vote(1), vote(2)] {
        left = step(&mut node, 1, engine(msg));
    }
    assert_eq!(left, [], "the grace the coordinators ended");
    for msg in [commit(0, Some(est)), commit(1, Some(est)), commit(3, None)] {
        left = step(&mut node, 2, engine(msg));
    }
    assert_eq!(left, [grace(0, 1)], "the commit phase's, from tick 1");
    let decided = step(&mut node, 3, engine(commit(2, Some(est))));
    assert_eq!(node.height(), 1);
    assert_eq!(decided, [grace(1, 3)], "height 1's wait only");

    // Height 1 is adopted from `commit_quorum` peers' commits while its
    // engine waits for the coordinators.
    for p in [0, 2] {
        let certificate = RsmMsg::Commit {
            height: 1,
            value: NOOP,
            id: id(p),
            next: NOOP,
            state: None,
        };
        left = step(&mut node, 4, Some(certificate));
    }
    assert_eq!(node.height(), 2);
    assert_eq!(left, [grace(2, 4)], "height 2's wait only");
}
