//! The contract of the durable codec (`homonym_core::wire`) on the
//! state it exists to carry — whole engine snapshots:
//!
//! * **fixed point** — what a snapshot's bytes decode to encodes to the
//!   same bytes, for the n = 32 `◇HP` detector the `durable_cycle`
//!   workload checkpoints, for the Figure 8 stack, whose consensus half
//!   holds the detector's last `HΩ` output as a plain value, for the
//!   tolerant stack with a grace-deadline timer
//!   armed, and for the log service over it, cut mid-height, while a
//!   replica waits to boot a height (its wait's end and its engine's
//!   `◇HP` reading decode as they were) and while a stalled service
//!   backs its status chain off (the resumed run fires it at the same
//!   ticks);
//! * **sharing survives** — history entries that shared one `◇HP` bag
//!   before a round trip share one after it;
//! * **a snapshot costs what the state costs** — a stabilised detector's
//!   histories gain no entry and its snapshot keeps inside a byte budget,
//!   however long the run;
//! * **the queue travels as deltas** — a timer armed before a copy that
//!   lands first steps the sequence number back and round-trips, and a
//!   tick step past `u64::MAX` is a typed error;
//! * **hostile bytes** — arbitrary strings, truncations and single-byte
//!   mutations of valid encodings (a detector snapshot, a log-stack
//!   snapshot, a command queue, every
//!   variant of every message the stacks send) yield a typed error or a
//!   value that encodes to a decodable string, never a panic, and a
//!   corrupt count never sizes an allocation; and the forgeries a
//!   Byzantine sender puts on the wire (`Process::mutate_payload`) are
//!   total over every variant and field value.
//!
//! The primitives themselves (varint boundaries, canonical forms, bad
//! back-references) are pinned by the codec's unit tests.

use std::sync::Arc;

use homonym::chaos::generators::leader_churn_across_heights;
use homonym::chaos::{
    byz_tolerant_node, fig8_node, hps_base, rsm_node, ByzTolerantNode, Fig8Node, RsmNode,
    SessionBuilder,
};
use homonym::consensus::rsm::ANSWER_INTERVAL;
use homonym::consensus::{
    ByzMsg, ByzQuorumConsensus, Fig8Msg, HOmegaPolicy, MajorityConsensus, ReplicatedLog, RsmMsg,
    StatePart,
};
use homonym::core::classes::{HOmegaOutput, Label};
use homonym::core::failure::FailureSchedule;
use homonym::core::identity::{Identity, IdentityAssignment};
use homonym::core::properties::{History, PropertyViolation, RunVerdict};
use homonym::core::time::{Span, Time};
use homonym::core::wire::{self, Loader, Persist, WireError};
use homonym::detectors::{EvtHpMsg, EvtHpProcess, EvtHpSnapshot};
use homonym::sim::{
    decode_container, encode_container, read_verified, ActionSink, ArrivalModel, CommandQueue,
    Either, Engine, EngineArena, EngineSnapshot, KeySkew, NetworkModel, ObsKind, Process,
    SimConfig, TimerTag, WorkloadConfig,
};
use proptest::prelude::*;

type Detector = Engine<EvtHpProcess>;
type DetectorSnapshot = EngineSnapshot<EvtHpProcess>;
type LogSnapshot = EngineSnapshot<RsmNode>;

/// The engine `durable_cycle` checkpoints, at any size, run to `ticks`.
fn detector_at(n: usize, l: usize, ticks: u64) -> Detector {
    let config = SimConfig::new(
        IdentityAssignment::round_robin(n, l),
        FailureSchedule::none(n),
        hps_base(),
    );
    let mut e = Engine::new(config, |_, _| EvtHpProcess::new());
    e.run_until(Time::from_ticks(ticks));
    e
}

fn fig8_at(ticks: u64) -> Engine<Fig8Node> {
    let (n, t) = (4, 1);
    let config = SimConfig::new(
        IdentityAssignment::round_robin(n, 2),
        FailureSchedule::none(n),
        hps_base(),
    )
    .with_seed(11);
    let mut e = Engine::new(config, |p, _| fig8_node(100 + p as u64, n, t));
    e.run_until(Time::from_ticks(ticks));
    e
}

/// The log service over the detector at n = 4, ℓ = 2 under leader
/// churn, cut two ticks into its third height: a live height engine,
/// commit tallies and both halves' traffic in flight.
fn log_at() -> Engine<RsmNode> {
    let assign = IdentityAssignment::round_robin(4, 2);
    let builder = SessionBuilder::new(4, 2).with_scenario(leader_churn_across_heights(&assign, 1));
    let queues = WorkloadConfig::default().queues(4);
    let mut e = Engine::new(builder.sim_config(), |p, _| {
        rsm_node(&assign, queues[p].clone())
    });
    e.run_with(Time::MAX, |e| e.process(0).upper().height() == 2);
    e.run_until(e.now() + Span::from_ticks(2));
    assert_eq!(e.process(0).upper().height(), 2, "the cut is mid-height");
    e
}

/// `to_bytes ∘ from_bytes` is the identity on the encoding of `e`'s
/// snapshot.
fn assert_fixed_point<P>(e: &Engine<P>, what: &str)
where
    P: Process + Clone,
    EngineSnapshot<P>: Persist,
{
    let bytes = wire::to_bytes(&e.snapshot());
    assert_eq!(
        bytes,
        wire::to_bytes(&e.snapshot()),
        "{what}: two encodings of one state differ"
    );
    let decoded: EngineSnapshot<P> = wire::from_bytes(&bytes).expect("a valid encoding decodes");
    assert!(
        wire::to_bytes(&decoded) == bytes,
        "{what}: the decoded snapshot encodes to other bytes"
    );
}

#[test]
fn a_detector_snapshot_is_a_fixed_point_of_the_round_trip() {
    for ticks in [0, 700, 4_000] {
        assert_fixed_point(&detector_at(32, 4, ticks), &format!("n = 32 at {ticks}"));
    }
}

/// Cuts before, during and after the decision: estimates in flight
/// (heap-owning payloads, queued as shared copies), then only the
/// detector's traffic.
#[test]
fn a_figure_8_stack_snapshot_is_a_fixed_point_of_the_round_trip() {
    for ticks in [3, 10, 400] {
        assert_fixed_point(&fig8_at(ticks), &format!("Figure 8 at {ticks}"));
    }
}

/// The tolerant stack's engine keeps one marker per armed deadline
/// timer. Cuts: at tick 1 every process has just armed its wait for the
/// round-0 coordinators (`on_start` does, and no `COORD` can have
/// arrived), at 12 that deadline has passed with later phases' waits
/// open, at 400 the decision is long made. A snapshot that dropped the
/// marker would re-arm on resume and fire a timer the flat run does not.
/// The two later cuts also carry a non-zero `copies_unaddressed` (the
/// detector half's `P_REPLY`s), which the resumed run has to end on.
#[test]
fn a_tolerant_stack_snapshot_with_a_deadline_timer_armed_is_a_fixed_point() {
    let n = 4;
    let assign = IdentityAssignment::round_robin(n, 2);
    let config = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base()).with_seed(11);
    let node = |p: usize| byz_tolerant_node(100 + p as u64, &assign);
    let mut flat: Engine<ByzTolerantNode> = Engine::new(config.clone(), |p, _| node(p));
    flat.run_until(Time::from_ticks(400));
    for ticks in [1, 12, 400] {
        let mut e: Engine<ByzTolerantNode> = Engine::new(config.clone(), |p, _| node(p));
        e.run_until(Time::from_ticks(ticks));
        assert_fixed_point(&e, &format!("tolerant stack at {ticks}"));
        let decoded: EngineSnapshot<ByzTolerantNode> =
            wire::from_bytes(&wire::to_bytes(&e.snapshot())).expect("decodes");
        let mut resumed = Engine::resume_in(config.clone(), &decoded, EngineArena::new());
        assert_eq!(resumed.metrics(), e.metrics(), "decoded at {ticks}");
        assert!(ticks == 1 || e.metrics().copies_unaddressed > 0);
        resumed.run_until(Time::from_ticks(400));
        assert_eq!(resumed.metrics(), flat.metrics(), "resumed from {ticks}");
        assert_eq!(resumed.decisions(), flat.decisions());
    }
    // The log service runs this engine once a height, under the detector.
    assert_fixed_point(&log_at(), "the log stack mid-height");
}

/// Trace events kept of a log stack's run: more than the runs below
/// record (a resumed run checks that it dropped none).
const TRACE_CAPACITY: usize = 100_000;

/// Replica `p`'s status firings in `e`'s trace, in ticks: the log's
/// status timer is its tag 1, which a stack's upper half arms as tag
/// 2 · 1 + 1.
fn status_firings(e: &Engine<RsmNode>, p: usize) -> Vec<u64> {
    let status = ObsKind::TimerFired { tag: 3 };
    let trace = e.trace().expect("traced");
    let fired = trace.for_process(p).filter(|ev| ev.kind == status);
    fired.map(|ev| ev.at.ticks()).collect()
}

/// A log stack of `n` replicas over `queues` under `config`, traced,
/// run to `horizon` straight (the first engine returned) and cut where
/// `cut` first holds (the second). The cut must fall before the horizon
/// and be a fixed point of the round trip.
fn log_run_and_cut(
    config: &SimConfig,
    queues: &[CommandQueue],
    horizon: Time,
    cut: impl FnMut(&Engine<RsmNode>) -> bool,
) -> (Engine<RsmNode>, Engine<RsmNode>) {
    let assign = config.assign.clone();
    let start = || {
        let mut e: Engine<RsmNode> =
            Engine::new(config.clone(), |p, _| rsm_node(&assign, queues[p].clone()));
        e.enable_trace(TRACE_CAPACITY);
        e
    };
    let mut flat = start();
    flat.run_until(horizon);
    let mut e = start();
    e.run_with(horizon, cut);
    assert!(e.now() < horizon, "the cut falls before the horizon");
    assert_fixed_point(&e, "the log stack at the cut");
    (flat, e)
}

/// `e`'s snapshot, encoded, decoded and resumed.
fn resumed(e: &Engine<RsmNode>) -> Engine<RsmNode> {
    let decoded: LogSnapshot = wire::from_bytes(&wire::to_bytes(&e.snapshot())).expect("decodes");
    Engine::resume_in(e.config().clone(), &decoded, EngineArena::new())
}

/// The run resumed at the cut `e` replays the straight run `flat` to
/// `horizon` event for event — replica 1's status firings after the
/// cut at the same ticks, with the same actions after them.
fn assert_resumes_the_run(e: &Engine<RsmNode>, flat: &Engine<RsmNode>, horizon: Time) {
    let mut resumed = resumed(e);
    resumed.run_until(horizon);
    assert_eq!(resumed.metrics(), flat.metrics());
    assert_eq!(resumed.trace().expect("traced").dropped(), 0);
    assert_eq!(resumed.trace(), flat.trace(), "every event at its tick");
    let after = status_firings(flat, 1)
        .into_iter()
        .filter(|&t| t > e.now().ticks());
    assert!(after.count() > 0, "the clock fires after the cut");
    for p in 1..e.n() {
        let (a, b) = (resumed.process(p).upper(), flat.process(p).upper());
        assert_eq!((a.height(), a.state_hash()), (b.height(), b.state_hash()));
    }
}

/// The log stack keeps what a fault-free closed loop never sets: a
/// replica's idle wait before a no-op height (its end), the height
/// engine's `◇HP` reading of the carriers gone, and a backed-off status
/// chain — the replica's one clock, due far past one period. Cut twice
/// at n = 4, ℓ = 2 with open-loop clients: past process 0's crash, at
/// the first instant replica 1 waits, where the decoded replica waits
/// for the same end and awaits one `COORD` from the dead carrier's
/// label; and past the crash of both carriers of one label, while the
/// stalled service backs off. Each cut is a fixed point, and the run
/// resumed from it replays the uncut one event for event: the clock
/// fires at the same ticks, with the same actions.
#[test]
fn a_log_snapshot_taken_while_a_replica_waits_round_trips_the_wait_and_the_hint() {
    let n = 4;
    let assign = IdentityAssignment::round_robin(n, 2);
    let clients = WorkloadConfig {
        commands_per_proc: 32,
        arrival: ArrivalModel::Open {
            mean_gap_ticks: 400,
        },
        ..WorkloadConfig::default()
    };
    let queues = clients.queues(n);
    let crashing = |crashed: &[usize]| {
        let at = Time::from_ticks(300);
        let schedule = (crashed.iter()).fold(FailureSchedule::none(n), |s, &p| s.with_crash(p, at));
        SessionBuilder::new(n, 2)
            .with_schedule(schedule)
            .sim_config()
    };
    let horizon = Time::from_ticks(4_000);

    let label = assign.id_of(0);
    let (flat, e) = log_run_and_cut(&crashing(&[0]), &queues, horizon, |e| {
        let replica = e.process(1).upper();
        replica.idle_until().is_some() && replica.engine().coords_awaited(label) == 1
    });
    let waits = e.process(1).upper().idle_until();
    assert!(waits.is_some(), "the cut is mid-wait");
    let at_cut = resumed(&e);
    let replica = at_cut.process(1).upper();
    assert_eq!(replica.idle_until(), waits);
    assert_eq!(replica.engine().coords_awaited(label), 1);
    assert_resumes_the_run(&e, &flat, horizon);

    let cut = Time::from_ticks(1_500);
    let (flat, e) = log_run_and_cut(&crashing(&[0, 2]), &queues, horizon, |e| e.now() >= cut);
    let fired = status_firings(&flat, 1);
    let last = fired.iter().rev().find(|&&t| t <= e.now().ticks());
    let next = fired.iter().find(|&&t| t > e.now().ticks());
    let gap = next.expect("a firing after the cut") - last.expect("one before it");
    assert!(
        gap >= 4 * ANSWER_INTERVAL.ticks(),
        "the cut is mid-back-off: {fired:?}"
    );
    assert_eq!(
        e.process(1).upper().height(),
        flat.process(1).upper().height(),
        "stalled"
    );
    assert_resumes_the_run(&e, &flat, horizon);
}

/// Cancelled timers leave the queue, so a snapshot never holds one and
/// a resumed run never fires one. In a fault-free closed loop at n = 4,
/// ℓ = 2 every boot of a height cancels the replica's status firing due
/// within the next two periods (it would only find the boot) and arms
/// the one after, and every height's `COORD`s cancel the grace deadline
/// its engine armed at the boot. Cut right after replica 1 boots height
/// 20, mid-tick — between the cancel of its status firing and the tick
/// that firing named — and again once that tick is over: each cut is a
/// fixed point, and the run resumed from it replays the uncut one event
/// for event. In the uncut run no engine deadline fires at all, and
/// replica 1's chain fires nowhere near the cut.
#[test]
fn a_log_snapshot_cut_between_a_cancel_and_its_tick_resumes_the_run() {
    let n = 4;
    let queues = WorkloadConfig::default().queues(n);
    let config = SessionBuilder::new(n, 2).sim_config();
    let horizon = Time::from_ticks(600);
    let booted = |e: &Engine<RsmNode>| e.process(1).upper().height() == 20;
    let (flat, mid_tick) = log_run_and_cut(&config, &queues, horizon, booted);
    let mut tick_end = resumed(&mid_tick);
    tick_end.run_until(mid_tick.now());
    assert_fixed_point(&tick_end, "the log stack at the end of the cut's tick");
    let cut = mid_tick.now().ticks();

    let trace = flat.trace().expect("traced");
    let engine_deadline =
        |kind: &ObsKind| matches!(*kind, ObsKind::TimerFired { tag } if tag >= 33);
    assert!(!trace.events().iter().any(|ev| engine_deadline(&ev.kind)));
    let near = |t: &u64| (cut..=cut + 2 * ANSWER_INTERVAL.ticks()).contains(t);
    assert!(!status_firings(&flat, 1).iter().any(near));

    for e in [&mid_tick, &tick_end] {
        let mut resumed = resumed(e);
        resumed.run_until(horizon);
        assert_eq!(resumed.metrics(), flat.metrics());
        assert_eq!(resumed.trace().expect("traced").dropped(), 0);
        assert_eq!(resumed.trace(), flat.trace(), "every event at its tick");
    }
}

/// For every entry of every history, whether it holds the same `◇HP`
/// bag allocation as the entry before it.
fn sharing(histories: &[History<EvtHpSnapshot>]) -> Vec<Vec<bool>> {
    histories
        .iter()
        .map(|h| {
            h.windows(2)
                .map(|w| Arc::ptr_eq(&w[0].1.evt_hp, &w[1].1.evt_hp))
                .collect()
        })
        .collect()
}

/// A history holds change points, so two consecutive entries share a
/// bag only where the timeout or the `HΩ` pair moved under an unchanged
/// one. The run at seed 0 (`SimConfig`'s default) cut at tick 3 000 has
/// both kinds: 33 shared, 36 fresh.
#[test]
fn history_entries_that_shared_a_bag_share_one_after_a_round_trip() {
    let e = detector_at(32, 4, 3_000);
    let before = sharing(e.histories());
    let shared = before.iter().flatten().filter(|&&s| s).count();
    let fresh = before.iter().flatten().filter(|&&s| !s).count();
    assert!(
        shared > 0 && fresh > 0,
        "the run must both change its bag and keep one: {shared} shared, {fresh} fresh"
    );
    let decoded: DetectorSnapshot =
        wire::from_bytes(&wire::to_bytes(&e.snapshot())).expect("decodes");
    let resumed = Engine::resume_in(e.config().clone(), &decoded, EngineArena::new());
    assert_eq!(resumed.histories(), e.histories());
    assert_eq!(sharing(resumed.histories()), before);
}

/// What `durable_cycle` pays for: a snapshot of a stabilised n = 32
/// detector does not grow. The histories hold the output's change points
/// — 101 entries in all, at most 4 a process, the same at 10 000 ticks
/// and at 20 000 — and the whole snapshot fits 3.5 KB at both (3 090 and
/// 3 108 bytes measured; 4 488 and 4 538 while every process persisted
/// a random stream, the detector its bag twice and the queue absolute
/// ticks; 10 663 and 10 698 while held replies were a list). What
/// breathes with the instant of the cut is the queue and the held
/// counts, not the record.
#[test]
fn a_snapshot_costs_what_the_state_costs() {
    let measure = |e: &Detector| {
        let entries: Vec<usize> = e.histories().iter().map(Vec::len).collect();
        (wire::to_bytes(&e.snapshot()).len(), entries)
    };
    let mut e = detector_at(32, 4, 10_000);
    let (bytes_10k, entries_10k) = measure(&e);
    e.run_until(Time::from_ticks(20_000));
    let (bytes_20k, entries_20k) = measure(&e);
    assert_eq!(entries_10k, entries_20k, "a stabilised history grew");
    assert!(entries_10k.iter().all(|len| (1..=4).contains(len)));
    assert!(bytes_10k <= 3_500, "{bytes_10k} bytes at 10 000 ticks");
    assert!(bytes_20k <= 3_500, "{bytes_20k} bytes at 20 000 ticks");
}

// ---------------------------------------------------------------------
// The queue's deltas.
// ---------------------------------------------------------------------

/// One process that arms a timer for each of its delays at start, tagged
/// by position, and does nothing else: a queue whose every entry the
/// test placed.
#[derive(Clone)]
struct Alarms {
    delays: Vec<u64>,
}

impl Process for Alarms {
    type Msg = ();
    type Output = ();
    fn on_start(&mut self, ctx: &mut ActionSink<'_, (), ()>) {
        for (tag, &delay) in (0..).zip(&self.delays) {
            ctx.set_timer(Span::from_ticks(delay), TimerTag(tag));
        }
    }
    fn on_message(&mut self, _msg: (), _ctx: &mut ActionSink<'_, (), ()>) {}
    fn on_timer(&mut self, _timer: TimerTag, _ctx: &mut ActionSink<'_, (), ()>) {}
}

homonym::core::persist_fields!(Alarms { delays });

/// A one-process engine that has armed `delays`, run to `ticks`.
fn alarms_at(delays: &[u64], ticks: u64) -> Engine<Alarms> {
    let config = SimConfig::new(
        IdentityAssignment::round_robin(1, 1),
        FailureSchedule::none(1),
        NetworkModel::Synchronous,
    );
    let delays = delays.to_vec();
    let mut e = Engine::new(config, move |_, _| Alarms {
        delays: delays.clone(),
    });
    e.enable_trace(64);
    e.run_until(Time::from_ticks(ticks));
    e
}

/// Where `needle` starts in `bytes`; it must occur exactly once.
fn find_once(bytes: &[u8], needle: &[u8]) -> usize {
    let at: Vec<usize> = (0..bytes.len().saturating_sub(needle.len() - 1))
        .filter(|&i| bytes[i..].starts_with(needle))
        .collect();
    assert_eq!(at.len(), 1, "{needle:?} in {bytes:?}");
    at[0]
}

/// Sequence numbers are handed out as actions are taken, so the timer
/// armed first (tag 0, for tick 10, seq 1) is dispatched after the one
/// armed second (tag 1, for tick 5, seq 2): in dispatch order the
/// sequence number steps back, and zigzag(−1) = 1 encodes the step. The
/// queue's bytes are the two entries `(tick step, zigzag(seq step),
/// event)` after their count, and the run resumed from them fires the
/// two timers in the order the uninterrupted one does.
#[test]
fn a_queue_whose_sequence_numbers_step_back_is_a_fixed_point() {
    let e = alarms_at(&[10, 5], 0);
    let bytes = wire::to_bytes(&e.snapshot());
    // Count 2; (5, +2, timer 1 at p0); (5, −1, timer 0 at p0).
    find_once(&bytes, &[2, 5, 4, 3, 0, 1, 5, 1, 3, 0, 0]);
    assert_fixed_point(&e, "a queue with its sequence numbers inverted");

    let mut flat = alarms_at(&[10, 5], 0);
    flat.run_until(Time::from_ticks(20));
    let decoded: EngineSnapshot<Alarms> = wire::from_bytes(&bytes).expect("decodes");
    let mut resumed = Engine::resume_in(e.config().clone(), &decoded, EngineArena::new());
    resumed.run_until(Time::from_ticks(20));
    assert_eq!(resumed.trace(), flat.trace());
    assert_eq!(resumed.metrics().timers_fired, 2);
}

/// The ticks of a queue's entries are a running sum, checked: a step
/// that carries it past `u64::MAX` is a typed error, not a wrapped tick.
#[test]
fn a_queue_whose_tick_steps_overflow_is_a_wire_error() {
    const FAR: u64 = 1 << 62;
    let bytes = wire::to_bytes(&alarms_at(&[FAR, FAR + 1], 0).snapshot());
    let first = [wire::to_bytes(&FAR), vec![2, 3, 0, 0]].concat();
    // The second entry's tick step, 1, follows the first entry.
    let step = find_once(&bytes, &[first.as_slice(), &[1, 2, 3, 0, 1]].concat()) + first.len();
    let with_step =
        |ticks: u64| [&bytes[..step], &wire::to_bytes(&ticks), &bytes[step + 1..]].concat();
    assert!(wire::from_bytes::<EngineSnapshot<Alarms>>(&with_step(1)).is_ok());
    assert_eq!(
        wire::from_bytes::<EngineSnapshot<Alarms>>(&with_step(u64::MAX - FAR + 1)).err(),
        Some(WireError::BadValue { what: "queue tick" })
    );
}

/// A count prefix is the one field of a file that sizes an allocation:
/// admitted unchecked, one flipped byte in a megabyte snapshot reserves
/// hundreds of megabytes before the first element fails to decode.
#[test]
fn a_corrupt_count_on_a_history_neither_decodes_nor_sizes_an_allocation() {
    type Entry = (Time, EvtHpSnapshot);
    let history: History<EvtHpSnapshot> = detector_at(8, 2, 2_000).histories()[0].clone();
    let honest = wire::to_bytes(&history);
    let count_len = wire::to_bytes(&history.len()).len();
    let with_count = |n: usize| {
        let mut bytes = wire::to_bytes(&n);
        bytes.extend_from_slice(&honest[count_len..]);
        bytes
    };
    assert_eq!(
        wire::from_bytes::<Vec<Entry>>(&with_count(history.len())),
        Ok(history.clone())
    );
    // More elements than there are bytes: refused at the prefix.
    for n in [honest.len(), honest.len() * 8, usize::MAX] {
        assert_eq!(
            wire::from_bytes::<Vec<Entry>>(&with_count(n)),
            Err(WireError::BadValue { what: "length" })
        );
    }
    // Fewer than that but more than were written: the reservation is
    // paid for by the input, and the decode runs off its end.
    let inflated = with_count(honest.len() - count_len - 1);
    let (_, reserved) = Loader::new(&inflated)
        .seq::<Entry>()
        .expect("the count fits");
    assert!(reserved.capacity() * std::mem::size_of::<Entry>() <= inflated.len());
    assert!(matches!(
        wire::from_bytes::<Vec<Entry>>(&inflated),
        Err(WireError::Eof { .. })
    ));
}

// ---------------------------------------------------------------------
// Pinned bytes.
// ---------------------------------------------------------------------

/// A value's encoding in hex.
fn hex<T: Persist>(value: &T) -> String {
    wire::to_bytes(value)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// `(value, its encoding, the pinned encoding)`.
macro_rules! pin {
    ($value:expr => $hex:literal) => {
        (stringify!($value), hex(&$value), $hex)
    };
}

/// One vector per variant of every public tagged enum a snapshot or a
/// message carries, at `message_cases`' edge values. The fixed-point
/// tests hold a layout to itself; these hold it to its bytes, so a
/// renumbered tag or a reordered field fails here.
#[test]
fn every_variant_encodes_as_pinned() {
    let id = Identity::new(3);
    let (round, est, locked, val) = (70_000, u64::MAX, true, Some(5));
    let violation = || PropertyViolation {
        class: "HΣ",
        property: "safety",
        detail: "x".into(),
    };
    let pinned = [
        pin!(EvtHpMsg::Polling { round: 300, id } => "00ac0203"),
        pin!(EvtHpMsg::PReply { from: 7, to: 1_000_000, target: Identity::new(1), sender: Identity::new(2) } => "0107c0843d0102"),
        pin!(Fig8Msg::Coord { id, round, est } => "0003f0a204ffffffffffffffffff01"),
        pin!(Fig8Msg::Ph0 { round, est: 0 } => "01f0a20400"),
        pin!(Fig8Msg::Ph1 { round, est } => "02f0a204ffffffffffffffffff01"),
        pin!(Fig8Msg::Ph2 { round, est2: val } => "03f0a2040105"),
        pin!(Fig8Msg::Ph2 { round, est2: None } => "03f0a20400"),
        pin!(Fig8Msg::Decide { value: 9 } => "0409"),
        pin!(ByzMsg::Vote { id, round, est, locked } => "0003f0a204ffffffffffffffffff0101"),
        pin!(ByzMsg::Commit { id, round, val } => "0103f0a2040105"),
        pin!(ByzMsg::Commit { id, round, val: None } => "0103f0a20400"),
        pin!(ByzMsg::Decide { id, value: 9 } => "020309"),
        pin!(ByzMsg::Coord { id, round, est, locked } => "0303f0a204ffffffffffffffffff0101"),
        pin!(ObsKind::PhaseEnter { round, phase: "VOTE" } => "00f0a20404564f5445"),
        pin!(ObsKind::PhaseExit { round, phase: "COMMIT" } => "01f0a20406434f4d4d4954"),
        pin!(ObsKind::CertificateFormed { round, phase: "VOTE", size: 3, labels: vec![(id, 2), (Identity::new(1), 1)] } => "02f0a20404564f5445030203020101"),
        pin!(ObsKind::LockAcquired { round, value: est } => "03f0a204ffffffffffffffffff01"),
        pin!(ObsKind::LockReleased { round } => "04f0a204"),
        pin!(ObsKind::LedgerDiscard { round, class: "DECIDE" } => "05f0a20406444543494445"),
        pin!(ObsKind::DetectorEpoch { round, trusted: 7, changed: locked } => "06f0a2040701"),
        pin!(ObsKind::LeaderFlip { round, leader: id, multiplicity: 2 } => "07f0a2040302"),
        pin!(ObsKind::AttackFired { kind: "equivocate", victim: 1 } => "080a65717569766f6361746501"),
        pin!(ObsKind::CopyBlocked { from: 300 } => "09ac02"),
        pin!(ObsKind::Decided { value: est } => "0affffffffffffffffff01"),
        pin!(ObsKind::Started => "0b"),
        pin!(ObsKind::Broadcast { class: "POLLING" } => "0c07504f4c4c494e47"),
        pin!(ObsKind::Delivered { class: "P_REPLY" } => "0d07505f5245504c59"),
        pin!(ObsKind::TimerFired { tag: 1 << 40 } => "0e808080808020"),
        pin!(ObsKind::Halted => "0f"),
        pin!(Either::<u64, Identity>::L(est) => "00ffffffffffffffffff01"),
        pin!(Either::<u64, Identity>::R(id) => "0103"),
        pin!(Label::IdSet([id, Identity::new(1)].into()) => "00020103"),
        pin!(Label::IdMultiset([id, id, Identity::new(1)].into()) => "010201010302"),
        pin!(Label::Opaque(est) => "02ffffffffffffffffff01"),
        pin!(Label::Count(300) => "03ac02"),
        pin!(RunVerdict::<u64>::Pass(9) => "0009"),
        pin!(RunVerdict::<u64>::SafetyViolated(violation()) => "010348cea3067361666574790178"),
        pin!(RunVerdict::<u64>::LivenessViolated(violation()) => "020348cea3067361666574790178"),
        pin!(RunVerdict::<u64>::LivenessExcused(violation()) => "030348cea3067361666574790178"),
        pin!(RunVerdict::<u64>::ByzantineExpected(violation()) => "040348cea3067361666574790178"),
        pin!(None::<u64> => "00"),
        pin!(Some(est) => "01ffffffffffffffffff01"),
        pin!(ArrivalModel::Closed => "00"),
        pin!(ArrivalModel::Open { mean_gap_ticks: 300 } => "01ac02"),
        pin!(KeySkew::Uniform => "00"),
        pin!(KeySkew::Squared => "01"),
        pin!(KeySkew::Cubed => "02"),
    ];
    let moved: Vec<String> = pinned
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(value, got, want)| format!("{value}: {got}, pinned {want}"))
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

// ---------------------------------------------------------------------
// Hostile bytes.
// ---------------------------------------------------------------------

/// Valid encodings to cut and mutate: a mid-run snapshot small enough
/// to try every cut of, a message of each variant, a command queue.
fn small_snapshot_bytes() -> Vec<u8> {
    wire::to_bytes(&detector_at(4, 2, 150).snapshot())
}

fn log_snapshot_bytes() -> Vec<u8> {
    wire::to_bytes(&log_at().snapshot())
}

/// What the log service puts on the wire, alone and under the detector.
type LogMsg = RsmMsg<ByzMsg>;
type StackMsg = Either<EvtHpMsg, LogMsg>;

/// A valid encoding and the decoder that has to survive what is made of
/// it.
type Case = (Vec<u8>, fn(&[u8]) -> bool);

fn cases<T: Persist>(values: &[T]) -> Vec<Case> {
    let decoder = survives::<T> as fn(&[u8]) -> bool;
    values
        .iter()
        .map(|v| (wire::to_bytes(v), decoder))
        .collect()
}

/// Every message type a stack sends, variant by variant.
fn message_cases() -> Vec<Case> {
    let id = Identity::new(3);
    let detector = [
        EvtHpMsg::Polling { round: 300, id },
        EvtHpMsg::PReply {
            from: 7,
            to: 1_000_000,
            target: Identity::new(1),
            sender: Identity::new(2),
        },
    ];
    let (round, est, locked, val) = (70_000, u64::MAX, true, Some(5));
    let engine = [
        ByzMsg::Coord {
            id,
            round,
            est,
            locked,
        },
        ByzMsg::Vote {
            id,
            round,
            est,
            locked,
        },
        ByzMsg::Commit { id, round, val },
        ByzMsg::Commit {
            id,
            round,
            val: None,
        },
        ByzMsg::Decide { id, value: 9 },
    ];
    let height = 1 << 40;
    let mut log: Vec<LogMsg> = engine
        .iter()
        .map(|&msg| RsmMsg::Inner { height, msg })
        .collect();
    log.push(RsmMsg::Commit {
        height,
        value: 5,
        id,
        next: u64::MAX,
        state: None,
    });
    // Parts of a state transfer: words of the sender's log below it.
    for (index, count) in [(0, 1), (68, 69), (u16::MAX - 1, u16::MAX)] {
        log.push(RsmMsg::Commit {
            height,
            value: u64::MAX - 3,
            id,
            next: u64::MAX,
            state: Some(StatePart { index, count }),
        });
    }
    let stack: Vec<StackMsg> = detector
        .iter()
        .map(|m| Either::L(m.clone()))
        .chain(log.iter().map(|&m| Either::R(m)))
        .collect();
    [cases(&detector), cases(&engine), cases(&log), cases(&stack)].concat()
}

fn queue_bytes() -> Vec<u8> {
    wire::to_bytes(&WorkloadConfig::default().queues(3)[2])
}

/// Decodes `bytes` as `T`: the call returning at all is the property;
/// a value that does come out must encode to a string that decodes.
fn survives<T: Persist>(bytes: &[u8]) -> bool {
    match wire::from_bytes::<T>(bytes) {
        Ok(value) => {
            let again = wire::to_bytes(&value);
            assert!(wire::from_bytes::<T>(&again).is_ok());
            true
        }
        Err(_) => false,
    }
}

#[test]
fn every_truncation_of_a_valid_encoding_is_an_error() {
    let snapshot = small_snapshot_bytes();
    assert!(survives::<DetectorSnapshot>(&snapshot));
    for cut in 0..snapshot.len() {
        assert!(!survives::<DetectorSnapshot>(&snapshot[..cut]), "cut {cut}");
    }
    let log = log_snapshot_bytes();
    assert!(survives::<LogSnapshot>(&log));
    for cut in 0..log.len() {
        assert!(
            !survives::<LogSnapshot>(&log[..cut]),
            "cut {cut} of the log"
        );
    }
    for (message, decodes) in message_cases() {
        assert!(decodes(&message));
        for cut in 0..message.len() {
            assert!(!decodes(&message[..cut]), "cut {cut} of {message:?}");
        }
    }
    let queue = queue_bytes();
    assert!(survives::<CommandQueue>(&queue));
    for cut in 0..queue.len() {
        assert!(!survives::<CommandQueue>(&queue[..cut]), "cut {cut}");
    }
}

/// `read_verified` on a file holding `bytes`.
fn read_file_of(bytes: &[u8], tag: &str) -> bool {
    let dir = std::env::temp_dir().join(format!("hsnp-hostile-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("hostile.ck");
    std::fs::write(&path, bytes).expect("write");
    let read = read_verified(&path, 7);
    let _ = std::fs::remove_dir_all(&dir);
    matches!(read, Ok(Some(_)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        survives::<DetectorSnapshot>(&bytes);
        survives::<LogSnapshot>(&bytes);
        survives::<EvtHpMsg>(&bytes);
        survives::<ByzMsg>(&bytes);
        survives::<LogMsg>(&bytes);
        survives::<StackMsg>(&bytes);
        survives::<CommandQueue>(&bytes);
        let _ = decode_container(&bytes, 7);
        // Behind a well-formed header too, so the length and checksum
        // rules see arbitrary payloads, not only a bad magic.
        let mut framed = encode_container(7, &bytes);
        prop_assert!(decode_container(&framed, 7).is_ok());
        if let Some(last) = framed.last_mut() {
            *last ^= 0x01;
            prop_assert!(decode_container(&framed, 7).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// One drawn mask, applied at every offset in turn: about half the
    /// mutants of a snapshot still decode (a different clock, a
    /// different count), the rest are typed errors.
    #[test]
    fn single_byte_mutations_never_panic_a_decoder(flip in 1u8..=255) {
        fn each_mutant(bytes: &[u8], flip: u8, mut check: impl FnMut(&[u8])) {
            let mut mutant = bytes.to_vec();
            for at in 0..bytes.len() {
                mutant[at] ^= flip;
                check(&mutant);
                mutant[at] ^= flip;
            }
        }
        each_mutant(&small_snapshot_bytes(), flip, |b| {
            survives::<DetectorSnapshot>(b);
        });
        each_mutant(&log_snapshot_bytes(), flip, |b| {
            survives::<LogSnapshot>(b);
        });
        for (message, decodes) in message_cases() {
            each_mutant(&message, flip, |b| {
                decodes(b);
            });
        }
        each_mutant(&queue_bytes(), flip, |b| {
            survives::<CommandQueue>(b);
        });
        // The container's checksum and header rules see every flip.
        let mut undetected = 0;
        each_mutant(&encode_container(7, &queue_bytes()), flip, |b| {
            undetected += usize::from(decode_container(b, 7).is_ok());
        });
        prop_assert_eq!(undetected, 0);
    }
}

/// A field value: on an edge of its range as often as not, so rounds and
/// heights reach `u64::MAX` and identifiers `Identity::BOTTOM`.
fn edgy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0),
        Just(1),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        any::<u64>()
    ]
}

fn label() -> impl Strategy<Value = Identity> {
    edgy().prop_map(Identity::new)
}

fn bottom_or() -> impl Strategy<Value = Option<u64>> {
    prop::option::weighted(0.5, edgy())
}

fn evt_hp_msg() -> impl Strategy<Value = EvtHpMsg> {
    prop_oneof![
        (edgy(), label()).prop_map(|(round, id)| EvtHpMsg::Polling { round, id }),
        (edgy(), edgy(), label(), label()).prop_map(|(from, to, target, sender)| {
            EvtHpMsg::PReply {
                from,
                to,
                target,
                sender,
            }
        }),
    ]
}

fn fig8_msg() -> impl Strategy<Value = Fig8Msg> {
    prop_oneof![
        (label(), edgy(), edgy()).prop_map(|(id, round, est)| Fig8Msg::Coord { id, round, est }),
        (edgy(), edgy()).prop_map(|(round, est)| Fig8Msg::Ph0 { round, est }),
        (edgy(), edgy()).prop_map(|(round, est)| Fig8Msg::Ph1 { round, est }),
        (edgy(), bottom_or()).prop_map(|(round, est2)| Fig8Msg::Ph2 { round, est2 }),
        edgy().prop_map(|value| Fig8Msg::Decide { value }),
    ]
}

fn byz_msg() -> impl Strategy<Value = ByzMsg> {
    prop_oneof![
        (label(), edgy(), edgy(), any::<bool>()).prop_map(|(id, round, est, locked)| {
            ByzMsg::Coord {
                id,
                round,
                est,
                locked,
            }
        }),
        (label(), edgy(), edgy(), any::<bool>()).prop_map(|(id, round, est, locked)| {
            ByzMsg::Vote {
                id,
                round,
                est,
                locked,
            }
        }),
        (label(), edgy(), bottom_or()).prop_map(|(id, round, val)| ByzMsg::Commit {
            id,
            round,
            val
        }),
        (label(), edgy()).prop_map(|(id, value)| ByzMsg::Decide { id, value }),
    ]
}

/// A part, in range or not: an index past its count is the receiver's
/// to refuse, not the codec's.
fn state_part() -> impl Strategy<Value = StatePart> {
    let word = || prop_oneof![Just(0), Just(1), Just(u16::MAX), any::<u16>()];
    (word(), word()).prop_map(|(index, count)| StatePart { index, count })
}

fn log_msg() -> impl Strategy<Value = LogMsg> {
    prop_oneof![
        (edgy(), byz_msg()).prop_map(|(height, msg)| RsmMsg::Inner { height, msg }),
        (edgy(), edgy(), label(), edgy()).prop_map(|(height, value, id, next)| RsmMsg::Commit {
            height,
            value,
            id,
            next,
            state: None,
        }),
        (edgy(), edgy(), label(), edgy(), state_part()).prop_map(
            |(height, value, id, next, part)| RsmMsg::Commit {
                height,
                value,
                id,
                next,
                state: Some(part),
            }
        ),
    ]
}

fn stack_msg() -> impl Strategy<Value = StackMsg> {
    prop_oneof![
        evt_hp_msg().prop_map(Either::L),
        log_msg().prop_map(Either::R)
    ]
}

// What each mutation's doc promises to leave alone: the variant first,
// then the fields a receiver admits the copy on.

fn kept_evt_hp(msg: &EvtHpMsg) -> Vec<u64> {
    match *msg {
        EvtHpMsg::Polling { round, .. } => vec![0, round],
        EvtHpMsg::PReply {
            from, to, target, ..
        } => vec![1, from, to, target.raw()],
    }
}

fn kept_fig8(msg: &Fig8Msg) -> Vec<u64> {
    match *msg {
        Fig8Msg::Coord { id, round, .. } => vec![0, id.raw(), round],
        Fig8Msg::Ph0 { round, .. } => vec![1, round],
        Fig8Msg::Ph1 { round, .. } => vec![2, round],
        Fig8Msg::Ph2 { round, .. } => vec![3, round],
        Fig8Msg::Decide { .. } => vec![4],
    }
}

fn kept_byz(msg: &ByzMsg) -> Vec<u64> {
    match *msg {
        ByzMsg::Coord { id, round, .. } => vec![0, id.raw(), round],
        ByzMsg::Vote { id, round, .. } => vec![1, id.raw(), round],
        ByzMsg::Commit { id, round, .. } => vec![2, id.raw(), round],
        ByzMsg::Decide { id, .. } => vec![3, id.raw()],
    }
}

fn kept_log(msg: &LogMsg) -> Vec<u64> {
    match msg {
        RsmMsg::Inner { height, msg } => [vec![0, *height], kept_byz(msg)].concat(),
        RsmMsg::Commit {
            height,
            id,
            next,
            state,
            ..
        } => {
            let part = state.map(|p| [p.index.into(), p.count.into()]);
            [
                vec![1, *height, id.raw(), *next],
                part.into_iter().flatten().collect(),
            ]
            .concat()
        }
    }
}

fn kept_stack(msg: &StackMsg) -> Vec<u64> {
    match msg {
        Either::L(msg) => [vec![0], kept_evt_hp(msg)].concat(),
        Either::R(msg) => [vec![1], kept_log(msg)].concat(),
    }
}

/// `P`'s forgery of `msg` comes out, is another message of the same
/// variant with the promised fields intact, and survives the wire.
fn forgery_is_total<P: Process>(
    msg: &P::Msg,
    entropy: u64,
    kept: fn(&P::Msg) -> Vec<u64>,
) -> Result<(), TestCaseError>
where
    P::Msg: Persist + PartialEq + std::fmt::Debug,
{
    let Some(forged) = P::mutate_payload(msg, entropy) else {
        return Err(TestCaseError::fail(format!("no forgery of {msg:?}")));
    };
    prop_assert_eq!(kept(&forged), kept(msg));
    prop_assert_ne!(&forged, msg);
    let decoded = wire::from_bytes::<P::Msg>(&wire::to_bytes(&forged));
    prop_assert_eq!(decoded, Ok(forged));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every `mutate_payload` a sweep can reach, over every variant with
    /// arbitrary field values and arbitrary entropy.
    #[test]
    fn forgeries_are_total(
        evt_hp in evt_hp_msg(),
        fig8 in fig8_msg(),
        byz in byz_msg(),
        log in log_msg(),
        stack in stack_msg(),
        entropy in edgy(),
    ) {
        type Fig8 = MajorityConsensus<HOmegaPolicy<HOmegaOutput>>;
        forgery_is_total::<EvtHpProcess>(&evt_hp, entropy, kept_evt_hp)?;
        forgery_is_total::<Fig8>(&fig8, entropy, kept_fig8)?;
        forgery_is_total::<ByzQuorumConsensus>(&byz, entropy, kept_byz)?;
        forgery_is_total::<ReplicatedLog<ByzQuorumConsensus>>(&log, entropy, kept_log)?;
        forgery_is_total::<RsmNode>(&stack, entropy, kept_stack)?;
    }
}

#[test]
fn read_verified_returns_typed_errors_on_hostile_files() {
    let framed = encode_container(7, &queue_bytes());
    assert!(read_file_of(&framed, "whole"));
    for cut in 0..framed.len() {
        assert!(!read_file_of(&framed[..cut], "cut"), "cut {cut}");
    }
    for at in 0..framed.len() {
        let mut bad = framed.clone();
        bad[at] ^= 0x10;
        assert!(!read_file_of(&bad, "flip"), "flip at {at}");
    }
    assert!(!read_file_of(b"HSNP", "magic-only"));
    assert!(!read_file_of(&[0xff; 64], "noise"));
}
