//! Regression guard for the `◇HP` detector's state: what a Figure 6
//! process keeps, and what the engine keeps of it, must not grow with
//! the run.
//!
//! Two carriers of one label adapt different timeouts, their round
//! counters drift apart, and the slower one receives — and must hold —
//! every reply the faster one's polls draw (see "What a process holds"
//! in `homonym_detectors::evt_hp`). Held one entry per reply the list
//! grew linearly, into the thousands over 100 000 ticks. A process now
//! holds a count per label and the rounds where it moves, and replies
//! in a row from one replier are one run — whichever order they arrive
//! in. These runs pin that: n repliers, so never more than n runs
//! (`pending_len`: the held replies covering the round plus those
//! starting later; the peak is n in both runs), on every process, at
//! every probe of a long run — while the rounds really do drift, or the
//! test would guard nothing.
//!
//! The other structure that grew was the record: a history entry per
//! round end. A history holds the output's change points ("What a
//! history holds", same module), so once these fault-free runs have
//! stabilised no history gains an entry and the encoded snapshot stays
//! inside a fixed budget — what is left to breathe with the instant of
//! the cut is the queue and the held counts: 0.89–1.39 KB at n = 8,
//! 2.9–4.2 KB at n = 32 on most probes and 10.1–10.8 KB on the one in
//! fourteen that cuts a burst of replies in flight (a queued copy costs
//! more than a held one), against 143.5 KB and climbing at 30 000 ticks
//! with an entry per round. (1.24–1.93, 4.3–6.3 and 13.4–15.2 KB while
//! every process persisted a random stream it never drew from, the
//! detector its bag twice and the queue absolute ticks.)
//!
//! The log service above the detector runs for ever too, and its twin
//! runs below: a replica keeps a ring of the last values, not the log
//! (`ReplicatedLog::retained`), its encoding grows only as its varints
//! widen, the engine's record of it costs 32
//! bytes a height, and a message of the stack holds no heap memory.

use homonym::chaos::generators::leader_churn_across_heights;
use homonym::chaos::session::{rsm_node, RsmNode, SessionBuilder};
use homonym::chaos::sweep::hps_base;
use homonym::consensus::rsm::{LogEntry, RsmMsg};
use homonym::consensus::ByzMsg;
use homonym::core::wire;
use homonym::detectors::evt_hp::{EvtHpMsg, EvtHpProcess, EvtHpSnapshot};
use homonym::prelude::*;
use homonym::sim::workload::WorkloadConfig;

const HORIZON: u64 = 100_000;
const PROBE_EVERY: u64 = 1_000;
/// Every process of both runs has said its last word by this tick.
const STABLE_BY: u64 = 5_000;

/// Runs the bare detector on the sweep's base network and probes, as the
/// run goes, every process's held runs, every history's length and the
/// size of the encoded snapshot against `snapshot_budget` bytes.
fn detector_state_stays_bounded(n: usize, l: usize, snapshot_budget: usize) {
    let assign = IdentityAssignment::round_robin(n, l);
    let config = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base());
    let mut engine = Engine::new(config, |_, _| EvtHpProcess::new());
    let mut stable_lens = Vec::new();
    for probe in (PROBE_EVERY..=HORIZON).step_by(PROBE_EVERY as usize) {
        engine.run_until(Time::from_ticks(probe));
        for p in 0..n {
            let held = engine.process(p).pending_len();
            assert!(
                held <= n,
                "p{p} holds {held} runs of replies at tick {probe} (n = {n})"
            );
        }
        if probe < STABLE_BY {
            continue;
        }
        let lens: Vec<usize> = engine.histories().iter().map(Vec::len).collect();
        if probe == STABLE_BY {
            assert!(lens.iter().all(|&len| len > 0), "someone never published");
            stable_lens = lens;
        } else {
            assert_eq!(lens, stable_lens, "a history grew by tick {probe}");
        }
        let bytes = wire::to_bytes(&engine.snapshot()).len();
        assert!(
            bytes <= snapshot_budget,
            "{bytes}-byte snapshot at tick {probe} (n = {n})"
        );
    }
    // The scenario is the one the bound is about: some label's carriers
    // are rounds apart by now, and everyone still trusts everyone.
    let drift = (0..l)
        .map(|label| {
            let rounds = (label..n).step_by(l).map(|p| engine.process(p).round());
            rounds.clone().max().unwrap_or(0) - rounds.min().unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    assert!(drift > 100, "no homonym drifted (max gap {drift} rounds)");
    for p in 0..n {
        assert_eq!(engine.process(p).h_trusted().len(), n, "p{p} lost someone");
    }
}

#[test]
fn eight_processes_four_labels() {
    detector_state_stays_bounded(8, 4, 1_600);
}

#[test]
fn thirty_two_processes_four_labels() {
    detector_state_stays_bounded(32, 4, 12_000);
}

// ---------------------------------------------------------------------
// The log's twin.
// ---------------------------------------------------------------------

/// A closed-loop client stream no run here drains.
fn closed_loop() -> WorkloadConfig {
    WorkloadConfig {
        commands_per_proc: 1 << 20,
        ..WorkloadConfig::default()
    }
}

/// The log service of `builder`, with the engine's event valve open: a
/// million heights take more events than its default allows.
fn log_engine(builder: &SessionBuilder) -> Engine<RsmNode> {
    let mut config = builder.sim_config();
    config.max_events = u64::MAX;
    let assign = builder.assignment();
    let queues = closed_loop().queues(assign.n());
    Engine::new(config, |p, _| rsm_node(&assign, queues[p].clone()))
}

/// What every replica retains.
fn retained(engine: &Engine<RsmNode>) -> Vec<usize> {
    (0..engine.n())
        .map(|p| engine.process(p).upper().retained())
        .collect()
}

/// Runs `engine` to the instant replica 0 has committed `heights`.
fn run_to_height(engine: &mut Engine<RsmNode>, heights: u64) {
    let deadline = Time::from_ticks(u64::MAX / 2);
    engine.run_with(deadline, |e| e.process(0).upper().height() >= heights);
    assert_eq!(engine.process(0).upper().height(), heights);
}

/// The replica that runs the detector for ever runs the log for ever
/// too, and what it keeps of the log must not grow with it either: the
/// last `max_commit_ahead` values (64), a fingerprint of the rest, and
/// the messages and tallies of the heights around its own. On the
/// closed-loop log service at n = 8, ℓ = 4 (the `log_steady` stack) a
/// replica retains at most 64 + n entries at every probe of 80 000
/// ticks (64 or 65 measured), and exactly as many at height 10⁴ as at
/// height 10³ — where it used to keep a value per height and hold
/// 10 000. Its encoded state is as flat but for the width of its
/// varints: 729 bytes at height 10³ and 862 at 10⁴ (×1.18, where a log
/// kept would be ×10). The ring's 64 clocks pass 2¹⁴ ticks (7 559 →
/// 75 957) and the sequence number in its values 2¹⁰, a byte each
/// (+128), and the height in progress holds other tallies.
#[test]
fn a_log_replica_keeps_a_ring_not_the_log() {
    const BOUND: usize = 64 + 8;
    let builder = SessionBuilder::new(8, 4);
    let mut engine = log_engine(&builder);
    for probe in (PROBE_EVERY..=80_000).step_by(PROBE_EVERY as usize) {
        engine.run_until(Time::from_ticks(probe));
        let kept = retained(&engine);
        assert!(
            kept.iter().all(|&k| k <= BOUND),
            "{kept:?} retained at tick {probe}"
        );
    }
    let mut engine = log_engine(&builder);
    run_to_height(&mut engine, 1_000);
    let at_1k = retained(&engine);
    let bytes_1k = wire::to_bytes(engine.process(0).upper()).len();
    run_to_height(&mut engine, 10_000);
    assert_eq!(retained(&engine), at_1k, "at heights 10³ and 10⁴");
    let bytes_10k = wire::to_bytes(engine.process(0).upper()).len();
    assert!(
        bytes_10k * 5 <= bytes_1k * 6,
        "{bytes_1k} bytes at height 10³, {bytes_10k} at 10⁴"
    );
}

/// What the record costs: a history entry of the log stack is a
/// timestamp and an output — one pointer for the detector's snapshot,
/// or a log entry — where it was 48 bytes while the snapshot's fields
/// sat inline.
#[test]
fn a_log_stack_history_entry_costs_32_bytes() {
    let entry = std::mem::size_of::<(Time, Either<EvtHpSnapshot, LogEntry>)>();
    assert_eq!(entry, 32);
}

/// What a message costs: the log stack's message holds no heap memory —
/// a state transfer travels as fixed-size parts — so the engine queues
/// every broadcast of the stack as inline copies and nothing is dropped
/// around one, and it is 48 bytes, as it was while a state travelled
/// boxed. A body that needs more than a word (block bodies, say) must
/// keep both.
#[test]
fn a_log_stack_message_holds_no_heap() {
    type Msg = Either<EvtHpMsg, RsmMsg<ByzMsg>>;
    assert!(!std::mem::needs_drop::<Msg>());
    assert_eq!(std::mem::size_of::<Msg>(), 48);
}

/// A million heights under leader churn, and the replicas retain as
/// much at the end as at height 10³, and agree on the fingerprint of
/// every height they share. At n = 4 (the churn seed of
/// `commits_100_heights_under_leader_churn_with_prefix_agreement`; about
/// 60 million events) the record alone
/// is 4 × 10⁶ history entries, 128 MB, while the replicas keep 64 values
/// each. Slow (seconds in release, minutes in debug): CI runs it with
/// `--ignored` in release under a timeout.
#[test]
#[ignore = "a million heights: run in release"]
fn a_million_heights_under_churn_retain_what_a_thousand_did() {
    let assign = IdentityAssignment::round_robin(4, 2);
    let builder = SessionBuilder::new(4, 2)
        .with_seed(42)
        .with_scenario(leader_churn_across_heights(&assign, 42));
    let mut engine = log_engine(&builder);
    run_to_height(&mut engine, 1_000);
    let at_1k = retained(&engine);
    run_to_height(&mut engine, 1_000_000);
    assert_eq!(retained(&engine), at_1k, "at heights 10³ and 10⁶");
    let tip = engine.process(0).upper();
    for p in 1..engine.n() {
        let replica = engine.process(p).upper();
        if replica.height() == tip.height() {
            assert_eq!(replica.state_hash(), tip.state_hash(), "p{p}");
        }
    }
}
