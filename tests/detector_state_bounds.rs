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
//! the cut is the queue and the held counts: 1.24–1.93 KB at n = 8,
//! 4.3–6.3 KB at n = 32 on most probes and 13.4–15.2 KB on the one in
//! fourteen that cuts a burst of replies in flight (a queued copy costs
//! more than a held one), against 143.5 KB and climbing at 30 000 ticks
//! with an entry per round.

use homonym::chaos::sweep::hps_base;
use homonym::core::wire;
use homonym::detectors::evt_hp::EvtHpProcess;
use homonym::prelude::*;

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
    detector_state_stays_bounded(8, 4, 2_500);
}

#[test]
fn thirty_two_processes_four_labels() {
    detector_state_stays_bounded(32, 4, 16_000);
}
