//! Regression guard for the `◇HP` held-reply list: what a Figure 6
//! process keeps must not grow with the run.
//!
//! Two carriers of one label adapt different timeouts, their round
//! counters drift apart, and the slower one receives — and must hold —
//! every reply the faster one's polls draw (see "Homonyms drift" in
//! `homonym_detectors::evt_hp`). Held one entry per reply the list grew
//! linearly, into the thousands over 100 000 ticks; coalesced on arrival
//! it is one run per replier. These runs pin that: n repliers, so never
//! more than n entries, on every process, at every probe of a long run —
//! while the rounds really do drift, or the test would guard nothing.

use homonym::chaos::sweep::hps_base;
use homonym::detectors::evt_hp::EvtHpProcess;
use homonym::prelude::*;

const HORIZON: u64 = 100_000;
const PROBE_EVERY: u64 = 1_000;

/// Runs the bare detector on the sweep's base network and probes every
/// process's held-reply list as the run goes.
fn held_replies_stay_bounded(n: usize, l: usize) {
    let assign = IdentityAssignment::round_robin(n, l);
    let config = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base());
    let mut engine = Engine::new(config, |_, _| EvtHpProcess::new());
    for probe in (PROBE_EVERY..=HORIZON).step_by(PROBE_EVERY as usize) {
        engine.run_until(Time::from_ticks(probe));
        for p in 0..n {
            let held = engine.process(p).pending_len();
            assert!(
                held <= n,
                "p{p} holds {held} replies at tick {probe} (n = {n})"
            );
        }
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
    held_replies_stay_bounded(8, 4);
}

#[test]
fn thirty_two_processes_four_labels() {
    held_replies_stay_bounded(32, 4);
}
