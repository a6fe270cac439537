//! The headline end-to-end result: consensus under partial synchrony.
//!
//! The paper's combined contribution (§1): `HΩ` is implementable in
//! `HPS[∅]` — homonymous processes, eventually timely links, unknown GST
//! and δ, no membership knowledge (Figure 6 + Corollary 2) — while the
//! anonymous `AΩ` is **not** implementable even in synchronous systems.
//! Stacking Figure 8 consensus on that implementation therefore solves
//! consensus in any homonymous partially synchronous system with a
//! majority of correct processes — and this was *new* for anonymous
//! systems under this synchrony model.
//!
//! This example sweeps the global stabilization time GST and reports when
//! the `◇HP` detector converges and when consensus decides: decision time
//! tracks GST, which is exactly the "consensus after stabilization" shape
//! the theory predicts.
//!
//! Run with: `cargo run --example partial_synchrony`

use homonym::chaos::session::{Goal, SessionBuilder};
use homonym::detectors::evt_hp::split_snapshots;
use homonym::prelude::*;

fn run_once(gst: u64, seed: u64) -> (Option<Time>, Option<Time>) {
    let n = 5;
    let assign = IdentityAssignment::round_robin(n, 3); // A B C A B
    let sched = FailureSchedule::none(n).with_crash(2, Time::from_ticks(gst / 2));
    // Pre-GST messages are delayed arbitrarily (but finitely). This is
    // the model branch the *combined* result needs: Figure 8 is specified
    // over reliable links (HAS), so consensus messages must not vanish;
    // the paper's other pre-GST branch (loss) is exercised by the
    // detector-only experiments.
    let network = NetworkModel::PartialSync {
        gst: Time::from_ticks(gst),
        delta: Span::from_ticks(4),
        pre_gst: PreGstBehavior::DelayOnly {
            max_delay: Span::from_ticks(gst.max(40)),
        },
    };
    let proposals: Vec<u64> = (0..n as u64).collect();
    // The full stack (Figure 6 ◇HP/HΩ handing HΩ to Figure 8 majority
    // consensus) is the session API's `fig8` stack.
    let mut session = SessionBuilder::new(n, 3)
        .with_seed(seed)
        .with_network(network.clone())
        .with_schedule(sched.clone())
        .with_proposals(proposals.clone())
        .with_deadline_ticks(500_000)
        .fig8();
    session.run();
    let decision = check_consensus(&session.engine().outcome(proposals), &sched)
        .ok()
        .map(|r| r.last_decision);

    // Detector convergence, measured on a standalone Figure 6 run over the
    // same network (the stacked run halts its detector upon deciding, so
    // its history would be truncated).
    let mut detector = SessionBuilder::new(n, 3)
        .with_seed(seed)
        .with_network(network)
        .with_schedule(sched.clone())
        .with_goal(Goal::TickHorizon)
        .with_deadline_ticks(4 * gst.max(100))
        .detector();
    detector.run();
    let evt_histories: Vec<_> = detector
        .engine()
        .histories()
        .iter()
        .map(|h| split_snapshots(h).0)
        .collect();
    let convergence = check_evt_hp(&evt_histories, &sched, &assign)
        .ok()
        .map(|r| r.stabilization);
    (convergence, decision)
}

fn main() {
    println!("Figure 6 (◇HP/HΩ in HPS) + Figure 8 consensus, 5 processes / 3 ids, 1 crash");
    println!("pre-GST: arbitrary finite delays; post-GST: δ = 4 ticks\n");
    println!(
        "{:>8} {:>22} {:>22}",
        "GST", "◇HP stabilization", "all decided by"
    );
    for gst in [0u64, 50, 100, 200, 400, 800] {
        let (conv, dec) = run_once(gst, 11 + gst);
        let conv = conv.map_or("—".to_string(), |t| t.to_string());
        let dec = dec.map_or("no decision".to_string(), |t| t.to_string());
        println!("{gst:>8} {conv:>22} {dec:>22}");
    }
    println!("\nDecision latency tracks GST: consensus completes shortly after the");
    println!("network stabilizes, exactly as the paper's combined result predicts.");
}
