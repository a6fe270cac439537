//! Experiment E10 — the §1 headline: Figure 6 + Figure 8 composed solve
//! consensus in homonymous partially synchronous systems with a majority
//! of correct processes.
//!
//! Claim reproduced: decision latency tracks GST — consensus completes
//! shortly after the network stabilizes, at every homonymy degree.

use homonym_chaos::fig8_node;
use homonym_core::prelude::*;
use homonym_sim::prelude::*;

use super::staggered_crashes;

/// A partially synchronous network whose pre-GST messages are delayed but
/// never lost (required when consensus runs on top: `HAS` assumes
/// reliable links).
fn hps_delay_only(gst: u64, delta: u64) -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::from_ticks(gst),
        delta: Span::from_ticks(delta),
        pre_gst: PreGstBehavior::DelayOnly {
            max_delay: Span::from_ticks(gst.max(10)),
        },
    }
}

/// Stacks the Figure 6 implementation under Figure 8 consensus in
/// `HPS[∅]`: the tick by which every correct process decided, and the
/// broadcasts of both layers.
///
/// # Panics
///
/// Panics on any consensus property violation.
fn partial_synchrony(n: usize, l: usize, gst: u64, seed: u64) -> (u64, u64) {
    let assign = IdentityAssignment::round_robin(n, l);
    let t = (n - 1) / 2;
    let sched = staggered_crashes(n, t.min(1), gst.max(10));
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let cfg = SimConfig::new(assign, sched.clone(), hps_delay_only(gst, 4)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| fig8_node(proposals[p], n, t));
    engine.run_until_all_correct_decided(Time::from_ticks(200 * gst.max(10) + 100_000));
    let rep = check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    (rep.last_decision.ticks(), engine.metrics().broadcasts)
}

pub fn main() {
    println!("## E10 — end-to-end: Fig 6 detector + Fig 8 consensus in HPS\n");
    println!("### GST sweep (n=5, ℓ=2, δ=4, 1 crash)\n");
    println!("| GST | all decided by | broadcasts |");
    println!("|-----|----------------|------------|");
    for &gst in &[0u64, 50, 150, 400, 800] {
        let (last_decision, broadcasts) = partial_synchrony(5, 2, gst, 71 + gst);
        println!("| {gst} | t{last_decision} | {broadcasts} |");
    }
    println!("\n### homonymy sweep (GST=100)\n");
    println!("| ℓ | all decided by | broadcasts |");
    println!("|---|----------------|------------|");
    for &l in &[1usize, 2, 5] {
        let (last_decision, broadcasts) = partial_synchrony(5, l, 100, 81 + l as u64);
        println!("| {l} | t{last_decision} | {broadcasts} |");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_runner_smoke() {
        let (last_decision, _) = partial_synchrony(3, 2, 20, 10);
        assert!(last_decision >= 1);
    }
}
