//! Experiment E6 — Figure 6: `◇HP`/`HΩ` in `HPS[∅]` (Theorem 5, Cor. 2).
//!
//! Claims reproduced:
//! * convergence happens shortly after GST and scales with δ;
//! * the adaptive timeout settles (stops growing) once the network is
//!   timely;
//! * replies are deduplicated per *identifier*, so `P_REPLY ≈ ℓ × POLLING`
//!   instead of `n × POLLING`.

use homonym_core::prelude::*;
use homonym_detectors::evt_hp::{classify_evt_hp, split_snapshots, EvtHpProcess};
use homonym_sim::prelude::*;

use super::{hps_lossy, staggered_crashes};

/// A Figure 6 run as its tables print it.
struct Run {
    /// `◇HP` stabilization time (all correct processes locked on
    /// `I(Correct)`).
    evt_hp: u64,
    /// `HΩ` stabilization time.
    h_omega: u64,
    /// Largest adaptive timeout reached by a correct process.
    final_timeout: u64,
    /// `POLLING` broadcasts.
    polling: u64,
    /// `P_REPLY` broadcasts.
    replies: u64,
}

/// Runs Figure 6 in `HPS` with `crashes` staggered crashes before GST.
///
/// # Panics
///
/// Panics if the run violates the `◇HP` or `HΩ` class properties.
fn evt_hp(n: usize, l: usize, gst: u64, delta: u64, crashes: usize, seed: u64) -> Run {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, gst.max(2));
    let cfg = SimConfig::new(assign.clone(), sched.clone(), hps_lossy(gst, delta)).with_seed(seed);
    let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
    engine.set_classifier(classify_evt_hp);
    engine.run_until(Time::from_ticks(40 * gst.max(30) + 4000));
    let (evt, omg): (Vec<_>, Vec<_>) = engine.histories().iter().map(split_snapshots).unzip();
    let evt_rep = check_evt_hp(&evt, &sched, &assign).expect("◇HP class valid");
    let omg_rep = check_h_omega(&omg, &sched, &assign).expect("HΩ class valid");
    let by_class = &engine.metrics().by_class;
    Run {
        evt_hp: evt_rep.stabilization.ticks(),
        h_omega: omg_rep.stabilization.ticks(),
        final_timeout: sched
            .correct_set()
            .into_iter()
            .map(|p| engine.process(p).timeout())
            .max()
            .unwrap_or(0),
        polling: by_class.get("POLLING").copied().unwrap_or(0),
        replies: by_class.get("P_REPLY").copied().unwrap_or(0),
    }
}

pub fn main() {
    println!("## E6 — ◇HP / HΩ in HPS (Figure 6)\n");
    println!("### GST sweep (n=5, ℓ=2, δ=3, 1 crash)\n");
    println!("| GST | ◇HP stab | HΩ stab | final timeout | POLLING | P_REPLY |");
    println!("|-----|----------|---------|---------------|---------|---------|");
    for &gst in &[0u64, 30, 100, 300] {
        let r = evt_hp(5, 2, gst, 3, 1, 5 + gst);
        println!(
            "| {gst} | t{} | t{} | {} | {} | {} |",
            r.evt_hp, r.h_omega, r.final_timeout, r.polling, r.replies
        );
    }
    println!("\n### δ sweep (n=5, ℓ=2, GST=50, 1 crash)\n");
    println!("| δ | ◇HP stab | final timeout |");
    println!("|---|----------|---------------|");
    for &delta in &[1u64, 2, 4, 8, 16] {
        let r = evt_hp(5, 2, 50, delta, 1, 90 + delta);
        println!("| {delta} | t{} | {} |", r.evt_hp, r.final_timeout);
    }
    println!("\n### homonymy sweep (n=6, GST=40, δ=3, 1 crash)\n");
    println!("| ℓ | ◇HP stab | POLLING | P_REPLY | reply ratio |");
    println!("|---|----------|---------|---------|-------------|");
    for &l in &[1usize, 2, 3, 6] {
        let r = evt_hp(6, l, 40, 3, 1, 13 + l as u64);
        println!(
            "| {l} | t{} | {} | {} | {:.2} |",
            r.evt_hp,
            r.polling,
            r.replies,
            r.replies as f64 / r.polling.max(1) as f64
        );
    }
    println!("\nThe reply ratio tracks ℓ (identifier-level dedup), not n.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_runner_smoke() {
        let r = evt_hp(4, 2, 20, 2, 1, 5);
        assert!(r.evt_hp >= 1);
        assert!(r.polling > 0 && r.replies > 0);
    }
}
