//! Experiment E4 — Figure 4: HΣ → Σ using class `E` (Theorem 2).
//!
//! Claim reproduced: the produced `trusted_p` sets satisfy `Σ` safety and
//! converge into `I(Correct)`; convergence trails the `HΣ` oracle's
//! stabilization and the `LABELS` exchange.

use homonym_core::prelude::*;
use homonym_detectors::oracle::{OracleWorld, PreStability};
use homonym_reductions::HSigmaToSigmaProcess;
use homonym_sim::prelude::*;

use super::{async_net, latest, staggered_crashes};

/// Runs Figure 4 (with oracle `HΣ` and class-`E` inputs) over `n`
/// unique-identifier processes: when `trusted ⊆ I(Correct)` had locked
/// in at every correct process, and the `LABELS` broadcasts.
///
/// # Panics
///
/// Panics if the output violates the `Σ` class properties.
pub(super) fn h_sigma_to_sigma(n: usize, crashes: usize, seed: u64) -> (u64, u64) {
    let assign = IdentityAssignment::unique(n);
    let sched = staggered_crashes(n, crashes, 40);
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(50));
    let cfg = SimConfig::new(assign.clone(), sched.clone(), async_net(1, 4)).with_seed(seed);
    let mut engine = Engine::new(cfg, move |p, _| {
        HSigmaToSigmaProcess::new(
            world.h_sigma_for(p, PreStability::Truthful),
            world.e_list_for(p, PreStability::Chaotic),
            Span::from_ticks(3),
        )
    });
    engine.run_until(Time::from_ticks(250));
    let rep = check_sigma(engine.histories(), &sched, &assign).expect("Σ class valid");
    (latest(&rep.liveness_from), engine.metrics().broadcasts)
}

pub fn main() {
    println!("## E4 — HΣ → Σ via class E (Figure 4, Theorem 2)\n");
    println!("| n | crashes | Σ liveness by | LABELS msgs |");
    println!("|---|---------|---------------|-------------|");
    for &n in &[3usize, 4, 6, 8, 10] {
        for crashes in [0usize, 1, (n - 1) / 2] {
            let (liveness_by, broadcasts) = h_sigma_to_sigma(n, crashes, 11 + n as u64);
            println!("| {n} | {crashes} | t{liveness_by} | {broadcasts} |");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_runner_smoke() {
        let (liveness_by, _) = h_sigma_to_sigma(4, 1, 3);
        assert!(liveness_by > 0);
    }
}
