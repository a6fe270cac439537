//! Experiment E3 — Figure 3: class `E` in `AS[∅]`.
//!
//! Claim reproduced (Lemma 1): the correct identifiers eventually occupy
//! the prefix of `alive_p` permanently; stabilization trails the last
//! crash and grows mildly with `n`.

use homonym_core::prelude::*;
use homonym_detectors::e_list::EListProcess;
use homonym_sim::prelude::*;

use super::{async_net, staggered_crashes};

/// Runs Figure 3 over `n` processes with `crashes` staggered crashes:
/// the time from which the correct identifiers held the prefix forever,
/// and the `ALIVE` broadcasts.
///
/// # Panics
///
/// Panics if the output violates Definition 1.
fn e_list(n: usize, crashes: usize, seed: u64) -> (u64, u64) {
    let assign = IdentityAssignment::unique(n);
    let sched = staggered_crashes(n, crashes, 60);
    let cfg = SimConfig::new(assign.clone(), sched.clone(), async_net(1, 5)).with_seed(seed);
    let mut engine = Engine::new(cfg, |_, _| EListProcess::new(Span::from_ticks(2)));
    engine.run_until(Time::from_ticks(300));
    let rep = check_e_list(engine.histories(), &sched, &assign).expect("class E valid");
    (rep.stabilization.ticks(), engine.metrics().broadcasts)
}

pub fn main() {
    println!("## E3 — class E implementation (Figure 3, Lemma 1)\n");
    println!("| n | crashes | stabilization | ALIVE msgs |");
    println!("|---|---------|---------------|------------|");
    for &n in &[3usize, 5, 8, 12, 16, 24] {
        for crashes in [0usize, 1, n / 3] {
            let (stabilization, broadcasts) = e_list(n, crashes, 7 + n as u64);
            println!("| {n} | {crashes} | t{stabilization} | {broadcasts} |");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_runner_smoke() {
        let (_, broadcasts) = e_list(4, 1, 2);
        assert!(broadcasts > 0);
    }
}
