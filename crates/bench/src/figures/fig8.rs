//! Experiment E8 — Figure 8: consensus in `HAS[t < n/2, HΩ]` (Theorem 7).
//!
//! Claims reproduced:
//! * validity/agreement/termination across n, ℓ, crash patterns, and
//!   detector stabilization times (every row is checker-verified);
//! * at ℓ = n the run matches the classical `Ω` baseline's behaviour, at
//!   ℓ = 1 the anonymous `AΩ` baseline's — Figure 8 generalizes both;
//! * the homonymous coordination phase costs extra COORD traffic that
//!   grows with n but keeps decision latency in the same band.

use homonym_consensus::{AOmegaPolicy, HOmegaPolicy, LeaderPolicy, OmegaPolicy};
use homonym_core::prelude::*;
use homonym_detectors::oracle::{OracleWorld, PreStability};

use super::{majority, staggered_crashes, Consensus};

/// Runs Figure 8's algorithm over `assign` with `crashes` staggered
/// crashes, the oracle detectors stabilizing at `stabilize`; `policy`
/// reads process `p`'s leader from the oracle world.
///
/// # Panics
///
/// Panics if the run violates validity, agreement or termination.
fn consensus<L: LeaderPolicy>(
    assign: IdentityAssignment,
    crashes: usize,
    stabilize: u64,
    seed: u64,
    policy: impl Fn(&OracleWorld, usize) -> L,
) -> Consensus {
    let n = assign.n();
    let sched = staggered_crashes(n, crashes, stabilize.max(20));
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
    let proposals = (0..n as u64).map(|i| i * 10).collect();
    let deadline = Time::from_ticks(60 * stabilize.max(20) + 30_000);
    majority(assign, &sched, proposals, deadline, false, seed, |p| {
        policy(&w, p)
    })
}

/// Figure 8 itself: `HΩ` read from an oracle that behaves arbitrarily
/// before `stabilize`.
fn fig8(n: usize, l: usize, crashes: usize, stabilize: u64, seed: u64) -> Consensus {
    let assign = IdentityAssignment::round_robin(n, l);
    consensus(assign, crashes, stabilize, seed, |w, p| {
        HOmegaPolicy(w.h_omega_for(p, PreStability::Chaotic))
    })
}

/// The classical `Ω` baseline: unique identifiers, no coordination phase.
fn classical(n: usize, crashes: usize, stabilize: u64, seed: u64) -> Consensus {
    consensus(
        IdentityAssignment::unique(n),
        crashes,
        stabilize,
        seed,
        |w, p| OmegaPolicy(w.omega_for(p, PreStability::Chaotic)),
    )
}

/// The anonymous `AΩ` baseline: one identifier, no coordination phase.
fn anonymous(n: usize, crashes: usize, stabilize: u64, seed: u64) -> Consensus {
    consensus(
        IdentityAssignment::anonymous(n),
        crashes,
        stabilize,
        seed,
        |w, p| AOmegaPolicy(w.a_omega_for(p, PreStability::Chaotic)),
    )
}

/// Figure 8 with a **paralyzing** `HΩ` oracle and one crash: no process
/// considers itself a leader before `stabilize`, so decisions can only
/// happen afterwards — isolating how decision latency tracks detector
/// stabilization. Returns the tick by which all correct processes
/// decided.
///
/// # Panics
///
/// Panics on any consensus property violation, or on a decision before
/// `stabilize`.
fn tracks_stabilization(n: usize, l: usize, stabilize: u64, seed: u64) -> u64 {
    let assign = IdentityAssignment::round_robin(n, l);
    let r = consensus(assign, 1, stabilize, seed, |w, p| {
        HOmegaPolicy(w.h_omega_for(p, PreStability::Paralyzing))
    });
    let last_decision = r.decided_by.expect("a run that may not block decided");
    assert!(
        last_decision >= stabilize,
        "paralyzed run decided before stabilization"
    );
    last_decision
}

pub fn main() {
    println!("## E8 — consensus with HΩ and a majority (Figure 8)\n");
    println!("### homonymy sweep (n=6, 2 crashes, detector stabilizes at t=60)\n");
    println!("| ℓ | decided | last decision | rounds | broadcasts |");
    println!("|---|---------|---------------|--------|------------|");
    for &l in &[1usize, 2, 3, 6] {
        let r = fig8(6, l, 2, 60, 21 + l as u64);
        println!(
            "| {l} | {} | t{} | {} | {} |",
            r.decided_by.is_some(),
            r.decided_by.unwrap_or(0),
            r.rounds,
            r.broadcasts
        );
    }

    println!("\n### n sweep (ℓ=2, 1 crash, stabilize t=40)\n");
    println!("| n | last decision | rounds | broadcasts |");
    println!("|---|---------------|--------|------------|");
    for &n in &[3usize, 5, 7, 9, 13] {
        let r = fig8(n, 2, 1, 40, 31 + n as u64);
        println!(
            "| {n} | t{} | {} | {} |",
            r.decided_by.unwrap_or(0),
            r.rounds,
            r.broadcasts
        );
    }

    println!("\n### baseline crossover (n=6, 2 crashes, stabilize t=60)\n");
    println!("| variant | decided | last decision | rounds | broadcasts |");
    println!("|---------|---------|---------------|--------|------------|");
    let rows = [
        ("Fig 8, ℓ=6 (≡ unique ids)", fig8(6, 6, 2, 60, 101)),
        ("classical Ω baseline", classical(6, 2, 60, 101)),
        ("Fig 8, ℓ=1 (≡ anonymous)", fig8(6, 1, 2, 60, 102)),
        ("anonymous AΩ baseline", anonymous(6, 2, 60, 102)),
    ];
    for (name, r) in rows {
        println!(
            "| {name} | {} | t{} | {} | {} |",
            r.decided_by.is_some(),
            r.decided_by.unwrap_or(0),
            r.rounds,
            r.broadcasts
        );
    }

    println!("\n### detector-stabilization sweep (n=5, ℓ=2, 1 crash, paralyzing oracle)\n");
    println!("| stabilize | last decision |");
    println!("|-----------|---------------|");
    for &s in &[0u64, 50, 150, 400] {
        println!("| t{s} | t{} |", tracks_stabilization(5, 2, s, 41 + s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_runner_and_baselines_smoke() {
        for (name, r) in [
            ("Figure 8", fig8(4, 2, 1, 20, 7)),
            ("classical Ω", classical(4, 1, 20, 7)),
            ("anonymous AΩ", anonymous(4, 1, 20, 7)),
        ] {
            assert!(r.decided_by.is_some(), "{name} failed to decide");
        }
    }

    #[test]
    fn fig8_stabilization_tracking_smoke() {
        assert!(tracks_stabilization(4, 2, 60, 8) >= 60);
    }
}
