//! Experiment E8 — Figure 8: consensus in `HAS[t < n/2, HΩ]` (Theorem 7).
//!
//! Claims reproduced:
//! * validity/agreement/termination across n, ℓ, crash patterns, and
//!   detector stabilization times (every row is checker-verified);
//! * at ℓ = n the run matches the classical `Ω` baseline's behaviour, at
//!   ℓ = 1 the anonymous `AΩ` baseline's — Figure 8 generalizes both;
//! * the homonymous coordination phase costs extra COORD traffic that
//!   grows with n but keeps decision latency in the same band.

use crate::{fig8_consensus, fig8_tracks_stabilization, maybe_dump, ConsensusVariant};

pub fn main() {
    println!("## E8 — consensus with HΩ and a majority (Figure 8)\n");
    println!("### homonymy sweep (n=6, 2 crashes, detector stabilizes at t=60)\n");
    println!("| ℓ | decided | last decision | rounds | broadcasts |");
    println!("|---|---------|---------------|--------|------------|");
    let mut rows = Vec::new();
    for &l in &[1usize, 2, 3, 6] {
        let r = fig8_consensus(
            ConsensusVariant::Fig8HOmega,
            6,
            l,
            2,
            60,
            true,
            21 + l as u64,
        );
        println!(
            "| {} | {} | t{} | {} | {} |",
            r.l, r.decided, r.last_decision, r.rounds, r.broadcasts
        );
        rows.push(r);
    }
    maybe_dump("fig8_homonymy_sweep", &rows);

    println!("\n### n sweep (ℓ=2, 1 crash, stabilize t=40)\n");
    println!("| n | last decision | rounds | broadcasts |");
    println!("|---|---------------|--------|------------|");
    for &n in &[3usize, 5, 7, 9, 13] {
        let r = fig8_consensus(
            ConsensusVariant::Fig8HOmega,
            n,
            2,
            1,
            40,
            true,
            31 + n as u64,
        );
        println!(
            "| {} | t{} | {} | {} |",
            r.n, r.last_decision, r.rounds, r.broadcasts
        );
    }

    println!("\n### baseline crossover (n=6, 2 crashes, stabilize t=60)\n");
    println!("| variant | decided | last decision | rounds | broadcasts |");
    println!("|---------|---------|---------------|--------|------------|");
    let rows = [
        (
            "Fig 8, ℓ=6 (≡ unique ids)",
            fig8_consensus(ConsensusVariant::Fig8HOmega, 6, 6, 2, 60, true, 101),
        ),
        (
            "classical Ω baseline",
            fig8_consensus(ConsensusVariant::ClassicalOmega, 6, 6, 2, 60, true, 101),
        ),
        (
            "Fig 8, ℓ=1 (≡ anonymous)",
            fig8_consensus(ConsensusVariant::Fig8HOmega, 6, 1, 2, 60, true, 102),
        ),
        (
            "anonymous AΩ baseline",
            fig8_consensus(ConsensusVariant::AnonymousAOmega, 6, 1, 2, 60, true, 102),
        ),
    ];
    for (name, r) in rows {
        println!(
            "| {} | {} | t{} | {} | {} |",
            name, r.decided, r.last_decision, r.rounds, r.broadcasts
        );
    }

    println!("\n### detector-stabilization sweep (n=5, ℓ=2, 1 crash, paralyzing oracle)\n");
    println!("| stabilize | last decision |");
    println!("|-----------|---------------|");
    for &s in &[0u64, 50, 150, 400] {
        let r = fig8_tracks_stabilization(5, 2, s, 41 + s);
        println!("| t{} | t{} |", r.stabilize, r.last_decision);
    }
}
