//! Experiment E10 — the §1 headline: Figure 6 + Figure 8 composed solve
//! consensus in homonymous partially synchronous systems with a majority
//! of correct processes.
//!
//! Claim reproduced: decision latency tracks GST — consensus completes
//! shortly after the network stabilizes, at every homonymy degree.

use crate::e2e_partial_synchrony;

pub fn main() {
    println!("## E10 — end-to-end: Fig 6 detector + Fig 8 consensus in HPS\n");
    println!("### GST sweep (n=5, ℓ=2, δ=4, 1 crash)\n");
    println!("| GST | all decided by | broadcasts |");
    println!("|-----|----------------|------------|");
    for &gst in &[0u64, 50, 150, 400, 800] {
        let r = e2e_partial_synchrony(5, 2, gst, 71 + gst);
        println!("| {} | t{} | {} |", r.gst, r.last_decision, r.broadcasts);
    }
    println!("\n### homonymy sweep (GST=100)\n");
    println!("| ℓ | all decided by | broadcasts |");
    println!("|---|----------------|------------|");
    for &l in &[1usize, 2, 5] {
        let r = e2e_partial_synchrony(5, l, 100, 81 + l as u64);
        println!("| {} | t{} | {} |", l, r.last_decision, r.broadcasts);
    }
}
