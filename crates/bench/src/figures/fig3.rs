//! Experiment E3 — Figure 3: class `E` in `AS[∅]`.
//!
//! Claim reproduced (Lemma 1): the correct identifiers eventually occupy
//! the prefix of `alive_p` permanently; stabilization trails the last
//! crash and grows mildly with `n`.

use crate::fig3_e_list;

pub fn main() {
    println!("## E3 — class E implementation (Figure 3, Lemma 1)\n");
    println!("| n | crashes | stabilization | ALIVE msgs |");
    println!("|---|---------|---------------|------------|");
    for &n in &[3usize, 5, 8, 12, 16, 24] {
        for crashes in [0usize, 1, n / 3] {
            let r = fig3_e_list(n, crashes, 7 + n as u64);
            println!(
                "| {} | {} | t{} | {} |",
                r.n, r.crashes, r.stabilization, r.broadcasts
            );
        }
    }
}
