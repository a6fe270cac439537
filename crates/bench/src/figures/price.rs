//! Experiment E11 — the "price of anonymity" round-complexity gap
//! (context claim cited from \[5\] in §1).
//!
//! Claim reproduced: classical flooding with `P` decides in `t + 1`
//! rounds; anonymous flooding with `AP` needs `2t + 1` — a 2× gap that
//! both variants' checkers confirm is not paid in correctness.

use crate::price_of_anonymity;

pub fn main() {
    println!("## E11 — price of anonymity: P (t+1) vs AP (2t+1)\n");
    println!("| t | n | P rounds | AP rounds | P msgs | AP msgs |");
    println!("|---|---|----------|-----------|--------|---------|");
    for t in 1usize..=5 {
        let r = price_of_anonymity(t, t, 91 + t as u64);
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            r.t,
            2 * t + 1,
            r.p_rounds,
            r.ap_rounds,
            r.p_broadcasts,
            r.ap_broadcasts
        );
        assert_eq!(r.p_rounds, t as u64 + 1);
        assert_eq!(r.ap_rounds, 2 * t as u64 + 1);
    }
    println!("\nThe AP variant always needs 2t+1 rounds — twice the identifier-aware bound.");
}
