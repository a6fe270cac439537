//! Experiment E5 — Figure 5: the relation diagram.
//!
//! Claim reproduced: every arrow of the diagram is a working reduction
//! whose output passes the target class's property checkers.

use crate::fig5_relations;

pub fn main() {
    println!("## E5 — relations between classes (Figure 5)\n");
    println!("| arrow | stated in | class-valid | note |");
    println!("|-------|-----------|-------------|------|");
    for row in fig5_relations(2026) {
        println!(
            "| {} | {} | {} | {} |",
            row.arrow,
            row.stated_in,
            if row.valid { "yes" } else { "**NO**" },
            row.note
        );
    }
}
