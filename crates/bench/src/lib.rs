//! # homonym-bench
//!
//! Experiment harness regenerating the behavioural content of **every
//! figure** of *"Failure Detectors in Homonymous Distributed Systems"*:
//!
//! | Figure | Runner | Table |
//! |---|---|---|
//! | Fig 1-2 (Σ→HΣ)     | [`experiments::fig12_sigma_to_hsigma`] | `exp fig1_fig2` |
//! | Fig 3 (class E)    | [`experiments::fig3_e_list`]           | `exp fig3` |
//! | Fig 4 (HΣ→Σ)       | [`experiments::fig4_hsigma_to_sigma`]  | `exp fig4` |
//! | Fig 5 (relations)  | [`experiments::fig5_relations`]        | `exp fig5` |
//! | Fig 6 (◇HP/HΩ)     | [`experiments::fig6_evt_hp`]           | `exp fig6` |
//! | Fig 7 (HΣ in HSS)  | [`experiments::fig7_h_sigma`]          | `exp fig7` |
//! | Fig 8 (consensus)  | [`experiments::fig8_consensus`]        | `exp fig8` |
//! | Fig 9 (consensus)  | [`experiments::fig9_consensus`]        | `exp fig9` |
//! | §1 end-to-end      | [`experiments::e2e_partial_synchrony`] | `exp e2e` |
//! | §1 price of anon.  | [`experiments::price_of_anonymity`]    | `exp price` |
//!
//! One binary, `exp`, prints them all: its first argument names the
//! table ([`figures::ALL`]; `exp --list`), and `ablation`, `combined` and
//! `chaos` (the falsification sweep, which alone takes flags) ride along.
//!
//! Every runner embeds the class/consensus property checkers, so each data
//! point doubles as a correctness assertion. `EXPERIMENTS.md` at the
//! workspace root records the resulting tables next to the paper's claims.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod figures;
pub mod json;

pub use experiments::*;
pub use json::maybe_dump;
