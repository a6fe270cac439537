//! # homonym-bench
//!
//! The experiment tables regenerating the behavioural content of **every
//! figure** of *"Failure Detectors in Homonymous Distributed Systems"*:
//!
//! | Figure | Table | Module |
//! |---|---|---|
//! | Fig 1-2 (Σ→HΣ)     | `exp fig1_fig2` | `figures/fig1_fig2.rs` |
//! | Fig 3 (class E)    | `exp fig3`      | `figures/fig3.rs` |
//! | Fig 4 (HΣ→Σ)       | `exp fig4`      | `figures/fig4.rs` |
//! | Fig 5 (relations)  | `exp fig5`      | `figures/fig5.rs` |
//! | Fig 6 (◇HP/HΩ)     | `exp fig6`      | `figures/fig6.rs` |
//! | Fig 7 (HΣ in HSS)  | `exp fig7`      | `figures/fig7.rs` |
//! | Fig 8 (consensus)  | `exp fig8`      | `figures/fig8.rs` |
//! | Fig 9 (consensus)  | `exp fig9`      | `figures/fig9.rs` |
//! | §1 end-to-end      | `exp e2e`       | `figures/e2e.rs` |
//! | §1 price of anon.  | `exp price`     | `figures/price.rs` |
//!
//! One binary, `exp`, prints them all: its first argument names the
//! table ([`figures::ALL`]; `exp --list`), and `ablation`, `combined` and
//! `chaos` (the falsification sweep, which alone takes flags) ride along.
//!
//! Each module holds its table's runs, the class or consensus checkers
//! that judge every run, and the `println!`s, so each data point doubles
//! as a correctness assertion. Every table, as `exp` prints it, is pinned
//! under `crates/bench/golden/` (one file a table, e.g.
//! `crates/bench/golden/fig8.md`). `EXPERIMENTS.md` at the workspace root
//! states each table's claim, command, checker and pinned output;
//! `BENCHMARKS.md` describes the checkpoint format, and
//! `benchmark/README.md` the benchmark package that measures the layers
//! the tables exercise.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
