//! # homonym-detectors
//!
//! Failure-detector implementations for homonymous distributed systems,
//! reproducing Section 4 of *"Failure Detectors in Homonymous Distributed
//! Systems"* (ICDCS 2012):
//!
//! * [`evt_hp`] — **Figure 6**: the polling-based `◇HP` detector for
//!   `HPS[∅]` (partially synchronous processes, eventually timely links),
//!   with the **Corollary 2** `HΩ` extraction — all without membership
//!   knowledge;
//! * [`h_sigma_sync`] — **Figure 7**: `HΣ` in synchronous systems
//!   (`HSS[∅]`), quorum labels being the received multisets themselves;
//! * [`h_sigma_step`] — the same algorithm paced by timers (legitimate
//!   under `HSS`'s known bounds) so it can be stacked under asynchronous
//!   consumers in the event engine;
//! * [`ap_estimator`] — the windowed-count `AP` implementation that is
//!   sound under synchrony and **provably breaks** under partial
//!   synchrony, reproducing the implementability boundary of §1;
//! * [`e_list`] — **Figure 3**: the auxiliary class `E` (ranked alive
//!   list) in classical asynchronous systems, used by the Figure 4
//!   reduction;
//! * [`oracle`] — ground-truth oracles for *every* class in the paper
//!   (`◇HP`, `HΩ`, `HΣ`, `Σ`, `Ω`, `AΩ`, `AP`, `AΣ`, `E`), including
//!   adversarial pre-stabilization behaviour, used to drive consensus at
//!   the exact class boundary and to cross-validate the property checkers.
//!
//! # Examples
//!
//! Running the Figure 6 detector in a partially synchronous homonymous
//! system and checking its `◇HP` output:
//!
//! ```
//! use homonym_core::prelude::*;
//! use homonym_detectors::evt_hp::{split_snapshots, EvtHpProcess};
//! use homonym_sim::prelude::*;
//!
//! let assign = IdentityAssignment::round_robin(4, 2); // A B A B
//! let sched = FailureSchedule::none(4).with_crash(3, Time::from_ticks(25));
//! let cfg = SimConfig::new(assign.clone(), sched.clone(), NetworkModel::reliable(Span::TICK));
//! let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
//! engine.run_until(Time::from_ticks(300));
//!
//! let trusted: Vec<_> = engine.histories().iter()
//!     .map(|h| split_snapshots(h).0)
//!     .collect();
//! let report = check_evt_hp(&trusted, &sched, &assign).unwrap();
//! assert!(report.stabilization > Time::from_ticks(25), "after the crash");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ap_estimator;
pub mod e_list;
pub mod evt_hp;
pub mod h_sigma_step;
pub mod h_sigma_sync;
pub mod oracle;

pub use ap_estimator::{AliveMsg, ApEstimatorProcess};
pub use e_list::{EListMsg, EListProcess};
pub use evt_hp::{
    classify_evt_hp, mutate_evt_hp_msg, split_snapshots, EvtHpMsg, EvtHpProcess, EvtHpReading,
    EvtHpSnapshot,
};
pub use h_sigma_step::{HSigmaStepProcess, StepIdentMsg};
pub use h_sigma_sync::{HSigmaSyncProcess, IdentMsg};
pub use oracle::{
    AOmegaOracle, APOracle, ASigmaOracle, EListOracle, EvtHPOracle, HOmegaOracle, HSigmaOracle,
    OmegaOracle, OracleWorld, PreStability, SigmaOracle,
};
