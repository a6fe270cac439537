//! # homonym-core
//!
//! Model layer for **homonymous distributed systems** — systems in which
//! several crash-prone processes may carry the same identifier and no
//! process initially knows the membership. This crate is the foundation of
//! the `homonym` workspace, a full reproduction of
//!
//! > *Failure Detectors in Homonymous Distributed Systems (with an
//! > Application to Consensus)* — S. Arévalo, A. Fernández Anta, D. Imbs,
//! > E. Jiménez, M. Raynal (ICDCS 2012).
//!
//! It provides:
//!
//! * [`identity`] — observable process identifiers and homonymous
//!   assignments (`ℓ` distinct identifiers over `n` processes);
//! * [`multiset`] — the counted-bag algebra behind the paper's `I(S)`
//!   notation;
//! * [`time`] — the discrete global clock (a formalization tool processes
//!   cannot read);
//! * [`failure`] — crash schedules, the ground truth of a run;
//! * [`classes`] — output shapes of every failure-detector class in the
//!   paper (`◇HP`, `HΩ`, `HΣ`, `Σ`, `Ω`, `E`, `AP`, `AΩ`, `AΣ`);
//! * [`query`] — the traits algorithms use to read a detector, independent
//!   of whether it is an oracle or a real message-passing implementation,
//!   and the one through which a stacked detector hands its output over;
//! * [`properties`] — post-hoc checkers for each class's properties and for
//!   consensus (validity / agreement / termination).
//!
//! # Examples
//!
//! ```
//! use homonym_core::prelude::*;
//!
//! // Five processes over two identifiers: A B A B A.
//! let assign = IdentityAssignment::round_robin(5, 2);
//! let sched = FailureSchedule::none(5).with_crash(4, Time::from_ticks(10));
//!
//! // The multiset of correct identifiers: {A, A, B, B}.
//! let correct = sched.i_correct(&assign);
//! assert_eq!(correct.len(), 4);
//! assert_eq!(correct.multiplicity(&Identity::new(0)), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classes;
pub mod failure;
pub mod identity;
pub mod multiset;
pub mod properties;
pub mod query;
pub mod time;
pub mod wire;

pub use classes::{
    AOmegaOutput, APOutput, ASigmaOutput, EListOutput, EvtHPOutput, HOmegaOutput, HSigmaOutput,
    Label, OmegaOutput, SigmaOutput,
};
pub use failure::FailureSchedule;
pub use identity::{Identity, IdentityAssignment};
pub use multiset::Multiset;
pub use time::{Span, Time};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::classes::{
        AOmegaOutput, APOutput, ASigmaOutput, EListOutput, EvtHPOutput, HOmegaOutput, HSigmaOutput,
        Label, OmegaOutput, SigmaOutput,
    };
    pub use crate::failure::FailureSchedule;
    pub use crate::identity::{Identity, IdentityAssignment};
    pub use crate::multiset::Multiset;
    pub use crate::properties::{
        check_a_omega, check_a_sigma, check_ap, check_byzantine_consensus, check_consensus,
        check_e_list, check_evt_hp, check_h_omega, check_h_sigma, check_omega, check_sigma,
        classify_run, ConsensusOutcome, History, PropertyViolation, RunCondition, RunVerdict,
    };
    pub use crate::query::{
        AOmegaSource, APSource, ASigmaSource, Consumes, EListSource, EvtHPSource, HOmegaSource,
        HSigmaSource, OmegaSource, SigmaSource,
    };
    pub use crate::time::{Span, Time};
}
