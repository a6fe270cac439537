//! # homonym-reductions
//!
//! Reductions between failure-detector classes, reproducing §3.3 of
//! *"Failure Detectors in Homonymous Distributed Systems"* (ICDCS 2012) —
//! the arrows of the paper's **Figure 5** relation diagram:
//!
//! | Arrow | Result | Module |
//! |---|---|---|
//! | `Σ → HΣ` (membership known)  | Theorem 1(1), Figure 1 | [`sigma_to_hsigma`] |
//! | `Σ → HΣ` (membership unknown)| Theorem 1(2), Figure 2 | [`sigma_to_hsigma`] |
//! | `HΣ → Σ` via class `E`       | Theorem 2, Figure 4    | [`hsigma_to_sigma`] |
//! | `AΣ → HΣ`                    | Theorem 3              | [`pure`] |
//! | `AP → ◇HP`                   | Lemma 2 / Theorem 4    | [`pure`] |
//! | `AP → HΣ`                    | Lemma 3 / Theorem 4    | [`ap_to_hsigma`] |
//! | `◇HP → HΩ`                   | Observation 1          | [`pure`] |
//!
//! Communication-free transformations are query wrappers ([`pure`]);
//! the others are simulator processes whose recorded output histories are
//! validated with the `homonym-core` property checkers.
//!
//! # Examples
//!
//! The `AP → ◇HP → HΩ` path of the Figure 5 diagram, as pure wrappers:
//!
//! ```
//! use homonym_core::prelude::*;
//! use homonym_reductions::{APToEvtHP, EvtHPToHOmega};
//!
//! // An AP source reporting 3 alive anonymous processes.
//! let ap = |_now: Time| APOutput::new(3);
//! let h_omega = EvtHPToHOmega::new(APToEvtHP::new(ap));
//! let out = h_omega.h_omega(Time::ZERO);
//! assert_eq!(out.h_leader, Identity::new(u64::MAX)); // the ⊥ identifier
//! assert_eq!(out.h_multiplicity, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ap_to_hsigma;
pub mod hsigma_to_sigma;
pub mod pure;
pub mod sigma_to_hsigma;

pub use ap_to_hsigma::APToHSigmaProcess;
pub use hsigma_to_sigma::{HSigmaToSigmaProcess, LabelsMsg};
pub use pure::{APToEvtHP, ASigmaToHSigma, EvtHPToHOmega};
pub use sigma_to_hsigma::{classify_membership, MembershipMsg, SigmaToHSigmaProcess};
