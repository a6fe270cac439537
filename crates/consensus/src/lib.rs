//! # homonym-consensus
//!
//! Consensus algorithms for homonymous asynchronous systems, reproducing
//! §5 of *"Failure Detectors in Homonymous Distributed Systems"* (ICDCS
//! 2012), plus the baselines the paper builds on:
//!
//! * [`fig8`] — **Figure 8**: consensus in `HAS[t < n/2, HΩ]` (majority of
//!   correct processes, `n` known). Generic over a [`fig8::LeaderPolicy`],
//!   which also yields the §5.3 baselines: classical `Ω` consensus with
//!   unique identifiers and anonymous `AΩ` consensus (Figure 4 of \[4\]) —
//!   both are Figure 8 *minus* the Leaders' Coordination Phase.
//! * [`fig9`] — **Figure 9**: consensus in `HAS[HΩ, HΣ]` — any number of
//!   crashes, neither `n` nor `t` known; quorum waits driven by `HΣ` with
//!   sub-round label refresh.
//! * [`flooding`] — the "price of anonymity" baselines cited from \[5\]:
//!   classical flooding with `P` decides in `t + 1` rounds; anonymous
//!   flooding with `AP` needs `2t + 1`.
//! * [`byz_quorum`] — the Byzantine-*tolerant* extension: consensus in
//!   `HAS[n > 3f]` from explicit `> (n+f)/2` quorum certificates, the
//!   defense against the equivocating-homonym adversary that fells the
//!   crash-model stacks above.
//! * [`conflict`] — the crate-wide conflicting-payload policy shared by
//!   all of them (crash-model smallest-value-wins vs. Byzantine
//!   detect-and-discard).
//!
//! # Examples
//!
//! Figure 8 consensus among homonymous processes, driven by an `HΩ`
//! source (here a closure standing in for a detector):
//!
//! ```
//! use homonym_consensus::{HOmegaPolicy, MajorityConsensus};
//! use homonym_core::prelude::*;
//! use homonym_sim::prelude::*;
//!
//! let assign = IdentityAssignment::round_robin(3, 2); // A B A
//! let sched = FailureSchedule::none(3);
//! // A constant HΩ view: identifier A leads with multiplicity 2.
//! let homega = |_now: Time| HOmegaOutput::new(Identity::new(0), 2);
//!
//! let proposals = [30u64, 10, 20];
//! let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::reliable(Span::TICK));
//! let mut engine = Engine::new(cfg, |p, _| {
//!     MajorityConsensus::new(proposals[p], 3, 1, HOmegaPolicy(homega))
//! });
//! engine.run_until_all_correct_decided(Time::from_ticks(1_000));
//! let report = check_consensus(&engine.outcome(proposals.to_vec()), &sched).unwrap();
//! // The two A-leaders coordinate on min(30, 20) = 20.
//! assert_eq!(report.value, 20);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod byz_quorum;
pub mod conflict;
pub mod fig8;
pub mod fig9;
pub mod flooding;
mod round_window;
pub mod rsm;

pub use byz_quorum::{classify_byz, mutate_byz_msg, ByzMsg, ByzQuorumConsensus};
pub use conflict::{crash_model_pick, WindowLedger};
pub use fig8::{
    classify_fig8, mutate_fig8_msg, AOmegaPolicy, Fig8Msg, HOmegaPolicy, LeaderPolicy,
    MajorityConsensus, OmegaPolicy, UncoordinatedHOmegaPolicy,
};
pub use fig9::{classify_fig9, mutate_fig9_msg, Fig9Msg, QuorumConsensus, QuorumMsg};
pub use flooding::{classify_flood, AnonFloodingConsensus, FloodMsg, PFloodingConsensus};
pub use rsm::{
    ByzHeightSeed, Fig8HeightSeed, Fig9HeightSeed, HeightEngine, LogEntry, ReplicatedLog, RsmMsg,
    RsmOptions, StatePart,
};
