//! Query traits that decouple algorithms from detector implementations.
//!
//! The paper writes its consensus algorithms against an abstract detector
//! (`D ∈ HΩ`, `D2 ∈ HΣ`): the algorithm reads the detector's local
//! variables whenever it likes. These traits are the Rust rendering of that
//! contract. An implementor may be:
//!
//! * an **oracle** computed from the ground-truth failure schedule
//!   (see `homonym_detectors::oracle`),
//! * a closure of the time, or
//! * an **output value** itself (`HOmegaOutput`, `HSigmaOutput`, …), which
//!   reads as the last output a real message-passing implementation
//!   (Figures 3, 6, 7) handed it through [`Consumes`].
//!
//! Queries take the current global [`Time`]; implementations backed by a
//! process-local value simply ignore it.
//!
//! # Handing an output over
//!
//! A real detector runs as the lower half of a `homonym_sim::Stacked`
//! process, and the stack hands every output the detector publishes to the
//! upper half through [`Consumes::consume`], before the upper half's next
//! callback runs. That is Lynch & Sastry's view of a failure detector: its
//! outputs are output actions delivered to the process, not a variable the
//! two share. So no process holds shared mutable state, and a process copies
//! with `Clone`. A consensus algorithm forwards the reading to its detector
//! parameter; a value stores the reading of its own class; an oracle, and
//! any half that reads nothing, takes the empty default.

use crate::classes::{
    AOmegaOutput, APOutput, ASigmaOutput, EListOutput, EvtHPOutput, HOmegaOutput, HSigmaOutput,
    OmegaOutput, SigmaOutput,
};
use crate::identity::Identity;
use crate::multiset::Multiset;
use crate::time::Time;

/// Read access to a `◇HP` detector (`h_trusted`).
pub trait EvtHPSource {
    /// Current value of `h_trusted_p`.
    fn evt_hp(&self, now: Time) -> EvtHPOutput;
}

/// Read access to an `HΩ` detector (`h_leader`, `h_multiplicity`).
pub trait HOmegaSource {
    /// Current value of `(h_leader_p, h_multiplicity_p)`.
    fn h_omega(&self, now: Time) -> HOmegaOutput;
}

/// Read access to an `HΣ` detector (`h_quora`, `h_labels`).
pub trait HSigmaSource {
    /// Current value of `(h_quora_p, h_labels_p)`.
    fn h_sigma(&self, now: Time) -> HSigmaOutput;
}

/// Read access to a `Σ` detector (`trusted`).
pub trait SigmaSource {
    /// Current value of `trusted_p`.
    fn sigma(&self, now: Time) -> SigmaOutput;
}

/// Read access to an `Ω` detector (`leader`).
pub trait OmegaSource {
    /// Current value of `leader_p`.
    fn omega(&self, now: Time) -> OmegaOutput;
}

/// Read access to an `AΩ` detector (`a_leader` flag).
pub trait AOmegaSource {
    /// Current value of `a_leader_p`.
    fn a_omega(&self, now: Time) -> AOmegaOutput;
}

/// Read access to an `AP` detector (`anap`).
pub trait APSource {
    /// Current value of `anap_p`.
    fn ap(&self, now: Time) -> APOutput;
}

/// Read access to an `AΣ` detector (`a_sigma`).
pub trait ASigmaSource {
    /// Current value of `a_sigma_p`.
    fn a_sigma(&self, now: Time) -> ASigmaOutput;
}

/// Read access to a class-`E` detector (`alive` ranked list).
pub trait EListSource {
    /// Current value of `alive_p`.
    fn e_list(&self, now: Time) -> EListOutput;
}

/// An output that says how many carriers of each label its detector
/// trusts: `◇HP`'s `h_trusted_p`. A consumer that counts carriers this
/// way may read it for liveness only — how long to wait — since a
/// detector is wrong before it stabilises and a Byzantine homonym can
/// forge what it gathers.
pub trait TrustedCarriers {
    /// The trusted bag, one instance of a label per trusted carrier.
    fn h_trusted(&self) -> &Multiset<Identity>;
}

impl TrustedCarriers for EvtHPOutput {
    fn h_trusted(&self) -> &Multiset<Identity> {
        &self.h_trusted
    }
}

/// What a process half does with an output its stacked lower half
/// publishes (see "Handing an output over" in the module docs).
///
/// # Examples
///
/// ```
/// use homonym_core::query::{Consumes, HOmegaSource};
/// use homonym_core::classes::HOmegaOutput;
/// use homonym_core::identity::Identity;
/// use homonym_core::time::Time;
///
/// let mut reading = HOmegaOutput::new(Identity::BOTTOM, 1);
/// reading.consume(&HOmegaOutput::new(Identity::new(2), 3));
/// assert_eq!(reading.h_omega(Time::ZERO).h_leader, Identity::new(2));
/// ```
pub trait Consumes<O> {
    /// Takes one output of the lower half. The default ignores it.
    fn consume(&mut self, output: &O) {
        let _ = output;
    }
}

/// An output value reads as itself and stores what it is handed of its
/// own class.
macro_rules! impl_source_for_value {
    ($trait_:ident, $method:ident, $out:ty) => {
        impl $trait_ for $out {
            fn $method(&self, _now: Time) -> $out {
                self.clone()
            }
        }

        impl Consumes<$out> for $out {
            fn consume(&mut self, output: &$out) {
                self.clone_from(output);
            }
        }
    };
}

impl_source_for_value!(EvtHPSource, evt_hp, EvtHPOutput);
impl_source_for_value!(HOmegaSource, h_omega, HOmegaOutput);
impl_source_for_value!(HSigmaSource, h_sigma, HSigmaOutput);
impl_source_for_value!(SigmaSource, sigma, SigmaOutput);
impl_source_for_value!(OmegaSource, omega, OmegaOutput);
impl_source_for_value!(AOmegaSource, a_omega, AOmegaOutput);
impl_source_for_value!(APSource, ap, APOutput);
impl_source_for_value!(ASigmaSource, a_sigma, ASigmaOutput);
impl_source_for_value!(EListSource, e_list, EListOutput);

/// Figure 9 reads `HΩ` and `HΣ` from one process, so each of its two
/// values is handed the other's outputs too, and ignores them.
impl Consumes<HSigmaOutput> for HOmegaOutput {}

macro_rules! impl_source_for_fn {
    ($trait_:ident, $method:ident, $out:ty) => {
        impl<F: Fn(Time) -> $out> $trait_ for F {
            fn $method(&self, now: Time) -> $out {
                self(now)
            }
        }
    };
}

impl_source_for_fn!(EvtHPSource, evt_hp, EvtHPOutput);
impl_source_for_fn!(HOmegaSource, h_omega, HOmegaOutput);
impl_source_for_fn!(HSigmaSource, h_sigma, HSigmaOutput);
impl_source_for_fn!(SigmaSource, sigma, SigmaOutput);
impl_source_for_fn!(OmegaSource, omega, OmegaOutput);
impl_source_for_fn!(AOmegaSource, a_omega, AOmegaOutput);
impl_source_for_fn!(APSource, ap, APOutput);
impl_source_for_fn!(ASigmaSource, a_sigma, ASigmaOutput);
impl_source_for_fn!(EListSource, e_list, EListOutput);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;

    #[test]
    fn closure_is_a_source() {
        let src = |now: Time| HOmegaOutput::new(Identity::new(now.ticks()), 1);
        assert_eq!(src.h_omega(Time::from_ticks(4)).h_leader, Identity::new(4));
    }

    #[test]
    fn a_value_reads_the_last_output_of_its_class() {
        let mut value = APOutput::new(5);
        value.consume(&APOutput::new(3));
        assert_eq!(value.ap(Time::ZERO).anap, 3);
    }
}
