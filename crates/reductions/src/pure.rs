//! Communication-free reductions, expressed as query wrappers.
//!
//! Several of the paper's transformations need **no communication at
//! all** — the new detector's variables are a pointwise function of the
//! old detector's variables:
//!
//! * **Observation 1** — `HΩ` from `◇HP`: take the smallest trusted
//!   identifier and its multiplicity.
//! * **Lemma 2** — `◇HP` from `AP` (anonymous systems): `h_trusted` is the
//!   multiset of `anap` copies of `⊥`.
//! * **Theorem 3** — `HΣ` from `AΣ` (anonymous systems): each pair
//!   `(x, y)` becomes the label `x` with quorum `⊥^y`.
//!
//! Each wrapper implements the target class's `*Source` trait on top of a
//! source of the origin class, so it can be plugged anywhere a detector of
//! the target class is expected (e.g. under the consensus algorithms).

use homonym_core::classes::{EvtHPOutput, HOmegaOutput, HSigmaOutput};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::{
    APSource, ASigmaSource, Consumes, EvtHPSource, HOmegaSource, HSigmaSource,
};
use homonym_core::time::Time;

/// Observation 1: a detector of class `HΩ` obtained from any detector of
/// class `◇HP` without any communication.
///
/// `h_leader_p` is set to the smallest element of `h_trusted_p` and
/// `h_multiplicity_p` to its multiplicity. While `h_trusted_p` is still
/// empty (which `◇HP` permits before convergence) the wrapper reports the
/// fallback pair `(⊥, 1)` — the class constrains only the eventual output.
///
/// # Examples
///
/// ```
/// use homonym_core::prelude::*;
/// use homonym_reductions::pure::EvtHPToHOmega;
///
/// let src = |_now: Time| EvtHPOutput::new(
///     [Identity::new(2), Identity::new(2), Identity::new(5)].into_iter().collect(),
/// );
/// let homega = EvtHPToHOmega::new(src);
/// let out = homega.h_omega(Time::ZERO);
/// assert_eq!(out.h_leader, Identity::new(2));
/// assert_eq!(out.h_multiplicity, 2);
/// ```
#[derive(Debug, Clone)]
pub struct EvtHPToHOmega<S> {
    source: S,
}

impl<S: EvtHPSource> EvtHPToHOmega<S> {
    /// Wraps a `◇HP` source.
    #[must_use]
    pub fn new(source: S) -> Self {
        EvtHPToHOmega { source }
    }
}

impl<S: EvtHPSource> HOmegaSource for EvtHPToHOmega<S> {
    fn h_omega(&self, now: Time) -> HOmegaOutput {
        let trusted = self.source.evt_hp(now).h_trusted;
        match trusted.min_elem() {
            Some(&leader) => HOmegaOutput::new(leader, trusted.multiplicity(&leader)),
            None => HOmegaOutput::new(Identity::BOTTOM, 1),
        }
    }
}

/// Lemma 2: a detector of class `◇HP` obtained from any detector of class
/// `AP` in an anonymous system, without communication: `h_trusted_p` is a
/// multiset of `anap_p` default identifiers `⊥`.
///
/// # Examples
///
/// ```
/// use homonym_core::prelude::*;
/// use homonym_reductions::pure::APToEvtHP;
///
/// let ap = |_now: Time| APOutput::new(3);
/// let evt_hp = APToEvtHP::new(ap);
/// assert_eq!(evt_hp.evt_hp(Time::ZERO).h_trusted.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct APToEvtHP<S> {
    source: S,
}

impl<S: APSource> APToEvtHP<S> {
    /// Wraps an `AP` source.
    #[must_use]
    pub fn new(source: S) -> Self {
        APToEvtHP { source }
    }
}

impl<S: APSource> EvtHPSource for APToEvtHP<S> {
    fn evt_hp(&self, now: Time) -> EvtHPOutput {
        let anap = self.source.ap(now).anap;
        let trusted: Multiset<Identity> = [(Identity::BOTTOM, anap)].into_iter().collect();
        EvtHPOutput::new(trusted)
    }
}

/// Theorem 3: a detector of class `HΣ` obtained from any detector of class
/// `AΣ` in an anonymous system, without communication: every pair `(x, y)`
/// of `a_sigma_p` contributes label `x` to `h_labels_p` and the pair
/// `(x, ⊥^y)` to `h_quora_p` (replacing any previous pair labelled `x`,
/// which `AΣ` monotonicity makes a shrink).
#[derive(Debug, Clone)]
pub struct ASigmaToHSigma<S> {
    source: S,
}

impl<S: ASigmaSource> ASigmaToHSigma<S> {
    /// Wraps an `AΣ` source.
    #[must_use]
    pub fn new(source: S) -> Self {
        ASigmaToHSigma { source }
    }
}

impl<S: ASigmaSource> HSigmaSource for ASigmaToHSigma<S> {
    fn h_sigma(&self, now: Time) -> HSigmaOutput {
        let a = self.source.a_sigma(now);
        let mut out = HSigmaOutput::new();
        for (x, &y) in &a.a_sigma {
            let bot_y: Multiset<Identity> = [(Identity::BOTTOM, y)].into_iter().collect();
            out.insert_label(x.clone());
            out.insert_quorum(x.clone(), bot_y);
        }
        out
    }
}

/// A wrapper reads through its source, so it hands an output it is
/// given to that source: over a value, it reads the detector stacked
/// under it.
macro_rules! impl_consumes_through {
    ($($wrapper:ident),+ $(,)?) => {
        $(impl<O, S: Consumes<O>> Consumes<O> for $wrapper<S> {
            fn consume(&mut self, output: &O) {
                self.source.consume(output);
            }
        })+
    };
}

impl_consumes_through!(EvtHPToHOmega, APToEvtHP, ASigmaToHSigma);

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_core::properties::History;
    use homonym_detectors::oracle::{OracleWorld, PreStability};

    fn anonymous_world() -> OracleWorld {
        let sched = FailureSchedule::none(5)
            .with_crash(0, Time::from_ticks(6))
            .with_crash(2, Time::from_ticks(14));
        OracleWorld::new(
            sched,
            IdentityAssignment::anonymous(5),
            Time::from_ticks(20),
        )
    }

    fn sample<T>(w: &OracleWorld, horizon: u64, f: impl Fn(usize, Time) -> T) -> Vec<History<T>> {
        (0..w.sched().n())
            .map(|p| {
                (0..=horizon)
                    .map(Time::from_ticks)
                    .filter(|&t| w.sched().is_alive(p, t))
                    .map(|t| (t, f(p, t)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn obs1_h_omega_from_evt_hp_is_class_valid() {
        let w = anonymous_world();
        let h = sample(&w, 40, |p, t| {
            EvtHPToHOmega::new(w.evt_hp_for(p, PreStability::Chaotic)).h_omega(t)
        });
        let rep = check_h_omega(&h, w.sched(), w.assign()).expect("HΩ class valid");
        assert_eq!(rep.leader, Identity::BOTTOM);
        assert_eq!(rep.multiplicity, 3);
    }

    #[test]
    fn obs1_also_works_with_homonymous_ids() {
        let sched = FailureSchedule::none(6).with_crash(1, Time::from_ticks(4));
        let assign = IdentityAssignment::round_robin(6, 2);
        let w = OracleWorld::new(sched, assign, Time::from_ticks(10));
        let h = sample(&w, 30, |p, t| {
            EvtHPToHOmega::new(w.evt_hp_for(p, PreStability::Truthful)).h_omega(t)
        });
        let rep = check_h_omega(&h, w.sched(), w.assign()).expect("HΩ class valid");
        // Correct A-carriers: p0, p2, p4 (p1 has B... round_robin: A B A B A B).
        assert_eq!(rep.leader, Identity::new(0));
        assert_eq!(rep.multiplicity, 3);
    }

    #[test]
    fn lemma2_evt_hp_from_ap_is_class_valid() {
        let w = anonymous_world();
        let h = sample(&w, 40, |_, t| {
            APToEvtHP::new(w.ap(Span::from_ticks(3))).evt_hp(t)
        });
        let rep = check_evt_hp(&h, w.sched(), w.assign()).expect("◇HP class valid");
        assert!(rep.stabilization >= Time::from_ticks(14));
    }

    #[test]
    fn lemma2_then_obs1_gives_h_omega_from_ap() {
        // The composition AP → ◇HP → HΩ (the Figure 5 path).
        let w = anonymous_world();
        let h = sample(&w, 40, |_, t| {
            EvtHPToHOmega::new(APToEvtHP::new(w.ap(Span::from_ticks(2)))).h_omega(t)
        });
        let rep = check_h_omega(&h, w.sched(), w.assign()).expect("HΩ class valid");
        assert_eq!(rep.leader, Identity::BOTTOM);
        assert_eq!(rep.multiplicity, 3);
    }

    #[test]
    fn theorem3_h_sigma_from_a_sigma_is_class_valid() {
        for pre in [PreStability::Truthful, PreStability::Chaotic] {
            let w = anonymous_world();
            let h = sample(&w, 40, |p, t| {
                ASigmaToHSigma::new(w.a_sigma_for(p, pre)).h_sigma(t)
            });
            check_h_sigma(&h, w.sched(), w.assign()).expect("HΣ class valid");
        }
    }

    #[test]
    fn empty_trusted_yields_fallback_leader() {
        let src = |_now: Time| EvtHPOutput::new(Multiset::new());
        let out = EvtHPToHOmega::new(src).h_omega(Time::ZERO);
        assert_eq!(out.h_leader, Identity::BOTTOM);
    }
}
