//! Ground-truth oracles for every failure-detector class.
//!
//! A failure detector is formally a function of the **failure pattern** —
//! it may even be prescient. These oracles compute class-compliant outputs
//! directly from the [`FailureSchedule`], which lets us:
//!
//! * drive the consensus algorithms with detectors that sit exactly at the
//!   class boundary (including adversarially unstable behaviour before a
//!   configurable stabilization time), and
//! * cross-validate the property checkers themselves.
//!
//! All oracles are built from an [`OracleWorld`] and handed to the process
//! factory; each implements the matching `*Source` trait from
//! [`homonym_core::query`].

use std::sync::Arc;

use homonym_core::classes::{
    AOmegaOutput, APOutput, ASigmaOutput, EListOutput, EvtHPOutput, HOmegaOutput, HSigmaOutput,
    Label, OmegaOutput, SigmaOutput,
};
use homonym_core::failure::FailureSchedule;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::multiset::Multiset;
use homonym_core::query::{
    AOmegaSource, APSource, ASigmaSource, Consumes, EListSource, EvtHPSource, HOmegaSource,
    HSigmaSource, OmegaSource, SigmaSource,
};
use homonym_core::time::{Span, Time};

/// Behaviour of an oracle before its stabilization time.
///
/// Classes with *eventual* properties leave pre-stabilization outputs
/// unconstrained; the adversarial variants exercise exactly that freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreStability {
    /// Output the truth immediately (stabilization time is ignored for
    /// classes whose truth is time-dependent, e.g. `AP` tracks `Alive`).
    Truthful,
    /// Output deterministic, per-process-diverging junk until
    /// stabilization: rotating leaders, stale multisets, inflated counts.
    Chaotic,
    /// Adversarially withhold usefulness until stabilization: leader
    /// oracles name an identifier **no process carries** (so nobody acts
    /// as leader and leader-gated algorithms provably stall), quorum
    /// oracles withhold their pairs. Classes with only eventual
    /// properties permit this.
    Paralyzing,
}

/// Shared ground truth from which per-process oracles are derived.
#[derive(Debug, Clone)]
pub struct OracleWorld {
    inner: Arc<WorldInner>,
}

#[derive(Debug)]
struct WorldInner {
    sched: FailureSchedule,
    assign: IdentityAssignment,
    stabilize_at: Time,
    epochs: Vec<Time>,
    // --- query caches ---------------------------------------------------
    // A failure-pattern oracle's output is a pure function of (time,
    // salt, pre-stability mode), and every time-dependent ingredient is
    // constant within an alive-set epoch. Everything an oracle can be
    // asked for is therefore precomputed here once per world: consensus
    // eval loops query leader/quorum oracles several times per message,
    // so recomputing rotating-leader junk or re-scanning the schedule on
    // every call dominated the chaos-sweep profile.
    /// `I(Π)`.
    ids: Multiset<Identity>,
    /// Distinct identifiers, ascending (the chaotic rotation wheel).
    support: Vec<Identity>,
    /// `I(Correct)`.
    i_correct: Multiset<Identity>,
    /// The post-stabilization `HΩ` output.
    stable_h_omega: HOmegaOutput,
    /// Smallest-index correct process (the `AΩ` stable leader).
    first_correct: usize,
    /// `I(Alive(epoch start))` per epoch.
    alive_per_epoch: Vec<Multiset<Identity>>,
    /// `|Alive(epoch start)|` per epoch.
    alive_count_per_epoch: Vec<usize>,
    /// `HΣ` output prefixes per epoch: labels + quora (the visible
    /// flavor) and labels only (the withholding flavor).
    h_sigma_full: Vec<HSigmaOutput>,
    h_sigma_labels_only: Vec<HSigmaOutput>,
    /// `AΣ` output prefixes per epoch (visible flavor; the withholding
    /// flavor is the empty output).
    a_sigma_full: Vec<ASigmaOutput>,
    /// Class-`E` base lists per epoch: correct identifiers first, then
    /// the still-alive faulty ones.
    e_list_per_epoch: Vec<Vec<Identity>>,
}

impl WorldInner {
    /// The index of the alive-set epoch containing `now`.
    fn epoch_idx(&self, now: Time) -> usize {
        // epochs[0] == Time::ZERO <= now always holds.
        self.epochs.partition_point(|&start| start <= now) - 1
    }
}

impl OracleWorld {
    /// Builds a world; oracles stabilize at `stabilize_at` (chaotic ones
    /// output junk strictly before it).
    ///
    /// # Panics
    ///
    /// Panics if sizes mismatch or no process is correct (a failure
    /// detector of these classes is not defined for runs where everyone
    /// crashes).
    #[must_use]
    pub fn new(sched: FailureSchedule, assign: IdentityAssignment, stabilize_at: Time) -> Self {
        assert_eq!(sched.n(), assign.n(), "size mismatch");
        assert!(
            sched.num_correct() > 0,
            "at least one process must be correct"
        );
        let epochs = sched.epoch_starts();
        let ids = assign.multiset();
        let support: Vec<Identity> = ids.support().copied().collect();
        let i_correct = sched.i_correct(&assign);
        let leader = *i_correct.min_elem().expect("some process is correct");
        let stable_h_omega = HOmegaOutput::new(leader, i_correct.multiplicity(&leader));
        let first_correct = sched.correct_set()[0];
        let alive_per_epoch: Vec<Multiset<Identity>> = epochs
            .iter()
            .map(|&t| sched.i_alive_at(t, &assign))
            .collect();
        let alive_count_per_epoch: Vec<usize> =
            epochs.iter().map(|&t| sched.alive_at(t).len()).collect();
        let mut h_sigma_full = Vec::with_capacity(epochs.len());
        let mut h_sigma_labels_only = Vec::with_capacity(epochs.len());
        let mut a_sigma_full = Vec::with_capacity(epochs.len());
        let mut full = HSigmaOutput::new();
        let mut labels_only = HSigmaOutput::new();
        let mut asig = ASigmaOutput::new();
        for e in 0..epochs.len() {
            let label = Label::opaque(e as u64);
            labels_only.insert_label(label.clone());
            full.insert_label(label.clone());
            full.insert_quorum(label.clone(), alive_per_epoch[e].clone());
            asig.insert(label, alive_count_per_epoch[e]);
            h_sigma_full.push(full.clone());
            h_sigma_labels_only.push(labels_only.clone());
            a_sigma_full.push(asig.clone());
        }
        let e_list_per_epoch: Vec<Vec<Identity>> = epochs
            .iter()
            .map(|&start| {
                let mut list: Vec<Identity> = Vec::new();
                for p in sched.correct_set() {
                    list.push(assign.id_of(p));
                }
                for p in sched.alive_at(start) {
                    if !sched.is_correct(p) {
                        list.push(assign.id_of(p));
                    }
                }
                list
            })
            .collect();
        OracleWorld {
            inner: Arc::new(WorldInner {
                sched,
                assign,
                stabilize_at,
                epochs,
                ids,
                support,
                i_correct,
                stable_h_omega,
                first_correct,
                alive_per_epoch,
                alive_count_per_epoch,
                h_sigma_full,
                h_sigma_labels_only,
                a_sigma_full,
                e_list_per_epoch,
            }),
        }
    }

    /// The failure schedule.
    #[must_use]
    pub fn sched(&self) -> &FailureSchedule {
        &self.inner.sched
    }

    /// The identity assignment.
    #[must_use]
    pub fn assign(&self) -> &IdentityAssignment {
        &self.inner.assign
    }

    /// The stabilization time handed to chaotic oracles.
    #[must_use]
    pub fn stabilize_at(&self) -> Time {
        self.inner.stabilize_at
    }

    fn stable(&self, now: Time) -> bool {
        now >= self.inner.stabilize_at
    }

    fn i_correct(&self) -> Multiset<Identity> {
        self.inner.i_correct.clone()
    }

    /// Deterministic per-(time, salt) mixer for chaotic outputs.
    fn mix(now: Time, salt: u64) -> u64 {
        let x = now
            .ticks()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        (x ^ (x >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB)
    }

    /// A `◇HP` oracle for process `p`.
    #[must_use]
    pub fn evt_hp_for(&self, p: usize, pre: PreStability) -> EvtHPOracle {
        EvtHPOracle {
            world: self.clone(),
            salt: p as u64,
            pre,
        }
    }

    /// An `HΩ` oracle for process `p`.
    #[must_use]
    pub fn h_omega_for(&self, p: usize, pre: PreStability) -> HOmegaOracle {
        HOmegaOracle {
            world: self.clone(),
            salt: p as u64,
            pre,
        }
    }

    /// An `HΣ` oracle for process `p`. Chaotic variants *withhold* quorum
    /// pairs until stabilization (monotonicity forbids lying outright).
    #[must_use]
    pub fn h_sigma_for(&self, _p: usize, pre: PreStability) -> HSigmaOracle {
        HSigmaOracle {
            world: self.clone(),
            pre,
        }
    }

    /// A `Σ` oracle (shared by all processes) with the given staleness lag.
    #[must_use]
    pub fn sigma(&self, lag: Span) -> SigmaOracle {
        SigmaOracle {
            world: self.clone(),
            lag,
        }
    }

    /// An `Ω` oracle for process `p`.
    #[must_use]
    pub fn omega_for(&self, p: usize, pre: PreStability) -> OmegaOracle {
        OmegaOracle {
            world: self.clone(),
            salt: p as u64,
            pre,
        }
    }

    /// An `AΩ` oracle for process `p` (flag detector).
    #[must_use]
    pub fn a_omega_for(&self, p: usize, pre: PreStability) -> AOmegaOracle {
        AOmegaOracle {
            world: self.clone(),
            p,
            pre,
        }
    }

    /// An `AP` oracle with the given staleness lag (its safety property is
    /// perpetual, so there is no chaotic variant).
    #[must_use]
    pub fn ap(&self, lag: Span) -> APOracle {
        APOracle {
            world: self.clone(),
            lag,
        }
    }

    /// An `AΣ` oracle for process `p`.
    #[must_use]
    pub fn a_sigma_for(&self, _p: usize, pre: PreStability) -> ASigmaOracle {
        ASigmaOracle {
            world: self.clone(),
            pre,
        }
    }

    /// A class-`E` oracle for process `p` (unique identifiers only).
    ///
    /// # Panics
    ///
    /// Panics if identifiers are not unique.
    #[must_use]
    pub fn e_list_for(&self, p: usize, pre: PreStability) -> EListOracle {
        assert!(self.inner.assign.is_unique(), "class E needs unique ids");
        EListOracle {
            world: self.clone(),
            salt: p as u64,
            pre,
        }
    }
}

/// `◇HP` oracle: junk before stabilization, `I(Correct)` after.
#[derive(Debug, Clone)]
pub struct EvtHPOracle {
    world: OracleWorld,
    salt: u64,
    pre: PreStability,
}

impl EvtHPSource for EvtHPOracle {
    fn evt_hp(&self, now: Time) -> EvtHPOutput {
        let w = &self.world;
        if w.stable(now) || self.pre == PreStability::Truthful {
            if self.pre == PreStability::Truthful && !w.stable(now) {
                // Natural pre-stability truth: the currently alive
                // multiset (cached per epoch).
                let e = w.inner.epoch_idx(now);
                return EvtHPOutput::new(w.inner.alive_per_epoch[e].clone());
            }
            return EvtHPOutput::new(w.i_correct());
        }
        if self.pre == PreStability::Paralyzing {
            return EvtHPOutput::new(Multiset::new());
        }
        // Chaotic: rotate between stale views, per process.
        match OracleWorld::mix(now, self.salt) % 3 {
            0 => EvtHPOutput::new(Multiset::new()),
            1 => EvtHPOutput::new(w.inner.ids.clone()),
            _ => {
                let k =
                    (OracleWorld::mix(now, self.salt ^ 7) as usize) % w.inner.support.len().max(1);
                let id = w.inner.support.get(k).copied().unwrap_or(Identity::BOTTOM);
                EvtHPOutput::new([id].into_iter().collect())
            }
        }
    }
}

/// `HΩ` oracle: rotating wrong leaders before stabilization; the smallest
/// correct identifier (with its correct multiplicity) after.
#[derive(Debug, Clone)]
pub struct HOmegaOracle {
    world: OracleWorld,
    salt: u64,
    pre: PreStability,
}

impl HOmegaOracle {
    /// The post-stabilization output: smallest correct identifier and its
    /// multiplicity among correct processes.
    #[must_use]
    pub fn stable_output(&self) -> HOmegaOutput {
        self.world.inner.stable_h_omega
    }
}

impl HOmegaSource for HOmegaOracle {
    fn h_omega(&self, now: Time) -> HOmegaOutput {
        let w = &self.world;
        if w.stable(now) {
            return self.stable_output();
        }
        match self.pre {
            PreStability::Truthful => {
                // Truth about the *currently alive* multiset: converges to
                // the stable output once the last faulty process crashed.
                let alive = &w.inner.alive_per_epoch[w.inner.epoch_idx(now)];
                let leader = *alive.min_elem().expect("someone is alive");
                HOmegaOutput::new(leader, alive.multiplicity(&leader))
            }
            PreStability::Chaotic => {
                let k = (OracleWorld::mix(now, self.salt) as usize) % w.inner.support.len();
                let id = w.inner.support[k];
                let mult =
                    1 + (OracleWorld::mix(now, self.salt ^ 13) as usize) % w.inner.assign.n();
                HOmegaOutput::new(id, mult)
            }
            // An identifier nobody carries: no process considers itself a
            // leader before stabilization.
            PreStability::Paralyzing => HOmegaOutput::new(Identity::new(u64::MAX - 1), 1),
        }
    }
}

/// `HΣ` oracle built on alive-set **epochs**: one label per epoch, whose
/// quorum is the multiset of identifiers alive at the epoch start.
///
/// Every realization of such a quorum is the full epoch alive-set, and any
/// two epochs' alive sets share the correct processes — safety. The final
/// epoch's quorum is exactly `I(Correct)` — liveness.
#[derive(Debug, Clone)]
pub struct HSigmaOracle {
    world: OracleWorld,
    pre: PreStability,
}

impl HSigmaSource for HSigmaOracle {
    fn h_sigma(&self, now: Time) -> HSigmaOutput {
        let w = &self.world;
        // Labels are visible from their epoch start (the queried process
        // is alive now, hence was alive at every earlier epoch start);
        // chaotic oracles withhold quorum pairs until stabilization —
        // monotonicity forbids emitting anything false instead. Both
        // flavors are precomputed per epoch prefix.
        let e = w.inner.epoch_idx(now);
        let visible = match self.pre {
            PreStability::Truthful => true,
            PreStability::Chaotic | PreStability::Paralyzing => w.stable(now),
        };
        if visible {
            w.inner.h_sigma_full[e].clone()
        } else {
            w.inner.h_sigma_labels_only[e].clone()
        }
    }
}

/// `Σ` oracle: the alive multiset `lag` ticks in the past (any two such
/// views intersect in the correct processes).
#[derive(Debug, Clone)]
pub struct SigmaOracle {
    world: OracleWorld,
    lag: Span,
}

impl SigmaSource for SigmaOracle {
    fn sigma(&self, now: Time) -> SigmaOutput {
        let w = &self.world;
        let t = Time::from_ticks(now.ticks().saturating_sub(self.lag.ticks()));
        SigmaOutput::new(w.inner.alive_per_epoch[w.inner.epoch_idx(t)].clone())
    }
}

/// `Ω` oracle (unique identifiers): rotating leaders before stabilization,
/// the smallest correct identifier after.
#[derive(Debug, Clone)]
pub struct OmegaOracle {
    world: OracleWorld,
    salt: u64,
    pre: PreStability,
}

impl OmegaSource for OmegaOracle {
    fn omega(&self, now: Time) -> OmegaOutput {
        let w = &self.world;
        if w.stable(now) {
            return OmegaOutput::new(w.inner.stable_h_omega.h_leader);
        }
        match self.pre {
            PreStability::Truthful => {
                let alive = &w.inner.alive_per_epoch[w.inner.epoch_idx(now)];
                OmegaOutput::new(*alive.min_elem().expect("someone is alive"))
            }
            PreStability::Chaotic => {
                let k = (OracleWorld::mix(now, self.salt) as usize) % w.inner.support.len();
                OmegaOutput::new(w.inner.support[k])
            }
            PreStability::Paralyzing => OmegaOutput::new(Identity::new(u64::MAX - 1)),
        }
    }
}

/// `AΩ` oracle: after stabilization, `true` exactly at the smallest-index
/// correct process; before (chaotic), flags flip per process.
#[derive(Debug, Clone)]
pub struct AOmegaOracle {
    world: OracleWorld,
    p: usize,
    pre: PreStability,
}

impl AOmegaSource for AOmegaOracle {
    fn a_omega(&self, now: Time) -> AOmegaOutput {
        let w = &self.world;
        let stable_leader = w.inner.first_correct;
        if w.stable(now) || self.pre == PreStability::Truthful {
            return AOmegaOutput::new(self.p == stable_leader);
        }
        if self.pre == PreStability::Paralyzing {
            return AOmegaOutput::new(false);
        }
        AOmegaOutput::new(OracleWorld::mix(now, self.p as u64).is_multiple_of(2))
    }
}

/// `AP` oracle: `|Alive(now − lag)|`, a sound upper bound on the current
/// alive count that converges to `|Correct|`.
#[derive(Debug, Clone)]
pub struct APOracle {
    world: OracleWorld,
    lag: Span,
}

impl APSource for APOracle {
    fn ap(&self, now: Time) -> APOutput {
        let w = &self.world;
        let t = Time::from_ticks(now.ticks().saturating_sub(self.lag.ticks()));
        APOutput::new(w.inner.alive_count_per_epoch[w.inner.epoch_idx(t)])
    }
}

/// `AΣ` oracle: one `(label, size)` pair per alive-set epoch.
#[derive(Debug, Clone)]
pub struct ASigmaOracle {
    world: OracleWorld,
    pre: PreStability,
}

impl ASigmaSource for ASigmaOracle {
    fn a_sigma(&self, now: Time) -> ASigmaOutput {
        let w = &self.world;
        let visible = match self.pre {
            PreStability::Truthful => true,
            PreStability::Chaotic | PreStability::Paralyzing => w.stable(now),
        };
        if visible {
            w.inner.a_sigma_full[w.inner.epoch_idx(now)].clone()
        } else {
            ASigmaOutput::new()
        }
    }
}

/// Class-`E` oracle: correct identifiers first (ascending), then the still-
/// alive faulty ones; chaotic variants rotate the whole list before
/// stabilization.
#[derive(Debug, Clone)]
pub struct EListOracle {
    world: OracleWorld,
    salt: u64,
    pre: PreStability,
}

impl EListSource for EListOracle {
    fn e_list(&self, now: Time) -> EListOutput {
        let w = &self.world;
        let mut list = w.inner.e_list_per_epoch[w.inner.epoch_idx(now)].clone();
        if !w.stable(now) && self.pre != PreStability::Truthful && !list.is_empty() {
            let k = (OracleWorld::mix(now, self.salt) as usize) % list.len();
            list.rotate_left(k);
        }
        EListOutput { alive: list }
    }
}

// An oracle reads the failure schedule, not a stacked detector: it takes
// every output handed to it and keeps nothing (see
// `homonym_core::query::Consumes`). It is a pure function of `(time,
// salt, pre)` over the world's precomputed tables, so a clone shares the
// tables and copies nothing else.
macro_rules! impl_consumes_nothing {
    ($($oracle:ident),+ $(,)?) => {
        $(impl<O> Consumes<O> for $oracle {})+
    };
}

impl_consumes_nothing!(
    EvtHPOracle,
    HOmegaOracle,
    HSigmaOracle,
    SigmaOracle,
    OmegaOracle,
    AOmegaOracle,
    APOracle,
    ASigmaOracle,
    EListOracle,
);

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::properties::{
        check_a_omega, check_a_sigma, check_ap, check_e_list, check_evt_hp, check_h_omega,
        check_h_sigma, check_omega, check_sigma, History,
    };

    fn world(pre_chaos: bool) -> OracleWorld {
        let sched = FailureSchedule::none(5)
            .with_crash(1, Time::from_ticks(7))
            .with_crash(3, Time::from_ticks(15));
        let assign = IdentityAssignment::round_robin(5, 3); // A B C A B
        let stab = if pre_chaos {
            Time::from_ticks(30)
        } else {
            Time::ZERO
        };
        OracleWorld::new(sched, assign, stab)
    }

    /// Samples an oracle into a per-process history over [0, horizon],
    /// querying only while the process is alive.
    fn sample<T, F: Fn(usize, Time) -> T>(w: &OracleWorld, horizon: u64, f: F) -> Vec<History<T>> {
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
    fn evt_hp_oracle_is_class_valid() {
        for chaos in [false, true] {
            let w = world(chaos);
            let pre = if chaos {
                PreStability::Chaotic
            } else {
                PreStability::Truthful
            };
            let h = sample(&w, 60, |p, t| w.evt_hp_for(p, pre).evt_hp(t));
            let rep = check_evt_hp(&h, w.sched(), w.assign()).expect("class valid");
            assert!(rep.stabilization <= Time::from_ticks(30));
        }
    }

    #[test]
    fn h_omega_oracle_is_class_valid_and_unstable_before() {
        let w = world(true);
        let h = sample(&w, 60, |p, t| {
            w.h_omega_for(p, PreStability::Chaotic).h_omega(t)
        });
        // Chaos: before stabilization two processes should disagree somewhere.
        let early: Vec<_> = (0..w.sched().n())
            .map(|p| {
                w.h_omega_for(p, PreStability::Chaotic)
                    .h_omega(Time::from_ticks(3))
            })
            .collect();
        assert!(
            early.windows(2).any(|w2| w2[0] != w2[1]),
            "chaotic oracles should diverge: {early:?}"
        );
        let rep = check_h_omega(&h, w.sched(), w.assign()).expect("class valid");
        // Correct set is {p0(A), p2(C), p4(B)}: leader A with multiplicity 1.
        assert_eq!(rep.leader, Identity::new(0));
        assert_eq!(rep.multiplicity, 1);
    }

    #[test]
    fn h_omega_stable_output_matches_ground_truth() {
        let w = world(false);
        // Correct: p0(A) p2(C) p4(B); smallest correct id = A, multiplicity 1.
        let out = w.h_omega_for(0, PreStability::Truthful).stable_output();
        assert_eq!(out.h_leader, Identity::new(0));
        assert_eq!(out.h_multiplicity, 1);
    }

    #[test]
    fn h_sigma_oracle_is_class_valid() {
        for chaos in [false, true] {
            let w = world(chaos);
            let pre = if chaos {
                PreStability::Chaotic
            } else {
                PreStability::Truthful
            };
            let h = sample(&w, 60, |p, t| w.h_sigma_for(p, pre).h_sigma(t));
            check_h_sigma(&h, w.sched(), w.assign()).expect("class valid");
        }
    }

    #[test]
    fn sigma_oracle_is_class_valid() {
        let w = world(false);
        let h = sample(&w, 60, |_, t| w.sigma(Span::from_ticks(4)).sigma(t));
        check_sigma(&h, w.sched(), w.assign()).expect("class valid");
    }

    #[test]
    fn omega_oracle_is_class_valid() {
        let sched = FailureSchedule::none(4).with_crash(0, Time::from_ticks(9));
        let assign = IdentityAssignment::unique(4);
        let w = OracleWorld::new(sched, assign, Time::from_ticks(20));
        let h = sample(&w, 50, |p, t| {
            w.omega_for(p, PreStability::Chaotic).omega(t)
        });
        let rep = check_omega(&h, w.sched(), w.assign()).expect("class valid");
        assert_eq!(rep.leader, Identity::new(1));
    }

    #[test]
    fn a_omega_oracle_is_class_valid() {
        let w = world(true);
        let h = sample(&w, 60, |p, t| {
            w.a_omega_for(p, PreStability::Chaotic).a_omega(t)
        });
        let rep = check_a_omega(&h, w.sched()).expect("class valid");
        assert_eq!(rep.leader_process, 0);
    }

    #[test]
    fn ap_oracle_is_class_valid() {
        let w = world(false);
        for lag in [0u64, 3, 10] {
            let h = sample(&w, 60, |_, t| w.ap(Span::from_ticks(lag)).ap(t));
            check_ap(&h, w.sched()).expect("class valid");
        }
    }

    #[test]
    fn a_sigma_oracle_is_class_valid() {
        for chaos in [false, true] {
            let w = world(chaos);
            let pre = if chaos {
                PreStability::Chaotic
            } else {
                PreStability::Truthful
            };
            let h = sample(&w, 60, |p, t| w.a_sigma_for(p, pre).a_sigma(t));
            check_a_sigma(&h, w.sched()).expect("class valid");
        }
    }

    #[test]
    fn e_list_oracle_is_class_valid() {
        let sched = FailureSchedule::none(4).with_crash(2, Time::from_ticks(11));
        let assign = IdentityAssignment::unique(4);
        let w = OracleWorld::new(sched, assign, Time::from_ticks(25));
        let h = sample(&w, 50, |p, t| {
            w.e_list_for(p, PreStability::Chaotic).e_list(t)
        });
        check_e_list(&h, w.sched(), w.assign()).expect("class valid");
    }

    #[test]
    #[should_panic(expected = "at least one process must be correct")]
    fn world_rejects_all_faulty() {
        let sched = FailureSchedule::none(2)
            .with_crash(0, Time::ZERO)
            .with_crash(1, Time::ZERO);
        let _ = OracleWorld::new(sched, IdentityAssignment::unique(2), Time::ZERO);
    }
}
