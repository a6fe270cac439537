//! Machine-checkable versions of the paper's class properties.
//!
//! Every checker takes per-process **histories** (chronological snapshots of
//! a detector's local variables), the ground-truth [`FailureSchedule`] and
//! the [`IdentityAssignment`], and verifies the properties of §3 of the
//! paper post-hoc. "Eventually forever" properties are checked as "holds on
//! a suffix of the (finite) recorded run that extends to its end", which is
//! the strongest finite-trace approximation; the returned reports carry the
//! start of that suffix so experiments can measure convergence times.
//!
//! The `HΣ`/`AΣ` **Safety** quantifier (`∀Q1 ⊆ S(x1) … ∀Q2 ⊆ S(x2) …`) is
//! decided exactly, without subset enumeration, by a per-identity counting
//! argument: disjoint realizations `Q1, Q2` with `I(Q1) = m1, I(Q2) = m2`
//! exist **iff** for every identity `i`,
//! `m1(i) ≤ |S1(i)|`, `m2(i) ≤ |S2(i)|` and `m1(i) + m2(i) ≤ |S1(i) ∪ S2(i)|`
//! (greedily place `Q1`'s picks preferring `S1 \ S2`). Tests cross-validate
//! this against a brute-force enumerator on small universes.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use crate::classes::{
    AOmegaOutput, APOutput, ASigmaOutput, EListOutput, EvtHPOutput, HOmegaOutput, HSigmaOutput,
    Label, OmegaOutput, SigmaOutput,
};
use crate::failure::FailureSchedule;
use crate::identity::{Identity, IdentityAssignment};
use crate::multiset::Multiset;
use crate::time::Time;

/// A chronological sequence of `(time, snapshot)` pairs for one process.
pub type History<T> = Vec<(Time, T)>;

/// A violated class property, with enough detail to debug the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyViolation {
    /// The detector class or problem whose property failed (e.g. `"HΣ"`).
    pub class: &'static str,
    /// The property that failed (e.g. `"safety"`).
    pub property: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl PropertyViolation {
    fn new(class: &'static str, property: &'static str, detail: String) -> Self {
        PropertyViolation {
            class,
            property,
            detail,
        }
    }
}

impl PropertyViolation {
    /// Whether the violated property is a **liveness** property — one the
    /// paper only requires of eventually-well-behaved runs (`◇HP`
    /// convergence, `HΩ`/`Ω` election, `Σ`-family liveness, consensus
    /// termination). Safety properties (quorum intersection, validity,
    /// agreement, monotonicity) must hold in *every* run, however
    /// adversarial; this split is what [`classify_run`] keys on.
    ///
    /// The classification matches on the `property` name, so a checker
    /// introducing a new liveness property **must** add its name here;
    /// an unlisted name is conservatively treated as safety, which makes
    /// the falsification sweep fail loudly (a spurious counterexample)
    /// rather than silently excuse a real violation.
    #[must_use]
    pub fn is_liveness(&self) -> bool {
        matches!(self.property, "liveness" | "termination" | "election")
    }
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} violated: {}",
            self.class, self.property, self.detail
        )
    }
}

impl std::error::Error for PropertyViolation {}

/// How well-behaved a run's environment was, as established by whoever
/// scheduled its faults (the chaos scenario layer, an oracle world, or a
/// hand-written test) — never by algorithm code.
///
/// The paper splits every detector class into safety (required of every
/// run) and liveness (required only of runs whose environment eventually
/// becomes clean: partitions heal, loss stops, GST passes, and enough of
/// the observation window remains). This struct carries that judgement
/// alongside a run so [`classify_run`] can turn a checker verdict into a
/// scenario-conditional one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCondition {
    /// Whether the run's environment became (and stayed) clean early
    /// enough that liveness properties are required of it.
    pub eventually_clean: bool,
    /// The instant from which the environment was clean, when known
    /// (`None` for runs that never stabilized inside the window).
    pub clean_from: Option<Time>,
    /// Number of **Byzantine** (corrupt) processes in the run — processes
    /// whose broadcasts a payload-mutation adversary may equivocate,
    /// corrupt, replay or selectively suppress. `0` is the paper's
    /// crash-stop model.
    pub corrupt: usize,
    /// Whether the algorithm under test **claims to tolerate** the run's
    /// corrupt processes (a BFT algorithm within its `n > 3f` envelope —
    /// the caller asserts `corrupt` satisfies `3 * corrupt < n`). The
    /// crash-stop algorithms of the paper never claim this.
    pub byzantine_tolerated: bool,
}

impl RunCondition {
    /// A run whose environment was clean from `t` onward.
    #[must_use]
    pub fn clean_from(t: Time) -> Self {
        RunCondition {
            eventually_clean: true,
            clean_from: Some(t),
            corrupt: 0,
            byzantine_tolerated: false,
        }
    }

    /// A run whose environment never became clean inside the window.
    #[must_use]
    pub fn never_clean() -> Self {
        RunCondition {
            eventually_clean: false,
            clean_from: None,
            corrupt: 0,
            byzantine_tolerated: false,
        }
    }

    /// Marks `corrupt` processes of the run as Byzantine (builder style).
    #[must_use]
    pub fn with_corrupt(mut self, corrupt: usize) -> Self {
        self.corrupt = corrupt;
        self
    }

    /// Declares that the algorithm under test claims Byzantine tolerance
    /// for this run's `corrupt` count (builder style): violations then
    /// falsify exactly as in crash-only runs, instead of being recorded
    /// as expected demonstrations.
    ///
    /// # Panics
    ///
    /// Panics unless `3 * corrupt < n` — tolerance claims outside the
    /// standard `f < n/3` BFT envelope are vacuous and almost certainly
    /// a harness bug.
    #[must_use]
    pub fn claiming_byzantine_tolerance(self, n: usize) -> Self {
        assert!(
            3 * self.corrupt < n,
            "a Byzantine-tolerance claim needs f < n/3 (got f={}, n={n})",
            self.corrupt
        );
        RunCondition {
            byzantine_tolerated: true,
            ..self
        }
    }
}

/// The scenario-conditional verdict on one run: safety violations
/// falsify unconditionally, liveness violations only on eventually-clean
/// runs — and in Byzantine runs of an algorithm that never claimed
/// Byzantine tolerance, any violation is an **expected demonstration**
/// rather than a falsification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunVerdict<R> {
    /// Every checked property held (carries the checker's report).
    Pass(R),
    /// A safety property failed — a counterexample in **any** run.
    SafetyViolated(PropertyViolation),
    /// A liveness property failed on an eventually-clean run — a
    /// counterexample.
    LivenessViolated(PropertyViolation),
    /// A liveness property failed on a run whose environment never
    /// became clean — correctly excused, exactly as the definitions
    /// permit.
    LivenessExcused(PropertyViolation),
    /// A property failed in a run with corrupt processes, against an
    /// algorithm that only claims crash tolerance — **not** a bug in the
    /// implementation but a *demonstrated counterexample* to running the
    /// crash-stop algorithm under Byzantine faults (the equivocator hid
    /// among its honest homonyms and broke the stack, exactly as the
    /// BFT literature predicts for algorithms without `n > 3f` quorum
    /// machinery). A Byzantine-**tolerant** algorithm within `f < n/3`
    /// never receives this verdict: its violations classify as
    /// [`RunVerdict::SafetyViolated`] / [`RunVerdict::LivenessViolated`]
    /// via [`RunCondition::claiming_byzantine_tolerance`].
    ByzantineExpected(PropertyViolation),
}

impl<R> RunVerdict<R> {
    /// Whether this verdict falsifies the implementation (safety broken
    /// anywhere, or liveness broken on a clean run; expected Byzantine
    /// demonstrations do not falsify).
    #[must_use]
    pub fn is_falsifying(&self) -> bool {
        matches!(
            self,
            RunVerdict::SafetyViolated(_) | RunVerdict::LivenessViolated(_)
        )
    }

    /// The violation carried by a non-passing verdict.
    #[must_use]
    pub fn violation(&self) -> Option<&PropertyViolation> {
        match self {
            RunVerdict::Pass(_) => None,
            RunVerdict::SafetyViolated(v)
            | RunVerdict::LivenessViolated(v)
            | RunVerdict::LivenessExcused(v)
            | RunVerdict::ByzantineExpected(v) => Some(v),
        }
    }
}

/// Turns a property checker's result into a scenario-conditional
/// [`RunVerdict`]: safety failures are counterexamples regardless of the
/// run's condition, liveness failures only when the environment was
/// [`RunCondition::eventually_clean`] — except in runs with corrupt
/// processes against a crash-only algorithm, where every violation is a
/// [`RunVerdict::ByzantineExpected`] demonstration (the paper's
/// algorithms assume crash-stop failures; a falsification sweep asserts
/// these demonstrations *exist* rather than that they don't).
pub fn classify_run<R>(
    condition: RunCondition,
    result: Result<R, PropertyViolation>,
) -> RunVerdict<R> {
    match result {
        Ok(report) => RunVerdict::Pass(report),
        Err(v) if condition.corrupt > 0 && !condition.byzantine_tolerated => {
            RunVerdict::ByzantineExpected(v)
        }
        Err(v) if !v.is_liveness() => RunVerdict::SafetyViolated(v),
        Err(v) if condition.eventually_clean => RunVerdict::LivenessViolated(v),
        Err(v) => RunVerdict::LivenessExcused(v),
    }
}

/// Finds the earliest snapshot index from which `pred` holds through the end
/// of the history (inclusive), returning its time. `None` when the final
/// snapshot itself fails or the history is empty.
fn stable_suffix_start<T>(hist: &History<T>, mut pred: impl FnMut(&T) -> bool) -> Option<Time> {
    if hist.is_empty() || !pred(&hist.last().expect("nonempty").1) {
        return None;
    }
    let mut start = hist.len() - 1;
    while start > 0 && pred(&hist[start - 1].1) {
        start -= 1;
    }
    Some(hist[start].0)
}

fn require_history<T>(
    class: &'static str,
    histories: &[History<T>],
    sched: &FailureSchedule,
) -> Result<(), PropertyViolation> {
    if histories.len() != sched.n() {
        return Err(PropertyViolation::new(
            class,
            "input",
            format!("{} histories for {} processes", histories.len(), sched.n()),
        ));
    }
    let correct = sched.correct_set();
    if correct.is_empty() {
        return Err(no_correct_process(class, sched));
    }
    for p in correct {
        if histories[p].is_empty() {
            return Err(PropertyViolation::new(
                class,
                "liveness",
                format!("correct process {p} produced no output at all"),
            ));
        }
    }
    Ok(())
}

/// Every class property quantifies over the correct processes, so a run
/// in which all of them crashed is an input no checker can judge.
fn no_correct_process(class: &'static str, sched: &FailureSchedule) -> PropertyViolation {
    PropertyViolation::new(
        class,
        "input",
        format!(
            "the correct set is empty: all {} processes crash",
            sched.n()
        ),
    )
}

// ---------------------------------------------------------------------------
// ◇HP
// ---------------------------------------------------------------------------

/// Report for a `◇HP` run: when each correct process converged to
/// `I(Correct)` for good.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvtHPReport {
    /// Per-process convergence time (`None` for faulty processes).
    pub convergence: Vec<Option<Time>>,
    /// The latest convergence time across correct processes.
    pub stabilization: Time,
}

/// Checks the `◇HP` liveness property: every correct process eventually
/// outputs `I(Correct)` permanently.
///
/// # Errors
///
/// Returns a [`PropertyViolation`] when some correct process never
/// converges (its final snapshot differs from `I(Correct)`).
pub fn check_evt_hp(
    histories: &[History<EvtHPOutput>],
    sched: &FailureSchedule,
    assign: &IdentityAssignment,
) -> Result<EvtHPReport, PropertyViolation> {
    require_history("◇HP", histories, sched)?;
    let target = sched.i_correct(assign);
    let mut convergence = vec![None; sched.n()];
    let mut stabilization = Time::ZERO;
    for p in sched.correct_set() {
        match stable_suffix_start(&histories[p], |o| o.h_trusted == target) {
            Some(t) => {
                convergence[p] = Some(t);
                stabilization = stabilization.max(t);
            }
            None => {
                return Err(PropertyViolation::new(
                    "◇HP",
                    "liveness",
                    format!(
                        "process {p} ended with h_trusted={} but I(Correct)={}",
                        histories[p].last().expect("nonempty").1.h_trusted,
                        target
                    ),
                ));
            }
        }
    }
    Ok(EvtHPReport {
        convergence,
        stabilization,
    })
}

// ---------------------------------------------------------------------------
// HΩ
// ---------------------------------------------------------------------------

/// Report for an `HΩ` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HOmegaReport {
    /// The elected identifier.
    pub leader: Identity,
    /// Number of correct processes carrying the elected identifier.
    pub multiplicity: usize,
    /// Time from which every correct process output the pair permanently.
    pub stabilization: Time,
}

/// Checks the `HΩ` election property: eventually all correct processes
/// permanently agree on `(ℓ, c)` with `ℓ ∈ I(Correct)` and
/// `c = mult_{I(Correct)}(ℓ)`.
///
/// # Errors
///
/// Returns a [`PropertyViolation`] when final outputs disagree, name a
/// faulty identifier, or report a wrong multiplicity.
pub fn check_h_omega(
    histories: &[History<HOmegaOutput>],
    sched: &FailureSchedule,
    assign: &IdentityAssignment,
) -> Result<HOmegaReport, PropertyViolation> {
    require_history("HΩ", histories, sched)?;
    let i_correct = sched.i_correct(assign);
    let correct = sched.correct_set();
    let final_of = |p: usize| histories[p].last().expect("nonempty").1;
    let elected = final_of(correct[0]);
    for &p in &correct {
        let f = final_of(p);
        if f != elected {
            return Err(PropertyViolation::new(
                "HΩ",
                "election",
                format!(
                    "correct processes disagree: p{} ends with {} while p{} ends with {}",
                    correct[0], elected, p, f
                ),
            ));
        }
    }
    if !i_correct.contains(&elected.h_leader) {
        return Err(PropertyViolation::new(
            "HΩ",
            "election",
            format!("elected identifier {} is not correct", elected.h_leader),
        ));
    }
    if elected.h_multiplicity != i_correct.multiplicity(&elected.h_leader) {
        return Err(PropertyViolation::new(
            "HΩ",
            "election",
            format!(
                "multiplicity {} reported for {}, ground truth {}",
                elected.h_multiplicity,
                elected.h_leader,
                i_correct.multiplicity(&elected.h_leader)
            ),
        ));
    }
    let mut stabilization = Time::ZERO;
    for &p in &correct {
        let t = stable_suffix_start(&histories[p], |o| *o == elected)
            .expect("final snapshot equals elected by construction");
        stabilization = stabilization.max(t);
    }
    Ok(HOmegaReport {
        leader: elected.h_leader,
        multiplicity: elected.h_multiplicity,
        stabilization,
    })
}

// ---------------------------------------------------------------------------
// HΣ
// ---------------------------------------------------------------------------

/// Report for an `HΣ` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HSigmaReport {
    /// Per-process time from which the liveness predicate held permanently.
    pub liveness_from: Vec<Option<Time>>,
    /// Number of distinct labels observed across the run.
    pub labels_observed: usize,
    /// Number of distinct `(label, multiset)` pairs safety-checked.
    pub pairs_checked: usize,
}

/// The participation map `S(x) = {p | ∃T : x ∈ h_labels_p^T}`, built from
/// the recorded label histories.
#[must_use]
pub fn participation_map(histories: &[History<HSigmaOutput>]) -> BTreeMap<Label, BTreeSet<usize>> {
    let mut s_map: BTreeMap<Label, BTreeSet<usize>> = BTreeMap::new();
    for (p, hist) in histories.iter().enumerate() {
        for (_, snap) in hist {
            for x in &snap.h_labels {
                s_map.entry(x.clone()).or_default().insert(p);
            }
        }
    }
    s_map
}

/// Decides whether two **disjoint** realizations `Q1 ⊆ s1, Q2 ⊆ s2` with
/// `I(Q1) = m1` and `I(Q2) = m2` exist, by per-identity counting.
///
/// Returns `false` either when one of the multisets is not realizable at
/// all, or when every pair of realizations necessarily intersects — both
/// cases satisfy the Safety property for this pair.
#[must_use]
pub fn disjoint_realizations_exist(
    m1: &Multiset<Identity>,
    s1: &BTreeSet<usize>,
    m2: &Multiset<Identity>,
    s2: &BTreeSet<usize>,
    assign: &IdentityAssignment,
) -> bool {
    let ids: BTreeSet<Identity> = m1.support().chain(m2.support()).copied().collect();
    for id in ids {
        let a1 = m1.multiplicity(&id);
        let a2 = m2.multiplicity(&id);
        let in1 = s1.iter().filter(|&&p| assign.id_of(p) == id).count();
        let in2 = s2.iter().filter(|&&p| assign.id_of(p) == id).count();
        let in_union = s1.union(s2).filter(|&&p| assign.id_of(p) == id).count();
        if a1 > in1 || a2 > in2 || a1 + a2 > in_union {
            return false;
        }
    }
    true
}

/// Brute-force version of [`disjoint_realizations_exist`], enumerating all
/// subsets; only usable for small `n`. Exposed for cross-validation tests.
///
/// # Panics
///
/// Panics if the union of `s1` and `s2` has more than 20 processes.
#[must_use]
pub fn disjoint_realizations_exist_brute(
    m1: &Multiset<Identity>,
    s1: &BTreeSet<usize>,
    m2: &Multiset<Identity>,
    s2: &BTreeSet<usize>,
    assign: &IdentityAssignment,
) -> bool {
    let procs: Vec<usize> = s1.union(s2).copied().collect();
    assert!(procs.len() <= 20, "brute-force checker is exponential");
    let realizations = |m: &Multiset<Identity>, s: &BTreeSet<usize>| -> Vec<BTreeSet<usize>> {
        let members: Vec<usize> = s.iter().copied().collect();
        let mut out = Vec::new();
        for mask in 0u32..(1 << members.len()) {
            let q: BTreeSet<usize> = members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &p)| p)
                .collect();
            if &assign.multiset_of(q.iter().copied()) == m {
                out.push(q);
            }
        }
        out
    };
    let q1s = realizations(m1, s1);
    let q2s = realizations(m2, s2);
    q1s.iter().any(|q1| q2s.iter().any(|q2| q1.is_disjoint(q2)))
}

/// Checks all four `HΣ` properties (§3.2) over recorded histories.
///
/// # Errors
///
/// Returns the first [`PropertyViolation`] found (monotonicity, liveness,
/// or safety; validity is structural in [`HSigmaOutput`]).
pub fn check_h_sigma(
    histories: &[History<HSigmaOutput>],
    sched: &FailureSchedule,
    assign: &IdentityAssignment,
) -> Result<HSigmaReport, PropertyViolation> {
    require_history("HΣ", histories, sched)?;

    // Monotonicity over consecutive snapshots of every process.
    for (p, hist) in histories.iter().enumerate() {
        for w in hist.windows(2) {
            let (prev, next) = (&w[0].1, &w[1].1);
            if !prev.h_labels.is_subset(&next.h_labels) {
                return Err(PropertyViolation::new(
                    "HΣ",
                    "monotonicity",
                    format!(
                        "process {p}: h_labels shrank between {} and {}",
                        w[0].0, w[1].0
                    ),
                ));
            }
            for (x, m) in &prev.h_quora {
                match next.h_quora.get(x) {
                    Some(m_next) if m_next.is_subset(m) => {}
                    Some(_) => {
                        return Err(PropertyViolation::new(
                            "HΣ",
                            "monotonicity",
                            format!("process {p}: quorum multiset for {x} grew at {}", w[1].0),
                        ));
                    }
                    None => {
                        return Err(PropertyViolation::new(
                            "HΣ",
                            "monotonicity",
                            format!("process {p}: pair for {x} disappeared at {}", w[1].0),
                        ));
                    }
                }
            }
        }
    }

    let s_map = participation_map(histories);
    let empty = BTreeSet::new();
    let correct: BTreeSet<usize> = sched.correct_set().into_iter().collect();

    // Liveness: eventually permanently, some pair (x, m) has
    // m ⊆ I(S(x) ∩ Correct).
    let mut liveness_from = vec![None; sched.n()];
    for p in sched.correct_set() {
        let satisfied = |snap: &HSigmaOutput| {
            snap.h_quora.iter().any(|(x, m)| {
                let s_x = s_map.get(x).unwrap_or(&empty);
                let live_ids = assign.multiset_of(s_x.intersection(&correct).copied());
                m.is_subset(&live_ids)
            })
        };
        match stable_suffix_start(&histories[p], satisfied) {
            Some(t) => liveness_from[p] = Some(t),
            None => {
                return Err(PropertyViolation::new(
                    "HΣ",
                    "liveness",
                    format!(
                        "process {p}: final h_quora has no pair (x,m) with m ⊆ I(S(x) ∩ Correct)"
                    ),
                ));
            }
        }
    }

    // Safety: over every (label, multiset) version ever output anywhere.
    let mut all_pairs: BTreeSet<(Label, Multiset<Identity>)> = BTreeSet::new();
    for hist in histories {
        for (_, snap) in hist {
            for (x, m) in &snap.h_quora {
                all_pairs.insert((x.clone(), m.clone()));
            }
        }
    }
    let pairs: Vec<&(Label, Multiset<Identity>)> = all_pairs.iter().collect();
    for i in 0..pairs.len() {
        for j in i..pairs.len() {
            let (x1, m1) = pairs[i];
            let (x2, m2) = pairs[j];
            let s1 = s_map.get(x1).unwrap_or(&empty);
            let s2 = s_map.get(x2).unwrap_or(&empty);
            if disjoint_realizations_exist(m1, s1, m2, s2, assign) {
                return Err(PropertyViolation::new(
                    "HΣ",
                    "safety",
                    format!("pairs ({x1},{m1}) and ({x2},{m2}) admit disjoint quora"),
                ));
            }
        }
    }

    Ok(HSigmaReport {
        liveness_from,
        labels_observed: s_map.len(),
        pairs_checked: pairs.len(),
    })
}

// ---------------------------------------------------------------------------
// Σ
// ---------------------------------------------------------------------------

/// Report for a `Σ` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigmaReport {
    /// Per-process time from which `trusted ⊆ I(Correct)` held permanently.
    pub liveness_from: Vec<Option<Time>>,
    /// Number of distinct trusted multisets safety-checked.
    pub values_checked: usize,
}

/// Checks `Σ` liveness and safety over recorded histories.
///
/// # Errors
///
/// Returns a [`PropertyViolation`] when two outputs have empty
/// intersection or some correct process never converges into `I(Correct)`.
pub fn check_sigma(
    histories: &[History<SigmaOutput>],
    sched: &FailureSchedule,
    assign: &IdentityAssignment,
) -> Result<SigmaReport, PropertyViolation> {
    require_history("Σ", histories, sched)?;
    let i_correct = sched.i_correct(assign);
    let mut liveness_from = vec![None; sched.n()];
    for p in sched.correct_set() {
        match stable_suffix_start(&histories[p], |o| o.trusted.is_subset(&i_correct)) {
            Some(t) => liveness_from[p] = Some(t),
            None => {
                return Err(PropertyViolation::new(
                    "Σ",
                    "liveness",
                    format!(
                        "process {p} ended with trusted={} ⊄ I(Correct)={}",
                        histories[p].last().expect("nonempty").1.trusted,
                        i_correct
                    ),
                ));
            }
        }
    }
    let mut values: BTreeSet<Multiset<Identity>> = BTreeSet::new();
    for hist in histories {
        for (_, snap) in hist {
            values.insert(snap.trusted.clone());
        }
    }
    let vals: Vec<&Multiset<Identity>> = values.iter().collect();
    for i in 0..vals.len() {
        for j in i..vals.len() {
            if vals[i].is_disjoint(vals[j]) {
                return Err(PropertyViolation::new(
                    "Σ",
                    "safety",
                    format!("quora {} and {} do not intersect", vals[i], vals[j]),
                ));
            }
        }
    }
    Ok(SigmaReport {
        liveness_from,
        values_checked: vals.len(),
    })
}

// ---------------------------------------------------------------------------
// Ω / AΩ
// ---------------------------------------------------------------------------

/// Report for an `Ω` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmegaReport {
    /// The elected identifier.
    pub leader: Identity,
    /// Time from which all correct processes output it permanently.
    pub stabilization: Time,
}

/// Checks the `Ω` election property (unique-identifier systems).
///
/// # Errors
///
/// Returns a [`PropertyViolation`] when correct processes end with
/// different leaders or with a faulty leader.
pub fn check_omega(
    histories: &[History<OmegaOutput>],
    sched: &FailureSchedule,
    assign: &IdentityAssignment,
) -> Result<OmegaReport, PropertyViolation> {
    require_history("Ω", histories, sched)?;
    let i_correct = sched.i_correct(assign);
    let correct = sched.correct_set();
    let elected = histories[correct[0]].last().expect("nonempty").1;
    for &p in &correct {
        let f = histories[p].last().expect("nonempty").1;
        if f != elected {
            return Err(PropertyViolation::new(
                "Ω",
                "election",
                format!(
                    "p{} ends with {} but p{} ends with {}",
                    correct[0], elected, p, f
                ),
            ));
        }
    }
    if !i_correct.contains(&elected.leader) {
        return Err(PropertyViolation::new(
            "Ω",
            "election",
            format!("elected identifier {} is not correct", elected.leader),
        ));
    }
    let mut stabilization = Time::ZERO;
    for &p in &correct {
        let t = stable_suffix_start(&histories[p], |o| *o == elected)
            .expect("final snapshot matches by construction");
        stabilization = stabilization.max(t);
    }
    Ok(OmegaReport {
        leader: elected.leader,
        stabilization,
    })
}

/// Report for an `AΩ` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AOmegaReport {
    /// The process index whose flag is eventually permanently `true`.
    pub leader_process: usize,
    /// Time from which the single-leader configuration held permanently.
    pub stabilization: Time,
}

/// Checks the `AΩ` election property: eventually exactly one correct
/// process's Boolean is permanently `true` and all other correct processes'
/// are permanently `false`.
///
/// # Errors
///
/// Returns a [`PropertyViolation`] when the final configuration does not
/// have exactly one correct leader.
pub fn check_a_omega(
    histories: &[History<AOmegaOutput>],
    sched: &FailureSchedule,
) -> Result<AOmegaReport, PropertyViolation> {
    require_history("AΩ", histories, sched)?;
    let correct = sched.correct_set();
    let leaders: Vec<usize> = correct
        .iter()
        .copied()
        .filter(|&p| histories[p].last().expect("nonempty").1.a_leader)
        .collect();
    if leaders.len() != 1 {
        return Err(PropertyViolation::new(
            "AΩ",
            "election",
            format!("{} correct processes end with a_leader=true", leaders.len()),
        ));
    }
    let leader_process = leaders[0];
    let mut stabilization = Time::ZERO;
    for &p in &correct {
        let want = p == leader_process;
        let t = stable_suffix_start(&histories[p], |o| o.a_leader == want)
            .expect("final snapshot matches by construction");
        stabilization = stabilization.max(t);
    }
    Ok(AOmegaReport {
        leader_process,
        stabilization,
    })
}

// ---------------------------------------------------------------------------
// AP / AΣ
// ---------------------------------------------------------------------------

/// Report for an `AP` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct APReport {
    /// Time from which every correct process output `|Correct|` permanently.
    pub stabilization: Time,
}

/// Checks `AP`: safety (`anap_p^T ≥ |Alive^T|` at **every** snapshot) and
/// liveness (correct processes eventually output `|Correct|` permanently).
///
/// # Errors
///
/// Returns a [`PropertyViolation`] on any under-count or missed convergence.
pub fn check_ap(
    histories: &[History<APOutput>],
    sched: &FailureSchedule,
) -> Result<APReport, PropertyViolation> {
    require_history("AP", histories, sched)?;
    for (p, hist) in histories.iter().enumerate() {
        for (t, snap) in hist {
            let alive = sched.alive_at(*t).len();
            if snap.anap < alive {
                return Err(PropertyViolation::new(
                    "AP",
                    "safety",
                    format!(
                        "process {p} output anap={} at {t} but {alive} were alive",
                        snap.anap
                    ),
                ));
            }
        }
    }
    let c = sched.num_correct();
    let mut stabilization = Time::ZERO;
    for p in sched.correct_set() {
        match stable_suffix_start(&histories[p], |o| o.anap == c) {
            Some(t) => stabilization = stabilization.max(t),
            None => {
                return Err(PropertyViolation::new(
                    "AP",
                    "liveness",
                    format!(
                        "process {p} ended with anap={} but |Correct|={c}",
                        histories[p].last().expect("nonempty").1.anap
                    ),
                ));
            }
        }
    }
    Ok(APReport { stabilization })
}

/// Report for an `AΣ` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ASigmaReport {
    /// Per-process time from which the liveness predicate held permanently.
    pub liveness_from: Vec<Option<Time>>,
    /// Number of distinct `(label, count)` pairs safety-checked.
    pub pairs_checked: usize,
}

/// Checks the `AΣ` properties over recorded histories.
///
/// `SA(x)` is reconstructed as every process that ever carried a pair with
/// label `x`.
///
/// # Errors
///
/// Returns the first [`PropertyViolation`] found.
pub fn check_a_sigma(
    histories: &[History<ASigmaOutput>],
    sched: &FailureSchedule,
) -> Result<ASigmaReport, PropertyViolation> {
    require_history("AΣ", histories, sched)?;

    // Monotonicity: a pair (x, y) may only be followed by (x, y') with y' <= y.
    for (p, hist) in histories.iter().enumerate() {
        for w in hist.windows(2) {
            for (x, y) in &w[0].1.a_sigma {
                match w[1].1.a_sigma.get(x) {
                    Some(y_next) if y_next <= y => {}
                    _ => {
                        return Err(PropertyViolation::new(
                            "AΣ",
                            "monotonicity",
                            format!("process {p}: pair for {x} grew or vanished at {}", w[1].0),
                        ));
                    }
                }
            }
        }
    }

    // SA(x): every process that ever held a pair labelled x.
    let mut sa: BTreeMap<Label, BTreeSet<usize>> = BTreeMap::new();
    for (p, hist) in histories.iter().enumerate() {
        for (_, snap) in hist {
            for x in snap.a_sigma.keys() {
                sa.entry(x.clone()).or_default().insert(p);
            }
        }
    }
    let empty = BTreeSet::new();
    let correct: BTreeSet<usize> = sched.correct_set().into_iter().collect();

    let mut liveness_from = vec![None; sched.n()];
    for p in sched.correct_set() {
        let satisfied = |snap: &ASigmaOutput| {
            snap.a_sigma.iter().any(|(x, &y)| {
                let s = sa.get(x).unwrap_or(&empty);
                s.intersection(&correct).count() >= y
            })
        };
        match stable_suffix_start(&histories[p], satisfied) {
            Some(t) => liveness_from[p] = Some(t),
            None => {
                return Err(PropertyViolation::new(
                    "AΣ",
                    "liveness",
                    format!(
                        "process {p}: no pair (x,y) with y live-correct participants at the end"
                    ),
                ));
            }
        }
    }

    let mut all_pairs: BTreeSet<(Label, usize)> = BTreeSet::new();
    for hist in histories {
        for (_, snap) in hist {
            for (x, y) in &snap.a_sigma {
                all_pairs.insert((x.clone(), *y));
            }
        }
    }
    let pairs: Vec<&(Label, usize)> = all_pairs.iter().collect();
    for i in 0..pairs.len() {
        for j in i..pairs.len() {
            let (x1, y1) = pairs[i];
            let (x2, y2) = pairs[j];
            let s1 = sa.get(x1).unwrap_or(&empty);
            let s2 = sa.get(x2).unwrap_or(&empty);
            let union = s1.union(s2).count();
            if *y1 <= s1.len() && *y2 <= s2.len() && y1 + y2 <= union {
                return Err(PropertyViolation::new(
                    "AΣ",
                    "safety",
                    format!("pairs ({x1},{y1}) and ({x2},{y2}) admit disjoint quora"),
                ));
            }
        }
    }

    Ok(ASigmaReport {
        liveness_from,
        pairs_checked: pairs.len(),
    })
}

// ---------------------------------------------------------------------------
// E
// ---------------------------------------------------------------------------

/// Report for a class-`E` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EListReport {
    /// Time from which the prefix property held at every correct process.
    pub stabilization: Time,
}

/// Checks Definition 1: eventually, at every correct process, every correct
/// identifier has rank `≤ |Correct|` permanently.
///
/// # Errors
///
/// Returns a [`PropertyViolation`] when identifiers are not unique or the
/// prefix property fails at the end of the run.
pub fn check_e_list(
    histories: &[History<EListOutput>],
    sched: &FailureSchedule,
    assign: &IdentityAssignment,
) -> Result<EListReport, PropertyViolation> {
    require_history("E", histories, sched)?;
    if !assign.is_unique() {
        return Err(PropertyViolation::new(
            "E",
            "input",
            "class E is only defined for unique identifiers".to_string(),
        ));
    }
    let correct = sched.correct_set();
    let c = correct.len();
    let correct_ids: Vec<Identity> = correct.iter().map(|&q| assign.id_of(q)).collect();
    let prefix_ok = |o: &EListOutput| {
        correct_ids
            .iter()
            .all(|&id| o.rank(id).is_some_and(|r| r <= c))
    };
    let mut stabilization = Time::ZERO;
    for &p in &correct {
        match stable_suffix_start(&histories[p], prefix_ok) {
            Some(t) => stabilization = stabilization.max(t),
            None => {
                return Err(PropertyViolation::new(
                    "E",
                    "liveness",
                    format!(
                        "process {p} ends with {} where some correct id has rank > {c}",
                        histories[p].last().expect("nonempty").1
                    ),
                ));
            }
        }
    }
    Ok(EListReport { stabilization })
}

// ---------------------------------------------------------------------------
// Consensus
// ---------------------------------------------------------------------------

/// What a consensus run produced: the proposals and each process's decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusOutcome {
    /// Proposal of each process (indexed by process).
    pub proposals: Vec<u64>,
    /// Decision of each process: `(time, value)`, or `None` if undecided.
    pub decisions: Vec<Option<(Time, u64)>>,
}

/// Report for a successful consensus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusReport {
    /// The common decided value.
    pub value: u64,
    /// The last decision time among correct processes.
    pub last_decision: Time,
    /// The first decision time in the run.
    pub first_decision: Time,
}

/// Checks Validity, Agreement, and Termination for a consensus run.
///
/// # Errors
///
/// Returns a [`PropertyViolation`] naming the violated consensus property.
pub fn check_consensus(
    outcome: &ConsensusOutcome,
    sched: &FailureSchedule,
) -> Result<ConsensusReport, PropertyViolation> {
    check_decisions(outcome, sched, true)
}

/// Checks a consensus run against **BFT validity**: Agreement and
/// Termination always, Validity only when the run had no corrupt process.
///
/// The paper's crash-model validity — every decided value was proposed by
/// *some* process — is provably unattainable against an unsigned
/// equivocator, and demanding it would mark every Byzantine-tolerant
/// protocol broken. The argument is an indistinguishability one: let a
/// corrupt coordinator-label carrier equivocate, delivering a forged
/// estimate `w` (a value nobody proposed) to a majority of receivers in
/// one consistent broadcast. Each victim's view of that broadcast is
/// *identical* to its view of an honest run in which the sender genuinely
/// proposed `w` — messages carry no unforgeable binding to their sender's
/// true state, because homonymous senders share identifiers and the model
/// has no signatures. In the honest twin run the protocol **must** be
/// able to adopt and decide `w` (otherwise it cannot terminate at all),
/// so in the real run the same protocol steps decide the forged `w`.
/// Multivalued BFT definitions (PBFT's, Tendermint's) therefore promise
/// exactly what is checked here: agreement among all deciders,
/// termination of every correct process, and full validity in runs where
/// no sender lies — which keeps the crash families of the chaos sweep
/// checked at full paper strength.
///
/// `corrupt` is the number of Byzantine senders the failure schedule's
/// run actually contained (a corrupt process still *runs* the honest
/// program, so it appears in `sched` as correct and is held to
/// termination like everyone else).
///
/// # Errors
///
/// Returns a [`PropertyViolation`] naming the violated consensus
/// property (`"agreement"`, `"termination"`, or — in corrupt-free runs —
/// `"validity"`), or `"input"` when no process is correct.
pub fn check_byzantine_consensus(
    outcome: &ConsensusOutcome,
    sched: &FailureSchedule,
    corrupt: usize,
) -> Result<ConsensusReport, PropertyViolation> {
    check_decisions(outcome, sched, corrupt == 0)
}

/// Agreement among all deciders, then termination of every correct
/// process; Validity too when `validity` is set.
fn check_decisions(
    outcome: &ConsensusOutcome,
    sched: &FailureSchedule,
    validity: bool,
) -> Result<ConsensusReport, PropertyViolation> {
    if outcome.proposals.len() != sched.n() || outcome.decisions.len() != sched.n() {
        return Err(PropertyViolation::new(
            "consensus",
            "input",
            "proposals/decisions length mismatch".to_string(),
        ));
    }
    let mut value: Option<u64> = None;
    let mut first = Time::MAX;
    let mut last = Time::ZERO;
    for (p, d) in outcome.decisions.iter().enumerate() {
        if let Some((t, v)) = d {
            if validity && !outcome.proposals.contains(v) {
                return Err(PropertyViolation::new(
                    "consensus",
                    "validity",
                    format!("process {p} decided {v}, which no process proposed"),
                ));
            }
            match value {
                None => value = Some(*v),
                Some(w) if w == *v => {}
                Some(w) => {
                    return Err(PropertyViolation::new(
                        "consensus",
                        "agreement",
                        format!("process {p} decided {v} but another decided {w}"),
                    ));
                }
            }
            first = first.min(*t);
            if sched.is_correct(p) {
                last = last.max(*t);
            }
        }
    }
    let correct = sched.correct_set();
    if correct.is_empty() {
        return Err(no_correct_process("consensus", sched));
    }
    for p in correct {
        if outcome.decisions[p].is_none() {
            return Err(PropertyViolation::new(
                "consensus",
                "termination",
                format!("correct process {p} never decided"),
            ));
        }
    }
    let value = value.expect("a correct process exists and decided");
    Ok(ConsensusReport {
        value,
        last_decision: last,
        first_decision: first,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist<T>(items: Vec<(u64, T)>) -> History<T> {
        items
            .into_iter()
            .map(|(t, o)| (Time::from_ticks(t), o))
            .collect()
    }

    fn two_proc_setup() -> (FailureSchedule, IdentityAssignment) {
        (FailureSchedule::none(2), IdentityAssignment::unique(2))
    }

    #[test]
    fn classify_run_splits_safety_from_liveness() {
        let live = PropertyViolation::new("◇HP", "liveness", "never converged".into());
        let safe = PropertyViolation::new("consensus", "agreement", "two values".into());
        assert!(live.is_liveness());
        assert!(!safe.is_liveness());
        let clean = RunCondition::clean_from(Time::from_ticks(10));
        let dirty = RunCondition::never_clean();

        // Safety failures falsify regardless of the run's condition.
        for cond in [clean, dirty] {
            let v = classify_run::<()>(cond, Err(safe.clone()));
            assert_eq!(v, RunVerdict::SafetyViolated(safe.clone()));
            assert!(v.is_falsifying());
            assert_eq!(v.violation(), Some(&safe));
        }
        // Liveness failures falsify only eventually-clean runs.
        let required = classify_run::<()>(clean, Err(live.clone()));
        assert_eq!(required, RunVerdict::LivenessViolated(live.clone()));
        assert!(required.is_falsifying());
        let excused = classify_run::<()>(dirty, Err(live.clone()));
        assert_eq!(excused, RunVerdict::LivenessExcused(live.clone()));
        assert!(!excused.is_falsifying());
        // Passing runs pass.
        let pass = classify_run(dirty, Ok(7u64));
        assert_eq!(pass, RunVerdict::Pass(7));
        assert!(!pass.is_falsifying() && pass.violation().is_none());
    }

    #[test]
    fn byzantine_runs_demonstrate_rather_than_falsify_crash_only_stacks() {
        let live = PropertyViolation::new("◇HP", "liveness", "never converged".into());
        let safe = PropertyViolation::new("consensus", "agreement", "two values".into());
        let cond = RunCondition::clean_from(Time::from_ticks(10)).with_corrupt(1);
        // Any violation — safety or liveness — in a corrupt run of a
        // crash-only algorithm is an expected demonstration.
        for v in [&live, &safe] {
            let verdict = classify_run::<()>(cond, Err(v.clone()));
            assert_eq!(verdict, RunVerdict::ByzantineExpected(v.clone()));
            assert!(!verdict.is_falsifying());
            assert_eq!(verdict.violation(), Some(v));
        }
        // A clean Byzantine run that still satisfies everything passes.
        assert_eq!(classify_run(cond, Ok(3u64)), RunVerdict::Pass(3));
    }

    #[test]
    fn byzantine_tolerance_claims_restore_falsification() {
        let safe = PropertyViolation::new("consensus", "agreement", "two values".into());
        let live = PropertyViolation::new("consensus", "termination", "stuck".into());
        let cond = RunCondition::clean_from(Time::ZERO)
            .with_corrupt(2)
            .claiming_byzantine_tolerance(7); // 3·2 < 7
        assert_eq!(
            classify_run::<()>(cond, Err(safe.clone())),
            RunVerdict::SafetyViolated(safe)
        );
        assert_eq!(
            classify_run::<()>(cond, Err(live.clone())),
            RunVerdict::LivenessViolated(live.clone())
        );
        let dirty = RunCondition::never_clean()
            .with_corrupt(1)
            .claiming_byzantine_tolerance(4);
        assert_eq!(
            classify_run::<()>(dirty, Err(live.clone())),
            RunVerdict::LivenessExcused(live)
        );
    }

    #[test]
    #[should_panic(expected = "f < n/3")]
    fn tolerance_claims_outside_the_bft_envelope_are_rejected() {
        let _ = RunCondition::clean_from(Time::ZERO)
            .with_corrupt(2)
            .claiming_byzantine_tolerance(6); // 3·2 = 6, not < 6
    }

    #[test]
    fn termination_and_election_count_as_liveness() {
        for prop in ["termination", "election", "liveness"] {
            assert!(PropertyViolation::new("x", prop, String::new()).is_liveness());
        }
        for prop in ["safety", "validity", "agreement", "monotonicity", "input"] {
            assert!(!PropertyViolation::new("x", prop, String::new()).is_liveness());
        }
    }

    #[test]
    fn evt_hp_accepts_converged_run() {
        let (sched, assign) = two_proc_setup();
        let target = sched.i_correct(&assign);
        let wrong: Multiset<Identity> = [Identity::new(9)].into_iter().collect();
        let histories = vec![
            hist(vec![
                (0, EvtHPOutput::new(wrong.clone())),
                (5, EvtHPOutput::new(target.clone())),
            ]),
            hist(vec![(0, EvtHPOutput::new(target.clone()))]),
        ];
        let rep = check_evt_hp(&histories, &sched, &assign).expect("valid");
        assert_eq!(rep.stabilization, Time::from_ticks(5));
        assert_eq!(rep.convergence[1], Some(Time::ZERO));
    }

    #[test]
    fn evt_hp_rejects_unconverged_run() {
        let (sched, assign) = two_proc_setup();
        let wrong: Multiset<Identity> = [Identity::new(9)].into_iter().collect();
        let histories = vec![
            hist(vec![(0, EvtHPOutput::new(wrong))]),
            hist(vec![(0, EvtHPOutput::new(sched.i_correct(&assign)))]),
        ];
        let err = check_evt_hp(&histories, &sched, &assign).unwrap_err();
        assert_eq!(err.property, "liveness");
    }

    #[test]
    fn h_omega_accepts_agreeing_run() {
        let sched = FailureSchedule::none(3).with_crash(2, Time::from_ticks(1));
        let assign = IdentityAssignment::round_robin(3, 2); // A B A; p2 (A) crashes
        let good = HOmegaOutput::new(Identity::new(0), 1);
        let bad = HOmegaOutput::new(Identity::new(1), 2);
        let histories = vec![
            hist(vec![(0, bad), (4, good)]),
            hist(vec![(0, good)]),
            hist(vec![(0, bad)]),
        ];
        let rep = check_h_omega(&histories, &sched, &assign).expect("valid");
        assert_eq!(rep.leader, Identity::new(0));
        assert_eq!(rep.multiplicity, 1);
        assert_eq!(rep.stabilization, Time::from_ticks(4));
    }

    #[test]
    fn h_omega_rejects_wrong_multiplicity() {
        let (sched, assign) = two_proc_setup();
        let out = HOmegaOutput::new(Identity::new(0), 2); // mult of id 0 is 1
        let histories = vec![hist(vec![(0, out)]), hist(vec![(0, out)])];
        let err = check_h_omega(&histories, &sched, &assign).unwrap_err();
        assert!(err.detail.contains("multiplicity"));
    }

    #[test]
    fn disjoint_realizations_counting_matches_brute_force() {
        // 4 processes: ids A A B B; quorum multiset {A, B}.
        let assign = IdentityAssignment::round_robin(4, 2);
        let m: Multiset<Identity> = [Identity::new(0), Identity::new(1)].into_iter().collect();
        let all: BTreeSet<usize> = (0..4).collect();
        assert_eq!(
            disjoint_realizations_exist(&m, &all, &m, &all, &assign),
            disjoint_realizations_exist_brute(&m, &all, &m, &all, &assign)
        );
        // {A,B} twice from 4 processes: {0,1} and {2,3} are disjoint.
        assert!(disjoint_realizations_exist(&m, &all, &m, &all, &assign));

        // Whole multiset {A,A,B,B}: only one realization, intersects itself.
        let whole = assign.multiset();
        assert!(!disjoint_realizations_exist(
            &whole, &all, &whole, &all, &assign
        ));
        assert!(!disjoint_realizations_exist_brute(
            &whole, &all, &whole, &all, &assign
        ));
    }

    #[test]
    fn h_sigma_detects_safety_violation() {
        // 4 anonymous-ish processes, single label whose quorum multiset can be
        // realized by two disjoint halves.
        let sched = FailureSchedule::none(4);
        let assign = IdentityAssignment::anonymous(4);
        let label = Label::opaque(0);
        let m: Multiset<Identity> = [(Identity::BOTTOM, 2)].into_iter().collect();
        let mut out = HSigmaOutput::new();
        out.insert_quorum(label.clone(), m);
        out.insert_label(label);
        let histories: Vec<History<HSigmaOutput>> =
            (0..4).map(|_| hist(vec![(0, out.clone())])).collect();
        let err = check_h_sigma(&histories, &sched, &assign).unwrap_err();
        assert_eq!(err.property, "safety");
    }

    #[test]
    fn h_sigma_accepts_fig7_style_run() {
        // Labels are the alive multisets themselves; quorum = everyone.
        let sched = FailureSchedule::none(3);
        let assign = IdentityAssignment::round_robin(3, 2);
        let whole = assign.multiset();
        let label = Label::id_multiset(whole.clone());
        let mut out = HSigmaOutput::new();
        out.insert_quorum(label.clone(), whole);
        out.insert_label(label);
        let histories: Vec<History<HSigmaOutput>> =
            (0..3).map(|_| hist(vec![(0, out.clone())])).collect();
        let rep = check_h_sigma(&histories, &sched, &assign).expect("valid");
        assert_eq!(rep.labels_observed, 1);
        assert_eq!(rep.pairs_checked, 1);
    }

    #[test]
    fn h_sigma_rejects_monotonicity_break() {
        let sched = FailureSchedule::none(1);
        let assign = IdentityAssignment::unique(1);
        let label = Label::opaque(7);
        let mut with = HSigmaOutput::new();
        with.insert_label(label.clone());
        with.insert_quorum(label, assign.multiset());
        let without = HSigmaOutput::new();
        let histories = vec![hist(vec![(0, with), (1, without)])];
        let err = check_h_sigma(&histories, &sched, &assign).unwrap_err();
        assert_eq!(err.property, "monotonicity");
    }

    #[test]
    fn sigma_rejects_disjoint_quora() {
        let (sched, assign) = two_proc_setup();
        let a = SigmaOutput::new([Identity::new(0)].into_iter().collect());
        let b = SigmaOutput::new([Identity::new(1)].into_iter().collect());
        let histories = vec![hist(vec![(0, a)]), hist(vec![(0, b)])];
        let err = check_sigma(&histories, &sched, &assign).unwrap_err();
        assert_eq!(err.property, "safety");
    }

    #[test]
    fn sigma_accepts_overlapping_quora() {
        let (sched, assign) = two_proc_setup();
        let both: Multiset<Identity> = assign.multiset();
        let a = SigmaOutput::new(both.clone());
        let histories = vec![hist(vec![(0, a.clone())]), hist(vec![(0, a)])];
        check_sigma(&histories, &sched, &assign).expect("valid");
    }

    #[test]
    fn ap_rejects_undercount() {
        let sched = FailureSchedule::none(3);
        let histories = vec![
            hist(vec![(0, APOutput::new(2))]), // 3 alive at t0
            hist(vec![(0, APOutput::new(3))]),
            hist(vec![(0, APOutput::new(3))]),
        ];
        let err = check_ap(&histories, &sched).unwrap_err();
        assert_eq!(err.property, "safety");
    }

    #[test]
    fn ap_accepts_tightening_run() {
        let sched = FailureSchedule::none(2).with_crash(1, Time::from_ticks(3));
        let histories = vec![
            hist(vec![(0, APOutput::new(2)), (5, APOutput::new(1))]),
            hist(vec![(0, APOutput::new(2))]),
        ];
        let rep = check_ap(&histories, &sched).expect("valid");
        assert_eq!(rep.stabilization, Time::from_ticks(5));
    }

    #[test]
    fn e_list_checks_prefix_property() {
        let sched = FailureSchedule::none(3).with_crash(2, Time::from_ticks(1));
        let assign = IdentityAssignment::unique(3);
        let mut good = EListOutput::new();
        good.move_to_front(Identity::new(2)); // crashed id at rank 3 after:
        good.move_to_front(Identity::new(1));
        good.move_to_front(Identity::new(0));
        let histories = vec![
            hist(vec![(0, good.clone())]),
            hist(vec![(0, good.clone())]),
            hist(vec![(0, good)]),
        ];
        check_e_list(&histories, &sched, &assign).expect("valid");
    }

    #[test]
    fn e_list_rejects_correct_id_out_of_prefix() {
        let sched = FailureSchedule::none(3).with_crash(2, Time::from_ticks(1));
        let assign = IdentityAssignment::unique(3);
        let mut bad = EListOutput::new();
        bad.move_to_front(Identity::new(1)); // rank 3 at the end
        bad.move_to_front(Identity::new(2));
        bad.move_to_front(Identity::new(0));
        let histories = vec![
            hist(vec![(0, bad.clone())]),
            hist(vec![(0, bad.clone())]),
            hist(vec![(0, bad)]),
        ];
        let err = check_e_list(&histories, &sched, &assign).unwrap_err();
        assert_eq!(err.property, "liveness");
    }

    #[test]
    fn consensus_checker_catches_disagreement() {
        let sched = FailureSchedule::none(2);
        let outcome = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![
                Some((Time::from_ticks(4), 1)),
                Some((Time::from_ticks(5), 2)),
            ],
        };
        let err = check_consensus(&outcome, &sched).unwrap_err();
        assert_eq!(err.property, "agreement");
    }

    #[test]
    fn consensus_checker_catches_invalid_value() {
        let sched = FailureSchedule::none(1);
        let outcome = ConsensusOutcome {
            proposals: vec![1],
            decisions: vec![Some((Time::ZERO, 9))],
        };
        let err = check_consensus(&outcome, &sched).unwrap_err();
        assert_eq!(err.property, "validity");
    }

    #[test]
    fn consensus_checker_catches_missing_decision() {
        let sched = FailureSchedule::none(2);
        let outcome = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![Some((Time::ZERO, 1)), None],
        };
        let err = check_consensus(&outcome, &sched).unwrap_err();
        assert_eq!(err.property, "termination");
    }

    #[test]
    fn consensus_checker_accepts_good_run() {
        let sched = FailureSchedule::none(2).with_crash(1, Time::ZERO);
        let outcome = ConsensusOutcome {
            proposals: vec![3, 4],
            decisions: vec![Some((Time::from_ticks(7), 4)), None],
        };
        let rep = check_consensus(&outcome, &sched).expect("valid");
        assert_eq!(rep.value, 4);
        assert_eq!(rep.last_decision, Time::from_ticks(7));
    }

    #[test]
    fn byzantine_checker_waives_validity_only_under_corruption() {
        let sched = FailureSchedule::none(2);
        // 99 was proposed by nobody: a forged value decided unanimously.
        let outcome = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![
                Some((Time::from_ticks(3), 99)),
                Some((Time::from_ticks(5), 99)),
            ],
        };
        // With a corrupt sender in the run, BFT validity accepts it...
        let rep = check_byzantine_consensus(&outcome, &sched, 1).expect("BFT-valid");
        assert_eq!(rep.value, 99);
        assert_eq!(rep.last_decision, Time::from_ticks(5));
        // ...but a corrupt-free run is held to full crash validity.
        let err = check_byzantine_consensus(&outcome, &sched, 0).unwrap_err();
        assert_eq!(err.property, "validity");
    }

    #[test]
    fn byzantine_checker_still_enforces_agreement_and_termination() {
        let sched = FailureSchedule::none(2);
        let split = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![Some((Time::ZERO, 1)), Some((Time::ZERO, 2))],
        };
        let err = check_byzantine_consensus(&split, &sched, 1).unwrap_err();
        assert_eq!(err.property, "agreement");
        let hung = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![Some((Time::ZERO, 1)), None],
        };
        let err = check_byzantine_consensus(&hung, &sched, 1).unwrap_err();
        assert_eq!(err.property, "termination");
    }

    #[test]
    fn a_run_with_no_correct_process_is_an_input_violation() {
        let sched = FailureSchedule::none(2)
            .with_crash(0, Time::from_ticks(3))
            .with_crash(1, Time::from_ticks(4));
        let assign = IdentityAssignment::unique(2);
        let is_empty_correct_set = |v: PropertyViolation| {
            v.property == "input" && v.detail.contains("correct set is empty")
        };
        let h = HOmegaOutput::new(Identity::new(0), 1);
        let h_omega = vec![hist(vec![(0, h)]), hist(vec![(0, h)])];
        assert!(is_empty_correct_set(
            check_h_omega(&h_omega, &sched, &assign).unwrap_err()
        ));
        let o = OmegaOutput::new(Identity::new(0));
        let omega = vec![hist(vec![(0, o)]), hist(vec![(0, o)])];
        assert!(is_empty_correct_set(
            check_omega(&omega, &sched, &assign).unwrap_err()
        ));
        let undecided = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![None, None],
        };
        assert!(is_empty_correct_set(
            check_consensus(&undecided, &sched).unwrap_err()
        ));
        for corrupt in [0, 1] {
            assert!(is_empty_correct_set(
                check_byzantine_consensus(&undecided, &sched, corrupt).unwrap_err()
            ));
        }
        // The deciders are still held to validity and agreement.
        let forged = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![Some((Time::ZERO, 9)), None],
        };
        assert_eq!(
            check_consensus(&forged, &sched).unwrap_err().property,
            "validity"
        );
        let split = ConsensusOutcome {
            proposals: vec![1, 2],
            decisions: vec![Some((Time::ZERO, 1)), Some((Time::ZERO, 2))],
        };
        let err = check_byzantine_consensus(&split, &sched, 1).unwrap_err();
        assert_eq!(err.property, "agreement");
    }

    #[test]
    fn a_omega_requires_exactly_one_leader() {
        let sched = FailureSchedule::none(2);
        let t = AOmegaOutput::new(true);
        let f = AOmegaOutput::new(false);
        let ok = vec![hist(vec![(0, t)]), hist(vec![(0, f)])];
        check_a_omega(&ok, &sched).expect("valid");
        let bad = vec![hist(vec![(0, t)]), hist(vec![(0, t)])];
        assert!(check_a_omega(&bad, &sched).is_err());
    }

    #[test]
    fn a_sigma_detects_disjoint_quora() {
        let sched = FailureSchedule::none(4);
        let mut o1 = ASigmaOutput::new();
        o1.insert(Label::opaque(1), 2);
        let mut o2 = ASigmaOutput::new();
        o2.insert(Label::opaque(2), 2);
        // Label 1 known to p0,p1; label 2 known to p2,p3: disjoint quora.
        let histories = vec![
            hist(vec![(0, o1.clone())]),
            hist(vec![(0, o1)]),
            hist(vec![(0, o2.clone())]),
            hist(vec![(0, o2)]),
        ];
        let err = check_a_sigma(&histories, &sched).unwrap_err();
        assert_eq!(err.property, "safety");
    }

    #[test]
    fn a_sigma_accepts_global_quorum() {
        let sched = FailureSchedule::none(3);
        let mut o = ASigmaOutput::new();
        o.insert(Label::opaque(1), 3);
        let histories: Vec<History<ASigmaOutput>> =
            (0..3).map(|_| hist(vec![(0, o.clone())])).collect();
        check_a_sigma(&histories, &sched).expect("valid");
    }
}
