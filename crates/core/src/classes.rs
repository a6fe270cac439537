//! Output types for every failure-detector class in the paper.
//!
//! A failure detector of a class provides each process with one or two
//! local variables; a *class* is the set of properties those variables
//! satisfy over a run (see [`crate::properties`] for machine-checkable
//! versions of the properties). This module defines the **shape** of each
//! class's output:
//!
//! | Class  | System      | Output                                        |
//! |--------|-------------|-----------------------------------------------|
//! | `◇HP`  | homonymous  | `h_trusted`: multiset of identifiers          |
//! | `HΩ`   | homonymous  | `h_leader` + `h_multiplicity`                  |
//! | `HΣ`   | homonymous  | `h_quora`: set of `(label, multiset)` pairs + `h_labels` |
//! | `Σ`    | classical   | `trusted`: multiset (set when ids are unique) |
//! | `Ω`    | classical   | `leader`: identifier                           |
//! | `E`    | classical   | `alive`: ranked identifier sequence (Def. 1)  |
//! | `AP`   | anonymous   | `anap`: upper bound on #alive                  |
//! | `AΣ`   | anonymous   | `a_sigma`: set of `(label, count)` pairs      |
//! | `AΩ`   | anonymous   | `a_leader`: boolean flag                       |

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use crate::identity::Identity;
use crate::multiset::Multiset;

/// An opaque quorum label `x` for `HΣ` / `AΣ`.
///
/// Different algorithms instantiate labels with different payloads: Figures
/// 1–2 use *sets* of identifiers, Figure 7 uses the received *multiset*
/// itself, Theorem 3 reuses `AΣ` labels, and Lemma 3 uses `⊥^y` (a bare
/// count). `Label` is the sum of those shapes so every reduction can keep
/// its labels distinguishable and totally ordered.
///
/// # Examples
///
/// ```
/// use homonym_core::classes::Label;
/// use homonym_core::identity::Identity;
///
/// let x = Label::id_set([Identity::new(0), Identity::new(1)]);
/// let y = Label::count(3);
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// A set of identifiers (Figures 1 and 2).
    IdSet(BTreeSet<Identity>),
    /// A multiset of identifiers (Figure 7 uses `mset_p` itself).
    IdMultiset(Multiset<Identity>),
    /// An opaque token (oracles, `AΣ` carry-over in Theorem 3).
    Opaque(u64),
    /// The anonymous label `⊥^y` of Lemma 3, identified by the count `y`.
    Count(usize),
}

impl Label {
    /// Builds an [`Label::IdSet`] label from identifiers.
    #[must_use]
    pub fn id_set<I: IntoIterator<Item = Identity>>(ids: I) -> Self {
        Label::IdSet(ids.into_iter().collect())
    }

    /// Builds an [`Label::IdMultiset`] label.
    #[must_use]
    pub fn id_multiset(m: Multiset<Identity>) -> Self {
        Label::IdMultiset(m)
    }

    /// Builds an opaque label.
    #[must_use]
    pub fn opaque(token: u64) -> Self {
        Label::Opaque(token)
    }

    /// Builds the anonymous `⊥^y` label.
    #[must_use]
    pub fn count(y: usize) -> Self {
        Label::Count(y)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::IdSet(s) => {
                write!(f, "⟨")?;
                for (i, id) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{id}")?;
                }
                write!(f, "⟩")
            }
            Label::IdMultiset(m) => write!(f, "⟨{m}⟩"),
            Label::Opaque(t) => write!(f, "#{t}"),
            Label::Count(y) => write!(f, "⊥^{y}"),
        }
    }
}

/// Output of class `◇HP`: eventually the multiset `I(Correct)` forever.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvtHPOutput {
    /// The `h_trusted_p` variable.
    pub h_trusted: Multiset<Identity>,
}

impl EvtHPOutput {
    /// Wraps a trusted multiset.
    #[must_use]
    pub fn new(h_trusted: Multiset<Identity>) -> Self {
        EvtHPOutput { h_trusted }
    }
}

impl fmt::Display for EvtHPOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h_trusted={}", self.h_trusted)
    }
}

/// Output of class `HΩ`: eventually, at every correct process, the same
/// identifier `ℓ` of a correct process together with the number of correct
/// processes carrying `ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HOmegaOutput {
    /// The `h_leader_p` variable.
    pub h_leader: Identity,
    /// The `h_multiplicity_p` variable.
    pub h_multiplicity: usize,
}

impl HOmegaOutput {
    /// Creates an `HΩ` output pair.
    #[must_use]
    pub fn new(h_leader: Identity, h_multiplicity: usize) -> Self {
        HOmegaOutput {
            h_leader,
            h_multiplicity,
        }
    }
}

impl fmt::Display for HOmegaOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leader={} ×{}", self.h_leader, self.h_multiplicity)
    }
}

/// Output of class `HΣ`: the `(h_quora, h_labels)` pair of §3.2.
///
/// `h_quora` maps each label to its quorum multiset — the map keying makes
/// the **Validity** property ("no two pairs with the same label") structural.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HSigmaOutput {
    /// The `h_quora_p` variable: pairs `(x, m)`.
    pub h_quora: BTreeMap<Label, Multiset<Identity>>,
    /// The `h_labels_p` variable: labels whose quorum this process joined.
    pub h_labels: BTreeSet<Label>,
}

impl HSigmaOutput {
    /// Creates an empty output (both variables start empty in every
    /// algorithm of the paper).
    #[must_use]
    pub fn new() -> Self {
        HSigmaOutput::default()
    }

    /// Inserts a `(label, multiset)` pair into `h_quora`, replacing any
    /// previous multiset for the label (as Theorem 3's transformation does).
    pub fn insert_quorum(&mut self, label: Label, m: Multiset<Identity>) {
        self.h_quora.insert(label, m);
    }

    /// Adds a label to `h_labels`.
    pub fn insert_label(&mut self, label: Label) {
        self.h_labels.insert(label);
    }
}

impl fmt::Display for HSigmaOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "quora{{")?;
        for (i, (x, m)) in self.h_quora.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{x}→{m}")?;
        }
        write!(f, "}} labels{{")?;
        for (i, x) in self.h_labels.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "}}")
    }
}

/// Output of class `Σ` (quorum failure detector, classical systems).
///
/// In a homonymous system the natural generalization makes `trusted` a
/// multiset (footnote 6 of the paper); with unique identifiers it
/// degenerates to a set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SigmaOutput {
    /// The `trusted_p` variable.
    pub trusted: Multiset<Identity>,
}

impl SigmaOutput {
    /// Wraps a trusted multiset.
    #[must_use]
    pub fn new(trusted: Multiset<Identity>) -> Self {
        SigmaOutput { trusted }
    }
}

impl fmt::Display for SigmaOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trusted={}", self.trusted)
    }
}

/// Output of class `Ω` (eventual leader election, classical systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OmegaOutput {
    /// The `leader_p` variable.
    pub leader: Identity,
}

impl OmegaOutput {
    /// Wraps a leader identifier.
    #[must_use]
    pub fn new(leader: Identity) -> Self {
        OmegaOutput { leader }
    }
}

impl fmt::Display for OmegaOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leader={}", self.leader)
    }
}

/// Output of class `AΩ` (anonymous eventual leader): a boolean flag that is
/// eventually `true` at exactly one correct process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AOmegaOutput {
    /// The `a_leader_p` Boolean variable.
    pub a_leader: bool,
}

impl AOmegaOutput {
    /// Wraps a leader flag.
    #[must_use]
    pub fn new(a_leader: bool) -> Self {
        AOmegaOutput { a_leader }
    }
}

impl fmt::Display for AOmegaOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a_leader={}", self.a_leader)
    }
}

/// Output of class `AP` (anonymous perfect detector): an upper bound on the
/// current number of alive processes that eventually equals `|Correct|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct APOutput {
    /// The `anap_p` variable.
    pub anap: usize,
}

impl APOutput {
    /// Wraps an alive-count bound.
    #[must_use]
    pub fn new(anap: usize) -> Self {
        APOutput { anap }
    }
}

impl fmt::Display for APOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "anap={}", self.anap)
    }
}

/// Output of class `AΣ` (anonymous quorum detector): pairs `(x, y)` where
/// `y` processes knowing label `x` form a quorum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ASigmaOutput {
    /// The `a_sigma_p` variable: label → quorum size (map keying makes the
    /// Validity property structural).
    pub a_sigma: BTreeMap<Label, usize>,
}

impl ASigmaOutput {
    /// Creates an empty output.
    #[must_use]
    pub fn new() -> Self {
        ASigmaOutput::default()
    }

    /// Inserts (or tightens) a `(label, count)` pair.
    pub fn insert(&mut self, label: Label, y: usize) {
        self.a_sigma.insert(label, y);
    }
}

impl fmt::Display for ASigmaOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a_sigma{{")?;
        for (i, (x, y)) in self.a_sigma.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "({x},{y})")?;
        }
        write!(f, "}}")
    }
}

/// Output of the auxiliary class `E` (Definition 1): a sequence of process
/// identifiers such that eventually the correct identifiers occupy the
/// prefix permanently. Only defined for systems with **unique** identifiers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EListOutput {
    /// The `alive_p` sequence, most-recently-heard-from first.
    pub alive: Vec<Identity>,
}

impl EListOutput {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        EListOutput::default()
    }

    /// `rank(i, alive_p)`: 1-based position of `i`, or `None` when absent
    /// (the paper uses rank `∞` for absent identifiers).
    #[must_use]
    pub fn rank(&self, id: Identity) -> Option<usize> {
        self.alive.iter().position(|&x| x == id).map(|i| i + 1)
    }

    /// Moves `id` to the front, inserting it if absent (Figure 3, lines
    /// 11–12).
    pub fn move_to_front(&mut self, id: Identity) {
        if let Some(pos) = self.alive.iter().position(|&x| x == id) {
            self.alive.remove(pos);
        }
        self.alive.insert(0, id);
    }
}

impl fmt::Display for EListOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alive=[")?;
        for (i, id) in self.alive.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_of_different_shapes_are_distinct() {
        let a = Label::id_set([Identity::new(0)]);
        let b = Label::id_multiset([Identity::new(0)].into_iter().collect());
        let c = Label::opaque(0);
        let d = Label::count(0);
        let all = [a, b, c, d];
        for i in 0..all.len() {
            for j in 0..all.len() {
                assert_eq!(i == j, all[i] == all[j]);
            }
        }
    }

    #[test]
    fn label_ordering_is_total() {
        let mut v = [Label::count(2), Label::opaque(1), Label::count(1)];
        v.sort();
        assert_eq!(v[0], v.iter().min().unwrap().clone());
    }

    #[test]
    fn hsigma_validity_is_structural() {
        let mut o = HSigmaOutput::new();
        let x = Label::opaque(1);
        o.insert_quorum(x.clone(), [Identity::new(0)].into_iter().collect());
        o.insert_quorum(x.clone(), [Identity::new(1)].into_iter().collect());
        // Re-inserting the same label replaces: never two pairs per label.
        assert_eq!(o.h_quora.len(), 1);
        assert_eq!(
            o.h_quora[&x],
            [Identity::new(1)].into_iter().collect::<Multiset<_>>()
        );
    }

    #[test]
    fn elist_rank_is_one_based() {
        let mut e = EListOutput::new();
        e.move_to_front(Identity::new(3));
        e.move_to_front(Identity::new(5));
        assert_eq!(e.rank(Identity::new(5)), Some(1));
        assert_eq!(e.rank(Identity::new(3)), Some(2));
        assert_eq!(e.rank(Identity::new(9)), None);
    }

    #[test]
    fn elist_move_to_front_deduplicates() {
        let mut e = EListOutput::new();
        e.move_to_front(Identity::new(1));
        e.move_to_front(Identity::new(2));
        e.move_to_front(Identity::new(1));
        assert_eq!(e.alive, vec![Identity::new(1), Identity::new(2)]);
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert!(!EvtHPOutput::default().to_string().is_empty());
        assert!(!HOmegaOutput::new(Identity::new(0), 2)
            .to_string()
            .is_empty());
        assert!(!HSigmaOutput::new().to_string().is_empty());
        assert!(!SigmaOutput::default().to_string().is_empty());
        assert!(!OmegaOutput::new(Identity::new(0)).to_string().is_empty());
        assert!(!AOmegaOutput::new(true).to_string().is_empty());
        assert!(!APOutput::new(3).to_string().is_empty());
        assert!(!ASigmaOutput::new().to_string().is_empty());
        assert!(!EListOutput::new().to_string().is_empty());
        assert!(!Label::count(2).to_string().is_empty());
    }
}
