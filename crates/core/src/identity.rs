//! Process identities and homonymous identity assignments.
//!
//! In a homonymous system several processes may carry the same identifier:
//! `p != q` does **not** imply `id(p) != id(q)`. An [`Identity`] is the
//! identifier an algorithm can observe; the *process index* (a plain
//! `usize` in `0..n`) is the formalization tool `Π` of the paper — it is
//! known to the simulator, the failure schedule and the property checkers,
//! but never to algorithm code.

use core::fmt;
use std::sync::Arc;

use crate::multiset::Multiset;

/// An observable process identifier.
///
/// Identifiers are ordered and hashable so they can be carried in
/// [`Multiset`]s and used as map keys; the paper's algorithms compare them
/// (e.g. `HΩ` extraction takes the *smallest* trusted identifier).
///
/// The `Display` form uses spreadsheet-style letters (`A`, `B`, …, `Z`,
/// `AA`, …) which keeps traces readable when identities collide.
///
/// # Examples
///
/// ```
/// use homonym_core::identity::Identity;
///
/// let a = Identity::new(0);
/// let b = Identity::new(1);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "A");
/// assert_eq!(Identity::new(26).to_string(), "AA");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Identity(u64);

impl Identity {
    /// The "default identifier" `⊥` used when modelling anonymous systems
    /// as homonymous systems in which every process holds the same id.
    pub const BOTTOM: Identity = Identity(u64::MAX);

    /// Creates an identity from a raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Identity(raw)
    }

    /// Returns the raw value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the anonymous default identifier `⊥`.
    #[must_use]
    pub const fn is_bottom(self) -> bool {
        self.0 == u64::MAX
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            return write!(f, "⊥");
        }
        // Spreadsheet-style bijective base-26: 0 -> A, 25 -> Z, 26 -> AA.
        let mut n = self.0 + 1;
        let mut buf = [0u8; 16];
        let mut i = buf.len();
        while n > 0 {
            let rem = ((n - 1) % 26) as u8;
            i -= 1;
            buf[i] = b'A' + rem;
            n = (n - 1) / 26;
        }
        f.write_str(core::str::from_utf8(&buf[i..]).expect("ASCII"))
    }
}

impl From<u64> for Identity {
    fn from(raw: u64) -> Self {
        Identity(raw)
    }
}

/// How the `n` processes of a run map onto identifiers.
///
/// This is the static adversary of the paper: the degree of homonymy is the
/// number `ℓ` of *distinct* identifiers, with `ℓ = n` the classical
/// unique-identifier system and `ℓ = 1` the anonymous system.
///
/// # Examples
///
/// ```
/// use homonym_core::identity::{Identity, IdentityAssignment};
///
/// // 5 processes over 2 identifiers: A, B, A, B, A.
/// let assign = IdentityAssignment::round_robin(5, 2);
/// assert_eq!(assign.n(), 5);
/// assert_eq!(assign.distinct_count(), 2);
/// assert_eq!(assign.multiplicity(Identity::new(0)), 3);
/// ```
/// Cloning is O(1): the identifier table is behind an [`Arc`], so the
/// experiment sweeps can hand each of thousands of runs its own
/// assignment without copying the table (there are no mutators, so the
/// sharing is never observable).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IdentityAssignment {
    pub(crate) ids: Arc<Vec<Identity>>,
}

impl IdentityAssignment {
    /// Every process gets its own identifier (`ℓ = n`): the classical model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn unique(n: usize) -> Self {
        assert!(n > 0, "a system has at least one process");
        IdentityAssignment {
            ids: Arc::new((0..n as u64).map(Identity::new).collect()),
        }
    }

    /// Every process gets the default identifier `⊥` (`ℓ = 1`): the
    /// anonymous model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn anonymous(n: usize) -> Self {
        assert!(n > 0, "a system has at least one process");
        IdentityAssignment {
            ids: Arc::new(vec![Identity::BOTTOM; n]),
        }
    }

    /// `n` processes spread round-robin over `l` distinct identifiers
    /// `0..l`, giving the most balanced homonymy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `l == 0` or `l > n`.
    #[must_use]
    pub fn round_robin(n: usize, l: usize) -> Self {
        assert!(n > 0, "a system has at least one process");
        assert!(l > 0 && l <= n, "need 1 <= l <= n distinct identifiers");
        IdentityAssignment {
            ids: Arc::new((0..n).map(|p| Identity::new((p % l) as u64)).collect()),
        }
    }

    /// `n` processes over `l` identifiers with maximal skew: identifiers
    /// `1..l` get one process each and identifier `0` gets all the rest.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `l == 0` or `l > n`.
    #[must_use]
    pub fn skewed(n: usize, l: usize) -> Self {
        assert!(n > 0, "a system has at least one process");
        assert!(l > 0 && l <= n, "need 1 <= l <= n distinct identifiers");
        let mut ids = Vec::with_capacity(n);
        for p in 0..n {
            if p < l - 1 {
                ids.push(Identity::new((p + 1) as u64));
            } else {
                ids.push(Identity::new(0));
            }
        }
        IdentityAssignment { ids: Arc::new(ids) }
    }

    /// An arbitrary assignment, e.g. produced by a random generator.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty.
    #[must_use]
    pub fn custom(ids: Vec<Identity>) -> Self {
        assert!(!ids.is_empty(), "a system has at least one process");
        IdentityAssignment { ids: Arc::new(ids) }
    }

    /// Number of processes `n = |Π|`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// The identifier `id(p)` of process index `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n`.
    #[must_use]
    pub fn id_of(&self, p: usize) -> Identity {
        self.ids[p]
    }

    /// The multiset `I(S)` of identifiers of an arbitrary subset of
    /// process indices.
    #[must_use]
    pub fn multiset_of<I: IntoIterator<Item = usize>>(&self, procs: I) -> Multiset<Identity> {
        procs.into_iter().map(|p| self.id_of(p)).collect()
    }

    /// The full multiset `I(Π)`.
    #[must_use]
    pub fn multiset(&self) -> Multiset<Identity> {
        self.ids.iter().copied().collect()
    }

    /// Number of distinct identifiers `ℓ`.
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        self.multiset().distinct_len()
    }

    /// Multiplicity of `id` in `I(Π)`.
    #[must_use]
    pub fn multiplicity(&self, id: Identity) -> usize {
        self.ids.iter().filter(|&&i| i == id).count()
    }

    /// Process indices carrying identifier `id` (the paper's `P({id})`).
    #[must_use]
    pub fn processes_with(&self, id: Identity) -> Vec<usize> {
        (0..self.n()).filter(|&p| self.ids[p] == id).collect()
    }

    /// Iterator over `(process index, identity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Identity)> + '_ {
        self.ids.iter().copied().enumerate()
    }

    /// Whether all identifiers are pairwise distinct (classical system).
    #[must_use]
    pub fn is_unique(&self) -> bool {
        self.distinct_count() == self.n()
    }

    /// Whether all identifiers are equal (anonymous system).
    #[must_use]
    pub fn is_anonymous(&self) -> bool {
        self.distinct_count() == 1
    }
}

impl fmt::Display for IdentityAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (p, id) in self.iter() {
            if p > 0 {
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
    fn display_is_bijective_base26() {
        assert_eq!(Identity::new(0).to_string(), "A");
        assert_eq!(Identity::new(25).to_string(), "Z");
        assert_eq!(Identity::new(26).to_string(), "AA");
        assert_eq!(Identity::new(27).to_string(), "AB");
        assert_eq!(Identity::new(701).to_string(), "ZZ");
        assert_eq!(Identity::new(702).to_string(), "AAA");
        assert_eq!(Identity::BOTTOM.to_string(), "⊥");
    }

    #[test]
    fn unique_assignment_has_no_collisions() {
        let a = IdentityAssignment::unique(7);
        assert!(a.is_unique());
        assert!(!a.is_anonymous());
        assert_eq!(a.distinct_count(), 7);
    }

    #[test]
    fn anonymous_assignment_is_all_bottom() {
        let a = IdentityAssignment::anonymous(4);
        assert!(a.is_anonymous());
        assert_eq!(a.id_of(2), Identity::BOTTOM);
        assert_eq!(a.multiplicity(Identity::BOTTOM), 4);
    }

    #[test]
    fn round_robin_balances() {
        let a = IdentityAssignment::round_robin(7, 3);
        assert_eq!(a.multiplicity(Identity::new(0)), 3);
        assert_eq!(a.multiplicity(Identity::new(1)), 2);
        assert_eq!(a.multiplicity(Identity::new(2)), 2);
        assert_eq!(a.distinct_count(), 3);
    }

    #[test]
    fn skewed_piles_on_id_zero() {
        let a = IdentityAssignment::skewed(8, 3);
        assert_eq!(a.multiplicity(Identity::new(0)), 6);
        assert_eq!(a.multiplicity(Identity::new(1)), 1);
        assert_eq!(a.multiplicity(Identity::new(2)), 1);
    }

    #[test]
    fn multiset_of_subset() {
        let a = IdentityAssignment::round_robin(6, 2);
        let m = a.multiset_of([0, 2, 4]);
        assert_eq!(m.multiplicity(&Identity::new(0)), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn processes_with_finds_homonyms() {
        let a = IdentityAssignment::round_robin(6, 2);
        assert_eq!(a.processes_with(Identity::new(1)), vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "1 <= l <= n")]
    fn round_robin_rejects_more_ids_than_processes() {
        let _ = IdentityAssignment::round_robin(2, 3);
    }

    #[test]
    fn display_assignment() {
        let a = IdentityAssignment::round_robin(4, 2);
        assert_eq!(a.to_string(), "[A B A B]");
    }
}
