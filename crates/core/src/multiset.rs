//! A counted multiset (bag), the paper's `I(S)` machinery.
//!
//! Homonymous failure detectors output **multisets** of identifiers instead
//! of sets: the multiset `I(S) = {id(p) : p ∈ S}` of a process subset `S`
//! may contain the same identity several times, and `|I(S)| = |S|` always
//! holds. [`Multiset`] implements the bag algebra the algorithms and the
//! property checkers need: multiplicity queries, inclusion, union (max),
//! intersection (min), sum, and saturating difference.
//!
//! # Representation
//!
//! A bag is one sorted vector of `(element, multiplicity)` pairs with no
//! zero multiplicity, plus its total. The bags of this workspace range
//! over a *small* universe (the paper's homonymy degree `ℓ` is tiny
//! compared to `n`, and a round window counts a handful of values), so a
//! binary-searched vector — one allocation, cache-friendly — is the whole
//! design. Every counted bag of the workspace is a `Multiset`: detector
//! outputs, the consensus round windows' value counts and the admission
//! caps, whose [`Multiset::rank`] indexes the ledgers' per-label counts.

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};

/// An ordered multiset with per-element multiplicities.
///
/// Multisets are ordered lexicographically over their ordered
/// `(element, multiplicity)` pairs, which gives a deterministic total
/// order for use as map keys (e.g. Figure 7 uses the received multiset
/// itself as a quorum label).
///
/// # Examples
///
/// ```
/// use homonym_core::multiset::Multiset;
///
/// let m: Multiset<char> = ['a', 'a', 'b'].into_iter().collect();
/// assert_eq!(m.len(), 3);
/// assert_eq!(m.multiplicity(&'a'), 2);
/// assert!(m.is_subset(&['a', 'a', 'b', 'c'].into_iter().collect()));
/// ```
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub struct Multiset<T: Ord> {
    /// Sorted by element, no zero multiplicities.
    pairs: Vec<(T, usize)>,
    /// The sum of the multiplicities.
    len: usize,
}

impl<T: Ord> Multiset<T> {
    /// Creates an empty multiset.
    #[must_use]
    pub fn new() -> Self {
        Multiset {
            pairs: Vec::new(),
            len: 0,
        }
    }

    /// Total number of elements, counted with multiplicity (`|I(S)| = |S|`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the multiset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *distinct* elements.
    #[must_use]
    pub fn distinct_len(&self) -> usize {
        self.pairs.len()
    }

    fn find(&self, x: &T) -> Result<usize, usize> {
        self.pairs.binary_search_by(|(e, _)| e.cmp(x))
    }

    /// Multiplicity `mult_I(x)` of an element (0 if absent).
    #[must_use]
    pub fn multiplicity(&self, x: &T) -> usize {
        self.find(x).map_or(0, |i| self.pairs[i].1)
    }

    /// The element's rank among the distinct elements, in element order,
    /// with its multiplicity; `None` if absent. One search answers both.
    #[must_use]
    pub fn rank(&self, x: &T) -> Option<(usize, usize)> {
        self.find(x).ok().map(|i| (i, self.pairs[i].1))
    }

    /// Whether the element occurs at least once.
    #[must_use]
    pub fn contains(&self, x: &T) -> bool {
        self.find(x).is_ok()
    }

    /// Inserts one occurrence of `x`.
    pub fn insert(&mut self, x: T) {
        self.insert_n(x, 1);
    }

    /// Inserts `n` occurrences of `x` (no-op when `n == 0`).
    pub fn insert_n(&mut self, x: T, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        match self.find(&x) {
            Ok(i) => self.pairs[i].1 += n,
            Err(i) => self.pairs.insert(i, (x, n)),
        }
    }

    /// Removes one occurrence of `x`; returns whether one was present.
    pub fn remove(&mut self, x: &T) -> bool {
        let Ok(i) = self.find(x) else {
            return false;
        };
        if self.pairs[i].1 > 1 {
            self.pairs[i].1 -= 1;
        } else {
            self.pairs.remove(i);
        }
        self.len -= 1;
        true
    }

    /// Removes all occurrences of `x`; returns how many were removed.
    pub fn remove_all(&mut self, x: &T) -> usize {
        let removed = self.find(x).map_or(0, |i| self.pairs.remove(i).1);
        self.len -= removed;
        removed
    }

    /// Removes every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.len = 0;
    }

    /// Iterator over `(element, multiplicity)` pairs in element order.
    pub fn counted(&self) -> impl Iterator<Item = (&T, usize)> + '_ {
        self.pairs.iter().map(|(x, c)| (x, *c))
    }

    /// Iterator over elements expanded by multiplicity, in element order.
    ///
    /// ```
    /// use homonym_core::multiset::Multiset;
    /// let m: Multiset<u8> = [2, 1, 2].into_iter().collect();
    /// assert_eq!(m.iter().copied().collect::<Vec<_>>(), vec![1, 2, 2]);
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.counted().flat_map(|(x, c)| core::iter::repeat_n(x, c))
    }

    /// Iterator over the distinct elements (the *support*).
    pub fn support(&self) -> impl Iterator<Item = &T> + '_ {
        self.pairs.iter().map(|(x, _)| x)
    }

    /// The smallest element, if any (used by `HΩ` extraction).
    ///
    /// Named `min_elem` to avoid colliding with [`Ord::min`], which method
    /// resolution would otherwise prefer.
    #[must_use]
    pub fn min_elem(&self) -> Option<&T> {
        self.pairs.first().map(|(x, _)| x)
    }

    /// The largest element, if any.
    #[must_use]
    pub fn max_elem(&self) -> Option<&T> {
        self.pairs.last().map(|(x, _)| x)
    }

    /// Sub-multiset test: every multiplicity in `self` is `<=` the one in
    /// `other` (the paper's `m ⊆ m'` over bags).
    #[must_use]
    pub fn is_subset(&self, other: &Multiset<T>) -> bool {
        if self.len > other.len {
            return false;
        }
        self.counted().all(|(x, c)| other.multiplicity(x) >= c)
    }

    /// Super-multiset test (`other ⊆ self`).
    #[must_use]
    pub fn is_superset(&self, other: &Multiset<T>) -> bool {
        other.is_subset(self)
    }

    /// Whether the supports are disjoint (no common element at all).
    #[must_use]
    pub fn is_disjoint(&self, other: &Multiset<T>) -> bool {
        // Walk the smaller support, probe the larger.
        let (small, large) = if self.distinct_len() <= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        !small.support().any(|x| large.contains(x))
    }
}

/// `clone_from` reuses the target's vector, so a bag refreshed from
/// another of no more distinct elements allocates nothing.
impl<T: Ord + Clone> Clone for Multiset<T> {
    fn clone(&self) -> Self {
        Multiset {
            pairs: self.pairs.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pairs.clone_from(&source.pairs);
        self.len = source.len;
    }
}

impl<T: Ord + Clone> Multiset<T> {
    /// Merges the ordered counted streams of two bags; `combine` maps the
    /// per-element multiplicity pair to the output multiplicity (zero
    /// drops the element).
    fn merge_with(
        &self,
        other: &Multiset<T>,
        combine: impl Fn(usize, usize) -> usize,
    ) -> Multiset<T> {
        let mut out = Multiset {
            pairs: Vec::with_capacity(self.distinct_len() + other.distinct_len()),
            len: 0,
        };
        let mut a = self.counted().peekable();
        let mut b = other.counted().peekable();
        loop {
            let ord = match (a.peek(), b.peek()) {
                (Some((x, _)), Some((y, _))) => x.cmp(y),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let (x, ca, cb) = match ord {
                Ordering::Less => {
                    let (x, c) = a.next().expect("peeked");
                    (x, c, 0)
                }
                Ordering::Greater => {
                    let (y, c) = b.next().expect("peeked");
                    (y, 0, c)
                }
                Ordering::Equal => {
                    let (x, ca) = a.next().expect("peeked");
                    let (_, cb) = b.next().expect("peeked");
                    (x, ca, cb)
                }
            };
            let c = combine(ca, cb);
            if c > 0 {
                out.pairs.push((x.clone(), c));
                out.len += c;
            }
        }
        out
    }

    /// Multiset union: per-element **maximum** of multiplicities.
    #[must_use]
    pub fn union(&self, other: &Multiset<T>) -> Multiset<T> {
        self.merge_with(other, usize::max)
    }

    /// Multiset intersection: per-element **minimum** of multiplicities.
    #[must_use]
    pub fn intersection(&self, other: &Multiset<T>) -> Multiset<T> {
        self.merge_with(other, usize::min)
    }

    /// Multiset sum: per-element **addition** of multiplicities
    /// (`|a ⊎ b| = |a| + |b|`).
    #[must_use]
    pub fn sum(&self, other: &Multiset<T>) -> Multiset<T> {
        self.merge_with(other, |a, b| a + b)
    }

    /// Saturating multiset difference: per-element subtraction clamped at 0.
    #[must_use]
    pub fn difference(&self, other: &Multiset<T>) -> Multiset<T> {
        self.merge_with(other, usize::saturating_sub)
    }

    /// Converts to the underlying set (support), dropping multiplicities.
    #[must_use]
    pub fn to_set(&self) -> std::collections::BTreeSet<T> {
        self.support().cloned().collect()
    }
}

impl<T: Ord> Default for Multiset<T> {
    fn default() -> Self {
        Multiset::new()
    }
}

impl<T: Ord> FromIterator<T> for Multiset<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut m = Multiset::new();
        for x in iter {
            m.insert(x);
        }
        m
    }
}

impl<T: Ord> FromIterator<(T, usize)> for Multiset<T> {
    fn from_iter<I: IntoIterator<Item = (T, usize)>>(iter: I) -> Self {
        let mut m = Multiset::new();
        for (x, c) in iter {
            m.insert_n(x, c);
        }
        m
    }
}

impl<T: Ord> Extend<T> for Multiset<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.insert(x);
        }
    }
}

/// Yields the `(element, multiplicity)` pairs in element order.
impl<T: Ord> IntoIterator for Multiset<T> {
    type Item = (T, usize);
    type IntoIter = std::vec::IntoIter<(T, usize)>;
    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter()
    }
}

impl<T: Ord + Clone> From<&[T]> for Multiset<T> {
    fn from(slice: &[T]) -> Self {
        slice.iter().cloned().collect()
    }
}

impl<T: Ord, const N: usize> From<[T; N]> for Multiset<T> {
    fn from(arr: [T; N]) -> Self {
        arr.into_iter().collect()
    }
}

impl<T: Ord + Hash> Hash for Multiset<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.distinct_len());
        for (x, c) in self.counted() {
            x.hash(state);
            state.write_usize(c);
        }
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for Multiset<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for x in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{x:?}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl<T: Ord + fmt::Display> fmt::Display for Multiset<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for x in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(items: &[u32]) -> Multiset<u32> {
        items.iter().copied().collect()
    }

    #[test]
    fn len_counts_multiplicity() {
        let m = ms(&[1, 1, 2, 3, 3, 3]);
        assert_eq!(m.len(), 6);
        assert_eq!(m.distinct_len(), 3);
        assert_eq!(m.multiplicity(&3), 3);
        assert_eq!(m.multiplicity(&9), 0);
    }

    #[test]
    fn rank_is_the_index_among_distinct_elements() {
        let m = ms(&[7, 3, 7, 9]);
        assert_eq!(m.rank(&3), Some((0, 1)));
        assert_eq!(m.rank(&7), Some((1, 2)));
        assert_eq!(m.rank(&9), Some((2, 1)));
        assert_eq!(m.rank(&8), None);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut m = Multiset::new();
        m.insert_n('x', 2);
        assert!(m.remove(&'x'));
        assert_eq!(m.multiplicity(&'x'), 1);
        assert!(m.remove(&'x'));
        assert!(!m.remove(&'x'));
        assert!(m.is_empty());
    }

    #[test]
    fn remove_all_drains_one_key() {
        let mut m = ms(&[5, 5, 5, 7]);
        assert_eq!(m.remove_all(&5), 3);
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove_all(&5), 0);
    }

    #[test]
    fn subset_respects_multiplicity() {
        assert!(ms(&[1, 1]).is_subset(&ms(&[1, 1, 2])));
        assert!(!ms(&[1, 1, 1]).is_subset(&ms(&[1, 1, 2])));
        assert!(ms(&[]).is_subset(&ms(&[])));
    }

    #[test]
    fn clone_from_keeps_the_vector() {
        let mut held = ms(&[1, 2, 3, 4]);
        let buffer = held.pairs.as_ptr();
        held.clone_from(&ms(&[5, 5, 6]));
        assert_eq!(held, ms(&[5, 5, 6]));
        assert_eq!(held.len(), 3);
        assert_eq!(held.pairs.as_ptr(), buffer, "no new allocation");
    }

    #[test]
    fn union_takes_max() {
        let u = ms(&[1, 1, 2]).union(&ms(&[1, 2, 2, 3]));
        assert_eq!(u, ms(&[1, 1, 2, 2, 3]));
    }

    #[test]
    fn intersection_takes_min() {
        let i = ms(&[1, 1, 2]).intersection(&ms(&[1, 2, 2, 3]));
        assert_eq!(i, ms(&[1, 2]));
    }

    #[test]
    fn sum_adds() {
        let s = ms(&[1, 2]).sum(&ms(&[1, 3]));
        assert_eq!(s, ms(&[1, 1, 2, 3]));
    }

    #[test]
    fn difference_saturates() {
        let d = ms(&[1, 1, 2]).difference(&ms(&[1, 2, 2]));
        assert_eq!(d, ms(&[1]));
    }

    #[test]
    fn disjointness_is_support_level() {
        assert!(ms(&[1, 1]).is_disjoint(&ms(&[2, 3])));
        assert!(!ms(&[1, 1]).is_disjoint(&ms(&[1])));
        assert!(ms(&[]).is_disjoint(&ms(&[])));
    }

    #[test]
    fn iter_expands_in_order() {
        let m = ms(&[3, 1, 3]);
        assert_eq!(m.iter().copied().collect::<Vec<_>>(), vec![1, 3, 3]);
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let a = ms(&[1, 2]);
        let b = ms(&[1, 1, 2]);
        assert_ne!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_shows_repeats() {
        assert_eq!(ms(&[2, 1, 2]).to_string(), "{1, 2, 2}");
    }

    #[test]
    fn min_max() {
        let m = ms(&[4, 2, 9]);
        assert_eq!(m.min_elem(), Some(&2));
        assert_eq!(m.max_elem(), Some(&9));
        assert_eq!(Multiset::<u32>::new().min_elem(), None);
    }

    #[test]
    fn from_array_and_counted_pairs() {
        let a = Multiset::from([1, 1, 2]);
        let b: Multiset<u32> = [(1u32, 2usize), (2, 1)].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn to_set_drops_multiplicity() {
        let s = ms(&[1, 1, 2]).to_set();
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn a_grown_then_shrunk_bag_compares_equal_to_a_fresh_one() {
        let mut big: Multiset<u32> = (0..20).collect();
        for x in 4..20 {
            assert_eq!(big.remove_all(&x), 1);
        }
        let small: Multiset<u32> = (0..4).collect();
        assert_eq!(big, small);
        assert_eq!(big.cmp(&small), Ordering::Equal);
        assert_eq!(hash_of(&big), hash_of(&small));
    }

    fn hash_of(m: &Multiset<u32>) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    #[test]
    fn algebra_over_a_wide_universe() {
        let a: Multiset<u32> = (0..12).collect();
        let b: Multiset<u32> = (8..24).collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 24);
        let i = a.intersection(&b);
        assert_eq!(i, (8..12).collect::<Multiset<u32>>());
        assert_eq!(u.difference(&b), (0..8).collect::<Multiset<u32>>());
        assert_eq!(a.sum(&b).len(), a.len() + b.len());
    }

    #[test]
    fn a_shrunk_bag_and_a_fresh_one_agree_under_the_algebra() {
        let mut shrunk: Multiset<u32> = (0..20).collect();
        for x in 3..20 {
            shrunk.remove_all(&x);
        }
        let fresh = ms(&[0, 1, 2]);
        assert!(shrunk.is_subset(&fresh) && fresh.is_subset(&shrunk));
        assert_eq!(shrunk.union(&fresh), fresh);
        assert_eq!(shrunk.intersection(&fresh), fresh);
        assert_eq!(shrunk.difference(&fresh), Multiset::new());
    }

    #[test]
    fn into_iter_yields_counted_pairs_in_order() {
        let small = ms(&[2, 1, 2]);
        assert_eq!(small.into_iter().collect::<Vec<_>>(), vec![(1, 1), (2, 2)]);
        let big: Multiset<u32> = (0..20).rev().collect();
        assert_eq!(
            big.into_iter().map(|(x, _)| x).collect::<Vec<_>>(),
            (0..20).collect::<Vec<_>>()
        );
    }
}
