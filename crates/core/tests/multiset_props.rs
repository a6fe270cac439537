//! Property-based tests for the multiset algebra — the foundation every
//! detector output in this workspace is built on.
//!
//! Two layers of properties:
//!
//! * algebraic laws of the bag operations (commutativity, inclusion,
//!   inclusion-exclusion, ...), generated over a *small* universe;
//! * equivalence with a plain `BTreeMap<T, usize>` reference model,
//!   generated over a universe of 40 elements, so bags grow past
//!   [`WIDE`] distinct elements and shrink back.

use std::collections::BTreeMap;

use homonym_core::multiset::Multiset;
use proptest::prelude::*;

fn ms() -> impl Strategy<Value = Multiset<u8>> {
    proptest::collection::vec(0u8..12, 0..24).prop_map(|v| v.into_iter().collect())
}

/// The reference implementation: a counted map with no fast path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RefBag(BTreeMap<u8, usize>);

impl RefBag {
    fn insert_n(&mut self, x: u8, n: usize) {
        if n > 0 {
            *self.0.entry(x).or_insert(0) += n;
        }
    }

    fn mult(&self, x: u8) -> usize {
        self.0.get(&x).copied().unwrap_or(0)
    }

    fn len(&self) -> usize {
        self.0.values().sum()
    }

    fn merged(&self, other: &RefBag, combine: impl Fn(usize, usize) -> usize) -> RefBag {
        let mut out = RefBag::default();
        for &x in self.0.keys().chain(other.0.keys()) {
            let c = combine(self.mult(x), other.mult(x));
            if c > 0 {
                out.0.insert(x, c);
            }
        }
        out
    }

    fn is_subset(&self, other: &RefBag) -> bool {
        self.0.iter().all(|(x, &c)| other.mult(*x) >= c)
    }
}

fn to_ref(m: &Multiset<u8>) -> RefBag {
    RefBag(m.counted().map(|(&x, c)| (x, c)).collect())
}

fn from_ref(r: &RefBag) -> Multiset<u8> {
    r.0.iter().map(|(&x, &c)| (x, c)).collect()
}

/// A distinct-element count well above what any detector output or
/// round window of the workspace holds.
const WIDE: usize = 16;

/// Operation scripts over a universe wide enough (0..40) that bags grow
/// past [`WIDE`] distinct elements and shrink back under it.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, usize),
    Remove(u8),
    RemoveAll(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..40, 1usize..4).prop_map(|(x, n)| Op::Insert(x, n)),
            (0u8..40).prop_map(Op::Remove),
            (0u8..40).prop_map(Op::RemoveAll),
        ],
        0..120,
    )
}

fn wide() -> impl Strategy<Value = Multiset<u8>> {
    proptest::collection::vec(0u8..40, 0..64).prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Mutation scripts drive the bag through growth and shrinks; every
    /// observable must match the reference model at every step.
    #[test]
    fn scripted_mutations_match_reference_model(script in ops()) {
        let mut bag: Multiset<u8> = Multiset::new();
        let mut reference = RefBag::default();
        for op in script {
            match op {
                Op::Insert(x, n) => {
                    bag.insert_n(x, n);
                    reference.insert_n(x, n);
                }
                Op::Remove(x) => {
                    let removed = bag.remove(&x);
                    prop_assert_eq!(removed, reference.mult(x) > 0);
                    if removed {
                        if reference.mult(x) == 1 {
                            reference.0.remove(&x);
                        } else {
                            *reference.0.get_mut(&x).expect("present") -= 1;
                        }
                    }
                }
                Op::RemoveAll(x) => {
                    let removed = bag.remove_all(&x);
                    prop_assert_eq!(removed, reference.mult(x));
                    reference.0.remove(&x);
                }
            }
            prop_assert_eq!(bag.len(), reference.len());
            prop_assert_eq!(bag.distinct_len(), reference.0.len());
            prop_assert_eq!(to_ref(&bag), reference.clone());
            prop_assert_eq!(bag.min_elem().copied(), reference.0.keys().next().copied());
            prop_assert_eq!(bag.max_elem().copied(), reference.0.keys().next_back().copied());
        }
        // A rebuilt bag must be fully interchangeable with the mutated
        // one, whatever insertions and removals each went through.
        let rebuilt = from_ref(&reference);
        prop_assert_eq!(&bag, &rebuilt);
        prop_assert!(bag.cmp(&rebuilt).is_eq());
        prop_assert!(bag.is_subset(&rebuilt) && rebuilt.is_subset(&bag));
    }

    /// The full bag algebra agrees with the reference model over the wide
    /// universe.
    #[test]
    fn algebra_matches_reference_model(a in wide(), b in wide()) {
        let (ra, rb) = (to_ref(&a), to_ref(&b));
        prop_assert_eq!(to_ref(&a.union(&b)), ra.merged(&rb, usize::max));
        prop_assert_eq!(to_ref(&a.intersection(&b)), ra.merged(&rb, usize::min));
        prop_assert_eq!(to_ref(&a.sum(&b)), ra.merged(&rb, |x, y| x + y));
        prop_assert_eq!(to_ref(&a.difference(&b)), ra.merged(&rb, usize::saturating_sub));
        prop_assert_eq!(a.is_subset(&b), ra.is_subset(&rb));
        prop_assert_eq!(a.is_superset(&b), rb.is_subset(&ra));
        prop_assert_eq!(
            a.is_disjoint(&b),
            ra.0.keys().all(|x| rb.mult(*x) == 0)
        );
    }

    /// Ordering and equality are content-based: rebuilding through the
    /// reference model never changes how two bags compare.
    #[test]
    fn comparisons_are_content_based(a in wide(), b in wide()) {
        let (a2, b2) = (from_ref(&to_ref(&a)), from_ref(&to_ref(&b)));
        prop_assert_eq!(a.cmp(&b), a2.cmp(&b2));
        prop_assert_eq!(a == b, a2 == b2);
        prop_assert_eq!(a.len(), a2.len());
    }

    /// Bags of [`WIDE`] distinct elements and a few more behave
    /// identically to the model.
    #[test]
    fn wide_bags_match_the_model(extra in 0usize..4, mult in 1usize..3) {
        let mut bag: Multiset<u8> = Multiset::new();
        let mut reference = RefBag::default();
        let distinct = WIDE + extra;
        for x in 0..distinct as u8 {
            bag.insert_n(x, mult);
            reference.insert_n(x, mult);
        }
        prop_assert_eq!(bag.distinct_len(), distinct);
        prop_assert_eq!(bag.len(), distinct * mult);
        prop_assert_eq!(to_ref(&bag), reference);
    }
}

proptest! {
    #[test]
    fn len_is_sum_of_multiplicities(a in ms()) {
        let total: usize = a.counted().map(|(_, c)| c).sum();
        prop_assert_eq!(a.len(), total);
        prop_assert_eq!(a.iter().count(), total);
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in ms(), b in ms()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
    }

    #[test]
    fn intersection_is_commutative_and_idempotent(a in ms(), b in ms()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.intersection(&a), a.clone());
    }

    #[test]
    fn sum_is_commutative_and_associative(a in ms(), b in ms(), c in ms()) {
        prop_assert_eq!(a.sum(&b), b.sum(&a));
        prop_assert_eq!(a.sum(&b).sum(&c), a.sum(&b.sum(&c)));
        prop_assert_eq!(a.sum(&b).len(), a.len() + b.len());
    }

    #[test]
    fn inclusion_exclusion(a in ms(), b in ms()) {
        // |a ∪ b| + |a ∩ b| = |a| + |b| for max/min multiset semantics.
        prop_assert_eq!(
            a.union(&b).len() + a.intersection(&b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn difference_then_add_back_restores(a in ms(), b in ms()) {
        // (a − b) ⊎ (a ∩ b) = a
        prop_assert_eq!(a.difference(&b).sum(&a.intersection(&b)), a.clone());
    }

    #[test]
    fn subset_iff_intersection_is_self(a in ms(), b in ms()) {
        prop_assert_eq!(a.is_subset(&b), a.intersection(&b) == a);
        prop_assert!(a.intersection(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn subset_is_a_partial_order(a in ms(), b in ms(), c in ms()) {
        if a.is_subset(&b) && b.is_subset(&c) {
            prop_assert!(a.is_subset(&c));
        }
        if a.is_subset(&b) && b.is_subset(&a) {
            prop_assert_eq!(a.clone(), b.clone());
        }
    }

    #[test]
    fn remove_inverts_insert(mut a in ms(), x in 0u8..12) {
        let before = a.clone();
        a.insert(x);
        prop_assert!(a.remove(&x));
        prop_assert_eq!(a, before);
    }

    #[test]
    fn disjoint_iff_empty_intersection(a in ms(), b in ms()) {
        prop_assert_eq!(a.is_disjoint(&b), a.intersection(&b).is_empty());
    }

    #[test]
    fn ordering_is_total_and_consistent_with_eq(a in ms(), b in ms()) {
        use core::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(a.clone(), b.clone()),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }

    #[test]
    fn roundtrips_through_counted_pairs(a in ms()) {
        let rebuilt: Multiset<u8> = a.counted().map(|(x, c)| (*x, c)).collect();
        prop_assert_eq!(rebuilt, a.clone());
    }
}
