//! The rank-indexed admission ledger is the counted bag it replaced,
//! decision for decision: a copy is admitted exactly when its label has
//! fewer admitted copies than carriers.

use homonym_consensus::WindowLedger;
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::wire::to_bytes;
use proptest::prelude::*;

/// One step of a window's life: a copy under a label (labels past the
/// caps' are unknown), or a reset.
#[derive(Debug, Clone, Copy)]
enum Step {
    Copy(u64),
    Reset,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0u8..10, 0u64..10).prop_map(|(kind, label)| match kind {
        0 => Step::Reset,
        _ => Step::Copy(label),
    });
    proptest::collection::vec(step, 0..80usize)
}

proptest! {
    /// Over random caps of 1–8 labels carried 1–4 times each, `admit`
    /// answers what `used.multiplicity(l) < caps.multiplicity(l)` answers
    /// on a bag of the admitted labels, with equal totals, discards and
    /// occupancy; a reset ledger encodes as a fresh one.
    #[test]
    fn the_ranked_ledger_is_the_counted_bag(
        mut carriers in proptest::collection::vec(0usize..5, 8usize),
        (carried, at) in (1usize..5, 0usize..8),
        steps in steps(),
    ) {
        // Label `l` has `carriers[l]` carriers (none: unknown), at least
        // one label is carried, and labels 8 and 9 never are.
        carriers[at] = carried;
        let caps: Multiset<Identity> =
            (0..8).map(|l| (Identity::new(l), carriers[l as usize])).collect();
        let (mut ledger, mut used, mut discarded) = (WindowLedger::default(), Multiset::new(), 0);
        for step in steps {
            match step {
                Step::Reset => {
                    ledger.reset();
                    (used, discarded) = (Multiset::new(), 0);
                    prop_assert_eq!(to_bytes(&ledger), to_bytes(&WindowLedger::default()));
                }
                Step::Copy(label) => {
                    let label = Identity::new(label);
                    let expected = used.multiplicity(&label) < caps.multiplicity(&label);
                    if expected {
                        used.insert(label);
                    } else {
                        discarded += 1;
                    }
                    prop_assert_eq!(ledger.admit(caps.rank(&label), &caps), expected);
                }
            }
            prop_assert_eq!(ledger.len(), used.len());
            prop_assert_eq!(ledger.is_empty(), used.is_empty());
            prop_assert_eq!(ledger.discarded(), discarded);
            let counted = used.counted().map(|(&l, k)| (l, k as u32));
            prop_assert_eq!(ledger.occupancy(&caps), counted.collect::<Vec<_>>());
        }
    }
}
