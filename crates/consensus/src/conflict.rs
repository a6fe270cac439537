//! The crate-wide conflicting-payload policy.
//!
//! Homonymy makes "one message per sender per round" unverifiable at the
//! receiver: several processes legitimately share a label, so a window can
//! hold many same-label payloads, and a Byzantine homonym can slip a forged
//! payload in among them without breaking any format rule. Every consensus
//! algorithm in this crate has to pick a stance on such conflicts, and
//! before this module each had its own inlined copy. The two poles of the
//! single policy live here:
//!
//! * **Crash model** ([`crash_model_pick`]): Figures 8 and 9 assume
//!   crash-stop faults, under which quorum intersection guarantees at most
//!   one distinct non-⊥ estimate per decision window. When a Byzantine
//!   equivocator violates that assumption the crash-model code has no
//!   machinery to detect it; the policy is to take the **smallest** value,
//!   deterministically, and let the property layer observe the resulting
//!   agreement/validity violation post-hoc (the demonstrated
//!   counterexamples of the Byzantine sweep).
//!
//! * **Byzantine model** ([`WindowLedger`]): the tolerant stack
//!   ([`crate::byz_quorum`]) does not trust per-label message counts at
//!   all. A window admits at most `multiplicity(label)` payloads per label
//!   — the number of genuine carriers of that label — and **detects and
//!   discards** every copy beyond the cap instead of trusting first-value
//!   (or smallest-value) delivery. No label's count can exceed its
//!   carrier population. The cap bounds a label, not a sender, though:
//!   an equivocator that sends a broadcast once per namesake fills every
//!   slot of its label whenever its copies arrive first.
//!
//! Keeping both poles in one module is deliberate: the crash algorithms
//! document *why* they stay exposed, the tolerant algorithm documents
//! *what* it costs to close the hole, and neither grows a private third
//! copy of the policy.

use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;

/// Crash-model resolution of a (supposedly singleton) non-⊥ value set:
/// the smallest value wins, deterministically.
///
/// `ascending` must yield the distinct candidate values in ascending
/// order — both call sites already hold them sorted (Figure 8 counts its
/// `PH2` estimates in a [`Multiset`], whose support is in value order;
/// Figure 9 sorts and dedups its quorum estimates), so the pick is O(1)
/// and allocation-free.
///
/// Under crash-stop faults the iterator yields at most one value and this
/// is a plain unwrap-the-singleton. Under Byzantine forgery it is the
/// documented smallest-value-wins policy whose damage the property layer
/// measures; see the module docs.
pub fn crash_model_pick<I: IntoIterator<Item = u64>>(ascending: I) -> Option<u64> {
    ascending.into_iter().next()
}

/// Byzantine-model admission ledger: caps the number of payloads a window
/// accepts per label at that label's carrier multiplicity.
///
/// The ledger is the "detect and discard" half of the conflicting-payload
/// policy: a copy that would push a label's occupancy past
/// `caps.multiplicity(label)` is provably in conflict with the homonym
/// population (more same-label payloads than carriers exist) and is
/// rejected, not merged. Rejections are counted so the owning process can
/// expose how much forged traffic it shed.
///
/// The caps are passed per call rather than stored: round windows must be
/// [`Default`]-constructible for the recycling ring, and the assignment
/// multiset is immutable per run anyway.
#[derive(Debug, Default, Clone)]
pub struct WindowLedger {
    /// The labels of the payloads admitted, each counted once per payload.
    used: Multiset<Identity>,
    discarded: u64,
}

impl WindowLedger {
    /// Tries to admit one payload carried under `label`. Returns `false`
    /// — and counts the copy as detected-and-discarded — if the label is
    /// already at its carrier cap (or is not in the assignment at all).
    pub fn admit(&mut self, label: Identity, caps: &Multiset<Identity>) -> bool {
        // A label nobody carries has cap 0, so it is forged and gets no
        // entry: a Byzantine homonym can invent labels without end.
        if self.used.multiplicity(&label) < caps.multiplicity(&label) {
            self.used.insert(label);
            true
        } else {
            self.discarded += 1;
            false
        }
    }

    /// Copies rejected by the cap so far.
    #[must_use]
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Current occupancy: `(label, payloads admitted under it)` pairs,
    /// sorted by label — the membership breakdown of a certificate built
    /// from this window, as observability renders it.
    pub fn occupancy(&self) -> impl Iterator<Item = (&Identity, usize)> + '_ {
        self.used.counted()
    }

    /// Total payloads admitted across all labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.used.len()
    }

    /// Whether no payload has been admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.used.is_empty()
    }

    /// Clears the ledger for reuse, keeping its allocation.
    pub fn reset(&mut self) {
        self.used.clear();
        self.discarded = 0;
    }
}

homonym_core::persist_fields!(WindowLedger { used, discarded });

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u64) -> Identity {
        Identity::new(x)
    }

    #[test]
    fn crash_pick_is_smallest_value_wins() {
        assert_eq!(crash_model_pick([3, 7, 9]), Some(3));
        assert_eq!(crash_model_pick(std::iter::empty()), None);
        // The singleton case the crash model actually expects.
        assert_eq!(crash_model_pick([42]), Some(42));
    }

    #[test]
    fn ledger_caps_each_label_at_its_multiplicity() {
        let mut caps = Multiset::new();
        caps.insert_n(id(1), 2);
        caps.insert_n(id(2), 1);
        let mut w = WindowLedger::default();
        assert!(w.admit(id(1), &caps));
        assert!(w.admit(id(1), &caps));
        assert!(!w.admit(id(1), &caps), "third copy under a 2-carrier label");
        assert!(w.admit(id(2), &caps));
        assert!(!w.admit(id(2), &caps));
        assert_eq!(w.discarded(), 2);
    }

    #[test]
    fn unknown_labels_are_discarded_outright() {
        let mut caps = Multiset::new();
        caps.insert(id(1));
        let mut w = WindowLedger::default();
        // A thousand distinct forged labels leave nothing behind.
        for forged in 2..1_002 {
            assert!(!w.admit(id(forged), &caps));
        }
        assert_eq!(w.occupancy().next(), None);
        assert_eq!(w.discarded(), 1_000);
        assert!(w.admit(id(1), &caps));
        assert_eq!(w.occupancy().collect::<Vec<_>>(), [(&id(1), 1)]);
    }

    #[test]
    fn a_decoded_ledger_is_sorted_and_totals_its_counts() {
        use homonym_core::wire::{from_bytes, to_bytes};
        // Label 2 before label 1, and label 1 twice.
        let pairs = vec![(id(2), 1usize), (id(1), 2), (id(1), 1)];
        let w: WindowLedger = from_bytes(&to_bytes(&(pairs, 0u64))).expect("decodes");
        assert_eq!(
            w.occupancy().collect::<Vec<_>>(),
            [(&id(1), 3), (&id(2), 1)]
        );
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn reset_clears_occupancy_and_counter() {
        let mut caps = Multiset::new();
        caps.insert(id(1));
        let mut w = WindowLedger::default();
        assert!(w.admit(id(1), &caps));
        assert!(!w.admit(id(1), &caps));
        w.reset();
        assert_eq!(w.discarded(), 0);
        assert!(w.admit(id(1), &caps));
    }
}
