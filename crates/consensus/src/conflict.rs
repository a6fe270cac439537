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
//!   slot of its label whenever its copies arrive first. A copy costs one
//!   search for its label's rank among the caps, made once by the
//!   receiver for every ledger it meets, and an indexed count per ledger.
//!
//! Keeping both poles in one module is deliberate: the crash algorithms
//! document *why* they stay exposed, the tolerant algorithm documents
//! *what* it costs to close the hole, and neither grows a private third
//! copy of the policy.

use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::wire::{Loader, Persist, Saver, WireError};

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
/// policy: a copy that would push a label's occupancy past its number of
/// carriers is provably in conflict with the homonym population (more
/// same-label payloads than carriers exist) and is rejected, not merged.
/// Rejections are counted so the owning process can expose how much
/// forged traffic it shed.
///
/// The caps are passed per call rather than stored: round windows must be
/// [`Default`]-constructible for the recycling ring, and the assignment
/// multiset is immutable per run anyway. A copy costs the receiver's one
/// [`Multiset::rank`] lookup and an indexed compare and increment here.
#[derive(Debug, Default, Clone)]
pub struct WindowLedger {
    /// Payloads admitted per label, indexed by the label's rank in the
    /// caps; empty until the first admission and again after a reset.
    counts: Vec<u32>,
    /// The sum of `counts`.
    len: usize,
    discarded: u64,
}

impl WindowLedger {
    /// Tries to admit one payload carried under the label of `rank`, its
    /// [`Multiset::rank`] among the caps. Returns `false` — and counts the
    /// copy as detected-and-discarded — if the label is already at its
    /// carrier cap (or is not in the assignment at all).
    pub fn admit(&mut self, rank: Option<(usize, usize)>, caps: &Multiset<Identity>) -> bool {
        if rank.is_some_and(|(i, _)| i >= self.counts.len()) {
            self.counts.resize(caps.distinct_len(), 0);
        }
        // A label nobody carries has no rank, so it is forged and gets no
        // entry: a Byzantine homonym can invent labels without end.
        match rank {
            Some((i, cap)) if (self.counts[i] as usize) < cap => {
                self.counts[i] += 1;
                self.len += 1;
                true
            }
            _ => {
                self.discarded += 1;
                false
            }
        }
    }

    /// Copies rejected by the cap so far.
    #[must_use]
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Current occupancy under `caps`: `(label, payloads admitted under
    /// it)` pairs, sorted by label, labels with none left out — the
    /// membership breakdown of a certificate built from this window, as
    /// observability renders it.
    #[must_use]
    pub fn occupancy(&self, caps: &Multiset<Identity>) -> Vec<(Identity, u32)> {
        let admitted = caps.support().zip(&self.counts);
        admitted
            .filter(|&(_, &k)| k > 0)
            .map(|(&l, &k)| (l, k))
            .collect()
    }

    /// Total payloads admitted across all labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no payload has been admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the ledger for reuse, keeping its allocation: a reset
    /// ledger is a fresh one, bytes included.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.len = 0;
        self.discarded = 0;
    }
}

/// A ledger travels as its counts and discards; the total is summed on
/// load, so whatever the bytes hold, a decoded ledger is consistent.
impl Persist for WindowLedger {
    fn save(&self, s: &mut Saver) {
        self.counts.save(s);
        self.discarded.save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let (counts, discarded): (Vec<u32>, u64) = Persist::load(l)?;
        let len = counts
            .iter()
            .try_fold(0usize, |sum, &k| sum.checked_add(k as usize));
        let what = "WindowLedger";
        let len = len.ok_or(WireError::BadValue { what })?;
        Ok(WindowLedger {
            counts,
            len,
            discarded,
        })
    }
}

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

    /// Admits a copy under `label`, looking its rank up as a receiver does.
    fn admit(w: &mut WindowLedger, label: u64, caps: &Multiset<Identity>) -> bool {
        w.admit(caps.rank(&id(label)), caps)
    }

    #[test]
    fn ledger_caps_each_label_at_its_multiplicity() {
        let mut caps = Multiset::new();
        caps.insert_n(id(1), 2);
        caps.insert_n(id(2), 1);
        let mut w = WindowLedger::default();
        assert!(admit(&mut w, 1, &caps));
        assert!(admit(&mut w, 1, &caps));
        assert!(
            !admit(&mut w, 1, &caps),
            "third copy under a 2-carrier label"
        );
        assert!(admit(&mut w, 2, &caps));
        assert!(!admit(&mut w, 2, &caps));
        assert_eq!(w.discarded(), 2);
    }

    #[test]
    fn unknown_labels_are_discarded_outright() {
        let mut caps = Multiset::new();
        caps.insert(id(1));
        let mut w = WindowLedger::default();
        // A thousand distinct forged labels leave nothing behind.
        for forged in 2..1_002 {
            assert!(!admit(&mut w, forged, &caps));
        }
        assert_eq!(w.occupancy(&caps), []);
        assert_eq!(w.discarded(), 1_000);
        assert!(admit(&mut w, 1, &caps));
        assert_eq!(w.occupancy(&caps), [(id(1), 1)]);
    }

    #[test]
    fn reset_clears_occupancy_and_counter() {
        let mut caps = Multiset::new();
        caps.insert(id(1));
        let mut w = WindowLedger::default();
        assert!(admit(&mut w, 1, &caps));
        assert!(!admit(&mut w, 1, &caps));
        w.reset();
        assert_eq!(w.discarded(), 0);
        assert!(admit(&mut w, 1, &caps));
    }

    proptest::proptest! {
        /// Whatever bytes it is handed, a ledger decodes to one whose
        /// total is the sum of its counts, which admits any label without
        /// panicking and encodes back to itself — or to a typed error.
        #[test]
        fn hostile_bytes_decode_to_a_consistent_ledger_or_an_error(
            counts in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..12usize),
            discarded in proptest::prelude::any::<u64>(),
            (at, flip) in (0usize..128, proptest::prelude::any::<u8>()),
            cut in 0usize..128,
        ) {
            use homonym_core::wire::{from_bytes, to_bytes};
            // A well-formed encoding, one byte flipped, maybe cut short.
            let mut bytes = to_bytes(&(counts, discarded));
            if let Some(byte) = bytes.get_mut(at) {
                *byte ^= flip;
            }
            bytes.truncate(cut);
            if let Ok(mut w) = from_bytes::<WindowLedger>(&bytes) {
                // More labels than the bytes can hold counts for.
                let caps: Multiset<Identity> = (0..128).map(|x| (id(x), 4)).collect();
                let total: u64 = w.occupancy(&caps).iter().map(|&(_, k)| u64::from(k)).sum();
                proptest::prop_assert_eq!(total, w.len() as u64);
                for label in 0..130 {
                    admit(&mut w, label, &caps);
                }
                let total: u64 = w.occupancy(&caps).iter().map(|&(_, k)| u64::from(k)).sum();
                proptest::prop_assert_eq!(total, w.len() as u64);
                let again: WindowLedger = from_bytes(&to_bytes(&w)).expect("round-trips");
                proptest::prop_assert_eq!(to_bytes(&again), to_bytes(&w));
                proptest::prop_assert_eq!(again.len(), w.len());
            }
        }
    }
}
