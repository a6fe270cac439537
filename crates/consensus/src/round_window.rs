//! Reusable per-round message windows for the Figure 8/9 round machines
//! and the tolerant stack.
//!
//! Every round machine buffers protocol messages per round: a message of
//! round `R ≥ r` (the process's current round) must be kept until the
//! process reaches `R`, while everything below `r` can never matter
//! again. [`RoundRing`] holds them: a deque of windows covering the
//! contiguous round range `[base, base + len)`, indexed by `round - base`
//! in O(1). Advancing to a new round recycles the expired windows —
//! *reset*, not dropped — into a spare pool, so a window's interior
//! allocations (the Figure 9 quorum-message vectors, the value counts)
//! are reused across rounds instead of reallocated.
//!
//! A kind that needs only an aggregate is counted, not listed: its
//! window field is a [`Multiset<u64>`](homonym_core::multiset::Multiset)
//! of the values carried, so a window's footprint is bounded by the
//! distinct values in flight, not by the messages received. The
//! regression test `tests/consensus_round_bounds.rs` pins the
//! bounded-residency claim on a long adversarial run.

use std::collections::VecDeque;

use homonym_core::wire::Persist;

/// One round's reusable buffer state.
pub(crate) trait Window: Default {
    /// Clears the window for reuse, keeping interior allocations.
    fn reset(&mut self);
}

/// A contiguous ring of per-round windows `[base, base + len)` with a
/// recycling pool for expired rounds.
#[derive(Debug, Default)]
pub(crate) struct RoundRing<W: Window> {
    base: u64,
    live: VecDeque<W>,
    spare: Vec<W>,
}

/// Snapshot support: only the live windows matter for future behaviour;
/// the spare pool is an allocation cache, so a fork starts with a cold
/// one rather than deep-copying recycled buffers.
impl<W: Window + Clone> Clone for RoundRing<W> {
    fn clone(&self) -> Self {
        RoundRing {
            base: self.base,
            live: self.live.clone(),
            spare: Vec::new(),
        }
    }
}

impl<W: Window> RoundRing<W> {
    pub(crate) fn new() -> Self {
        RoundRing {
            base: 0,
            live: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// The lowest round the ring can hold: every round below it expired.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// The window of `round`, if one has been touched and not yet
    /// expired.
    pub(crate) fn get(&self, round: u64) -> Option<&W> {
        let idx = round.checked_sub(self.base)?;
        self.live.get(idx as usize)
    }

    /// The window of `round`, growing the ring (from the spare pool
    /// first) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `round` has already been advanced past — callers gate
    /// on `round >= self.round` before buffering, exactly as the
    /// pre-refactor maps pruned with `retain(k >= r)`.
    pub(crate) fn get_mut(&mut self, round: u64) -> &mut W {
        let idx = round
            .checked_sub(self.base)
            .expect("message buffered for an expired round") as usize;
        while self.live.len() <= idx {
            self.live.push_back(self.spare.pop().unwrap_or_default());
        }
        &mut self.live[idx]
    }

    /// Expires every round below `round`, recycling their windows.
    pub(crate) fn advance_to(&mut self, round: u64) {
        while self.base < round {
            if let Some(mut w) = self.live.pop_front() {
                w.reset();
                self.spare.push(w);
            }
            self.base += 1;
        }
        self.base = round;
    }

    /// Returns the ring to round 0 with no live window, recycling every
    /// live one: what a fresh ring holds, with this one's allocations.
    pub(crate) fn restart(&mut self) {
        for mut w in self.live.drain(..) {
            w.reset();
            self.spare.push(w);
        }
        self.base = 0;
    }

    /// Number of rounds currently holding live buffered state. Bounded
    /// by the process's maximal lookahead (how far ahead of it any
    /// sender ever got), not by run length.
    pub(crate) fn resident(&self) -> usize {
        self.live.len()
    }

    /// Iterates the live windows (for footprint accounting).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &W> {
        self.live.iter()
    }
}

// Rings persist like they clone: only `base` and the live windows are
// state; the spare pool is an allocation cache and decodes cold.
homonym_core::persist_fields!(impl[W: Window + Persist] RoundRing<W> {
    base, live; spare = Vec::new()
});

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::multiset::Multiset;

    #[derive(Debug, Default)]
    struct Buf(Vec<u64>);
    impl Window for Buf {
        fn reset(&mut self) {
            self.0.clear();
        }
    }

    #[test]
    fn indexes_by_round_and_grows() {
        let mut r: RoundRing<Buf> = RoundRing::new();
        r.get_mut(3).0.push(30);
        r.get_mut(1).0.push(10);
        assert_eq!(r.get(1).unwrap().0, vec![10]);
        assert_eq!(r.get(3).unwrap().0, vec![30]);
        assert!(r.get(2).unwrap().0.is_empty());
        assert!(r.get(4).is_none());
        assert_eq!(r.resident(), 4); // rounds 0..=3
    }

    #[test]
    fn advance_recycles_windows_with_capacity() {
        let mut r: RoundRing<Buf> = RoundRing::new();
        r.get_mut(0).0.extend([1, 2, 3]);
        r.get_mut(1).0.push(9);
        let cap_before = r.get(0).unwrap().0.capacity();
        r.advance_to(2);
        assert_eq!(r.resident(), 0);
        assert!(r.get(0).is_none() && r.get(1).is_none());
        // The recycled window comes back with its old capacity.
        let w = r.get_mut(2);
        assert!(w.0.is_empty());
        assert!(w.0.capacity() >= cap_before.min(1));
    }

    #[test]
    fn restart_recycles_live_windows_and_returns_to_round_zero() {
        let mut r: RoundRing<Buf> = RoundRing::new();
        r.advance_to(7);
        r.get_mut(7).0.extend([1, 2, 3]);
        r.get_mut(9).0.push(4);
        let cap_before = r.get(7).unwrap().0.capacity();
        r.restart();
        assert_eq!(r.resident(), 0);
        assert_eq!(r.spare.len(), 3);
        // Round 0 is addressable again, in a window that kept its buffer.
        assert!(r.get(0).is_none());
        assert!(r.spare.iter().all(|w| w.0.is_empty()));
        assert!(r.spare.iter().any(|w| w.0.capacity() >= cap_before));
        r.get_mut(0).0.push(5);
        assert_eq!((r.resident(), r.spare.len()), (1, 2));
    }

    #[test]
    fn advance_past_untouched_rounds_is_fine() {
        let mut r: RoundRing<Buf> = RoundRing::new();
        r.advance_to(100);
        assert!(r.get(99).is_none());
        r.get_mut(100).0.push(1);
        assert_eq!(r.resident(), 1);
        assert_eq!(r.iter().map(|w| w.0.len()).sum::<usize>(), 1);
    }

    #[test]
    #[should_panic(expected = "expired round")]
    fn buffering_an_expired_round_panics() {
        let mut r: RoundRing<Buf> = RoundRing::new();
        r.advance_to(5);
        let _ = r.get_mut(4);
    }

    #[test]
    fn value_counts_aggregate_in_order() {
        let mut c: Multiset<u64> = Multiset::new();
        for v in [5, 3, 5, 5, 3, 9] {
            c.insert(v);
        }
        assert_eq!(c.len(), 6);
        assert_eq!(c.counted().collect::<Vec<_>>(), [(&3, 2), (&5, 3), (&9, 1)]);
        c.clear();
        assert_eq!(c.len(), 0);
    }
}
