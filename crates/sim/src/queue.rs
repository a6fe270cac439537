//! The engine's event queue: a tick-bucketed calendar queue with a
//! binary-heap overflow.
//!
//! Dispatch order is the deterministic `(time, insertion sequence)` order
//! the engine has always used; the calendar queue reproduces it
//! byte-for-byte (a property the equivalence tests and
//! `tests/trace_determinism.rs` assert) while turning the dominant
//! push/pop pattern — deliveries a small bounded latency ahead of `now` —
//! into O(1) array operations instead of `BTreeMap` node traffic.
//!
//! Dequeuing is batched: [`CalendarQueue::take_tick`] hands over **every**
//! event of the earliest tick by moving the bucket's storage out, so the
//! engine pays the window-advance, overflow-migration and occupancy-scan
//! costs once per tick instead of once per event. The queue tests prove
//! the resulting `(time, seq)` order against a `BTreeMap` reference model.
//!
//! # Design
//!
//! * A ring of [`WHEEL_TICKS`] buckets indexed by `tick % WHEEL_TICKS`
//!   covers the sliding window `[window, window + WHEEL_TICKS)`. Network
//!   latencies and timer delays are small bounded spans, so almost every
//!   event lands here. Each bucket is a `Vec` kept in insertion-sequence
//!   order (a binary search protects the rare out-of-order migration),
//!   and always holds a whole tick: dequeuing takes all of it or none.
//! * Bucket storage is pooled, most recently used first. A drained
//!   bucket is left without storage; the buffer the caller is done with
//!   goes onto a LIFO `spare` stack, and the next bucket to receive its
//!   first event — a tick or three ahead of `now` — takes the top of it.
//!   The vectors in circulation are therefore as many as there are live
//!   ticks, and every store and load hits memory that was touched a few
//!   ticks ago. (Leaving the storage with the bucket it was drained from
//!   would park it until the wheel comes round, [`WHEEL_TICKS`] ticks
//!   later: every bucket would end up owning a peak tick's capacity and
//!   every access would go to memory last used a thousand ticks before.)
//! * An occupancy bitmap (one bit per bucket) finds the next nonempty
//!   tick with word-level scans instead of walking empty buckets.
//! * Events beyond the window go to a `BinaryHeap` keyed by
//!   `(time, seq)` and migrate into the ring when the window reaches
//!   them, so cross-structure ordering can never interleave wrongly.
//! * An event can be taken back by its `(tick, seq)`
//!   ([`CalendarQueue::cancel`]): removed from its bucket — one it
//!   empties is released, so no tick is ever taken for nothing — or from
//!   the overflow heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use homonym_core::time::Time;

/// Ring capacity in ticks. Power of two so the bucket index is a mask.
const WHEEL_TICKS: u64 = 1024;
/// Words of the occupancy bitmap.
const WHEEL_WORDS: usize = (WHEEL_TICKS / 64) as usize;

/// An event too far in the future for the ring.
#[derive(Clone)]
struct FarEvent<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for FarEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for FarEvent<E> {}
impl<E> PartialOrd for FarEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for FarEvent<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A ring bucket: the `(seq, event)` entries of one tick, sorted by `seq`.
/// The `Option` is always `Some` while queued; it is the slot shape the
/// engine consumes from after [`CalendarQueue::take_tick`] moves the
/// storage out.
type Bucket<E> = Vec<(u64, Option<E>)>;

/// Calendar queue dispatching in exact `(time, seq)` order.
pub(crate) struct CalendarQueue<E> {
    buckets: Vec<Bucket<E>>,
    /// Empty bucket storage awaiting reuse, most recently drained last
    /// (see the module's Design section). An allocation cache: no part
    /// of the queue's content.
    spare: Vec<Bucket<E>>,
    occupied: [u64; WHEEL_WORDS],
    /// Events currently stored in the ring.
    ring_len: usize,
    /// Lowest tick the ring can currently hold; advances monotonically.
    window: u64,
    /// Memoized next-event tick, so the engine's peek-then-take pattern
    /// scans the occupancy bitmap once per tick instead of twice.
    next_tick: Option<u64>,
    overflow: BinaryHeap<Reverse<FarEvent<E>>>,
}

/// Snapshot support: the queue clones bucket by bucket, preserving its
/// exact internal state (window position, overflow heap), so a restored
/// engine replays the identical `(time, seq)` dequeue sequence. The
/// storage pool is a cache and is not copied: a clone starts with an
/// empty one. `clone_from` reuses the destination's allocations — its
/// buckets' and its pool's — since the snapshot/restore hot path of the
/// prefix-sharing sweep executor goes through it, and repeated snapshots
/// then recycle one set of buffers instead of reallocating per fork.
impl<E: Clone> Clone for CalendarQueue<E> {
    fn clone(&self) -> Self {
        CalendarQueue {
            buckets: self.buckets.clone(),
            spare: Vec::new(),
            occupied: self.occupied,
            ring_len: self.ring_len,
            window: self.window,
            next_tick: self.next_tick,
            overflow: self.overflow.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        for (dst, src) in self.buckets.iter_mut().zip(&source.buckets) {
            if src.is_empty() {
                Self::release(&mut self.spare, dst);
            } else {
                Self::provision(&mut self.spare, dst);
                dst.clone_from(src);
            }
        }
        self.occupied = source.occupied;
        self.ring_len = source.ring_len;
        self.window = source.window;
        self.next_tick = source.next_tick;
        self.overflow.clone_from(&source.overflow);
    }
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..WHEEL_TICKS).map(|_| Bucket::new()).collect(),
            spare: Vec::new(),
            occupied: [0; WHEEL_WORDS],
            ring_len: 0,
            window: 0,
            next_tick: None,
            overflow: BinaryHeap::new(),
        }
    }

    /// Whether no events remain (used by the queue tests; the engines
    /// detect quiescence through `peek_time`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.overflow.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Gives a bucket about to receive its first event the most recently
    /// drained storage, if it has none of its own.
    #[inline]
    fn provision(spare: &mut Vec<Bucket<E>>, bucket: &mut Bucket<E>) {
        if bucket.capacity() == 0 {
            if let Some(storage) = spare.pop() {
                *bucket = storage;
            }
        }
    }

    /// Empties `bucket` and moves its storage, if it has any, to the top
    /// of the pool.
    fn release(spare: &mut Vec<Bucket<E>>, bucket: &mut Bucket<E>) {
        bucket.clear();
        if bucket.capacity() != 0 {
            spare.push(std::mem::take(bucket));
        }
    }

    fn set_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// Guarded insert: tolerates any `seq` order within a tick (a binary
    /// search places stragglers), for callers whose order comes from
    /// outside the engine — rebuilding a queue from decoded snapshot
    /// bytes. `at` must be `>= window`.
    #[inline]
    pub(crate) fn push(&mut self, at: Time, seq: u64, event: E) {
        let at = at.ticks();
        debug_assert!(at >= self.window, "event scheduled before the window");
        if at - self.window < WHEEL_TICKS {
            let idx = (at % WHEEL_TICKS) as usize;
            let bucket = &mut self.buckets[idx];
            Self::provision(&mut self.spare, bucket);
            // In-order fast path: sequences are handed out monotonically,
            // so appends keep the bucket sorted by seq.
            match bucket.last() {
                Some(&(last_seq, _)) if last_seq > seq => {
                    let pos = bucket.partition_point(|(s, _)| *s < seq);
                    bucket.insert(pos, (seq, Some(event)));
                }
                _ => bucket.push((seq, Some(event))),
            }
            self.set_occupied(idx);
            self.ring_len += 1;
            if self.next_tick.is_some_and(|next| at < next) {
                self.next_tick = Some(at);
            }
        } else {
            // Overflow events sit at or beyond `window + WHEEL_TICKS`,
            // which a memoized ring tick never exceeds, so the memo
            // stays valid.
            self.overflow.push(Reverse(FarEvent { at, seq, event }));
        }
    }

    /// Append-only insert for callers that push in globally increasing
    /// `seq` order (the engine always does: sequences are handed out
    /// monotonically and a bucket never holds two ticks at once, so the
    /// out-of-order guard in [`CalendarQueue::push`] can never fire).
    /// Skips the tail-sequence load and compare on the hottest store of
    /// the simulator.
    #[inline]
    pub(crate) fn push_in_order(&mut self, at: Time, seq: u64, event: E) {
        let at = at.ticks();
        debug_assert!(at >= self.window, "event scheduled before the window");
        if at - self.window < WHEEL_TICKS {
            let idx = (at % WHEEL_TICKS) as usize;
            let bucket = &mut self.buckets[idx];
            debug_assert!(
                bucket.last().is_none_or(|&(last, _)| last < seq),
                "push_in_order caller violated seq monotonicity"
            );
            Self::provision(&mut self.spare, bucket);
            bucket.push((seq, Some(event)));
            self.set_occupied(idx);
            self.ring_len += 1;
            if self.next_tick.is_some_and(|next| at < next) {
                self.next_tick = Some(at);
            }
        } else {
            self.overflow.push(Reverse(FarEvent { at, seq, event }));
        }
    }

    /// Moves overflow events that now fit the window into the ring.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(far)) = self.overflow.peek() {
            if far.at - self.window >= WHEEL_TICKS {
                break;
            }
            let Reverse(far) = self.overflow.pop().expect("peeked");
            // Ring pushes bypass `push` to avoid re-checking the window.
            let idx = (far.at % WHEEL_TICKS) as usize;
            let bucket = &mut self.buckets[idx];
            Self::provision(&mut self.spare, bucket);
            let pos = bucket.partition_point(|(s, _)| *s < far.seq);
            bucket.insert(pos, (far.seq, Some(far.event)));
            self.set_occupied(idx);
            self.ring_len += 1;
        }
    }

    /// The tick of the earliest ring event, scanning the occupancy
    /// bitmap from `window` forward (with wraparound).
    fn earliest_ring_tick(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.window % WHEEL_TICKS) as usize;
        let mut best: Option<u64> = None;
        for step in 0..=WHEEL_WORDS {
            // Scan words starting at `start`'s word; the first and last
            // word need partial masks to respect the window rotation.
            let word_idx = (start / 64 + step) % WHEEL_WORDS;
            let mut word = self.occupied[word_idx];
            if step == 0 {
                word &= !0u64 << (start % 64);
            } else if step == WHEEL_WORDS {
                word &= !(!0u64 << (start % 64));
            }
            if word != 0 {
                let bit = word_idx * 64 + word.trailing_zeros() as usize;
                let offset = (bit as u64 + WHEEL_TICKS - start as u64) % WHEEL_TICKS;
                best = Some(self.window + offset);
                break;
            }
        }
        best
    }

    /// Time of the next event without removing it.
    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<Time> {
        if let Some(next) = self.next_tick {
            return Some(Time::from_ticks(next));
        }
        if self.ring_len == 0 {
            // Jump the window straight to the overflow's earliest event.
            let far_at = self.overflow.peek().map(|Reverse(f)| f.at)?;
            self.window = far_at;
        }
        self.migrate_overflow();
        self.next_tick = self.earliest_ring_tick();
        self.next_tick.map(Time::from_ticks)
    }

    /// Takes **every** event of the earliest tick at or before `deadline`
    /// by moving the tick's bucket storage into `out` (entries in
    /// `(seq)` order, every slot `Some`), and returns that tick's time;
    /// `None` when the queue is empty or the earliest event lies beyond
    /// the deadline (`out` is untouched then).
    ///
    /// `out` must arrive empty. The storage it arrives with — the tick
    /// the caller has just finished with — goes to the top of the pool,
    /// from where the next bucket to receive a first event takes it; the
    /// drained bucket keeps none. So the caller hands its (cleared)
    /// buffer back on the next call, and storage circulates between the
    /// caller and the few buckets in use without reallocation.
    ///
    /// Window advance, overflow migration and the occupancy-bitmap scan
    /// happen once per *tick*, the handoff is two O(1) pointer moves, and
    /// each event is moved exactly once (by the caller, out of the
    /// buffer). No event can be scheduled *at* the tick being drained
    /// (the engine only schedules strictly after `now`), so the drain can
    /// never miss a same-tick straggler.
    pub(crate) fn take_tick(
        &mut self,
        deadline: Time,
        out: &mut Vec<(u64, Option<E>)>,
    ) -> Option<Time> {
        debug_assert!(out.is_empty());
        let at = self.peek_time()?;
        if at > deadline {
            return None;
        }
        let at = at.ticks();
        if self.window < at {
            self.window = at;
            // Advancing the window may pull more overflow events into
            // range at this same tick.
            self.migrate_overflow();
        }
        let idx = (at % WHEEL_TICKS) as usize;
        let bucket = &mut self.buckets[idx];
        debug_assert!(!bucket.is_empty(), "occupancy bit without items");
        self.ring_len -= bucket.len();
        let done = std::mem::replace(out, std::mem::take(bucket));
        if done.capacity() != 0 {
            self.spare.push(done);
        }
        self.clear_occupied(idx);
        self.next_tick = None;
        Some(Time::from_ticks(at))
    }

    /// Removes the event queued at `at` under `seq`, if there is one, and
    /// says whether there was. In the ring that is a binary search of the
    /// tick's bucket, which is kept in `seq` order, and a bucket it
    /// empties is released at once, so the queue holds no trace of the
    /// event: no tick is ever taken for nothing. The overflow heap is
    /// rebuilt without it, which costs a pass over the events beyond the
    /// window — few, and never the ones of the hot path. `at` must lie
    /// after the last tick taken (a taken tick is the caller's).
    pub(crate) fn cancel(&mut self, at: Time, seq: u64) -> bool {
        let at = at.ticks();
        debug_assert!(at >= self.window, "cancel of a tick already taken");
        if at - self.window >= WHEEL_TICKS {
            let before = self.overflow.len();
            self.overflow.retain(|Reverse(far)| far.seq != seq);
            return self.overflow.len() != before;
        }
        let idx = (at % WHEEL_TICKS) as usize;
        let bucket = &mut self.buckets[idx];
        let Ok(pos) = bucket.binary_search_by_key(&seq, |&(s, _)| s) else {
            return false;
        };
        bucket.remove(pos);
        self.ring_len -= 1;
        if bucket.is_empty() {
            Self::release(&mut self.spare, bucket);
            self.clear_occupied(idx);
            if self.next_tick == Some(at) {
                self.next_tick = None;
            }
        }
        true
    }

    /// Calls `f(tick, seq, event)` for every queued event, in no
    /// particular order, visiting only the occupied buckets.
    pub(crate) fn for_each<'a>(&'a self, mut f: impl FnMut(u64, u64, &'a E)) {
        let base = self.window % WHEEL_TICKS;
        for (w, &word) in self.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A live bucket holds exactly one tick of the current
                // window: the tick ≡ idx (mod WHEEL_TICKS) in
                // [window, window + WHEEL_TICKS).
                let tick = self.window + (idx as u64 + WHEEL_TICKS - base) % WHEEL_TICKS;
                for (seq, slot) in &self.buckets[idx] {
                    f(tick, *seq, slot.as_ref().expect("queued slots are live"));
                }
            }
        }
        for Reverse(far) in &self.overflow {
            f(far.at, far.seq, &far.event);
        }
    }

    /// Every queued event as `(tick, seq, event)` in dispatch order —
    /// the queue's representation-independent content, for the durable
    /// snapshot codec. Window position, bucket layout and the
    /// ring/overflow split are reconstruction details: only the
    /// `(time, seq)` dispatch order is observable (the invariant the
    /// reference-model tests pin), and
    /// [`CalendarQueue::from_persist_entries`] reproduces it exactly by
    /// replaying the entries through [`CalendarQueue::push`].
    pub(crate) fn persist_entries(&self) -> Vec<(u64, u64, &E)> {
        let mut out: Vec<(u64, u64, &E)> = Vec::with_capacity(self.len());
        self.for_each(|at, seq, event| out.push((at, seq, event)));
        out.sort_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// Rebuilds a queue from [`CalendarQueue::persist_entries`] output
    /// (entries must be in `(tick, seq)` order).
    pub(crate) fn from_persist_entries(entries: impl IntoIterator<Item = (u64, u64, E)>) -> Self {
        let mut q = CalendarQueue::new();
        for (at, seq, event) in entries {
            q.push(Time::from_ticks(at), seq, event);
        }
        q
    }

    /// Returns the queue to its freshly-constructed state while keeping
    /// every allocation — the live buckets' storage joins the pool — so a
    /// sweep can reuse one queue across runs (see `EngineArena`).
    pub(crate) fn reset(&mut self) {
        for bucket in &mut self.buckets {
            Self::release(&mut self.spare, bucket);
        }
        self.occupied = [0; WHEEL_WORDS];
        self.ring_len = 0;
        self.window = 0;
        self.next_tick = None;
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Per-event view over [`CalendarQueue::take_tick`]: consumes each
    /// swapped-out tick front to back and hands the cleared buffer back
    /// on the next refill, the way the engine's run loop does.
    struct Drain<E> {
        q: CalendarQueue<E>,
        tick: Vec<(u64, Option<E>)>,
        pos: usize,
        at: Time,
    }

    impl<E> Drain<E> {
        fn new() -> Self {
            Drain {
                q: CalendarQueue::new(),
                tick: Vec::new(),
                pos: 0,
                at: Time::ZERO,
            }
        }

        fn pop(&mut self) -> Option<(Time, u64, E)> {
            if self.pos >= self.tick.len() {
                self.tick.clear();
                self.pos = 0;
                self.at = self.q.take_tick(Time::MAX, &mut self.tick)?;
            }
            let (seq, slot) = &mut self.tick[self.pos];
            self.pos += 1;
            Some((self.at, *seq, slot.take().expect("slot consumed twice")))
        }

        /// Events not yet handed out: queued plus buffered.
        fn len(&self) -> usize {
            self.q.len() + self.tick.len() - self.pos
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut d = Drain::new();
        d.q.push(Time::from_ticks(5), 2, "b");
        d.q.push(Time::from_ticks(5), 1, "a");
        d.q.push(Time::from_ticks(3), 3, "c");
        assert_eq!(d.q.peek_time(), Some(Time::from_ticks(3)));
        assert_eq!(d.pop(), Some((Time::from_ticks(3), 3, "c")));
        assert_eq!(d.pop(), Some((Time::from_ticks(5), 1, "a")));
        assert_eq!(d.pop(), Some((Time::from_ticks(5), 2, "b")));
        assert_eq!(d.pop(), None);
        assert!(d.q.is_empty());
    }

    #[test]
    fn overflow_events_merge_in_order() {
        let mut d = Drain::new();
        // Far event first (small seq), near event later (large seq).
        d.q.push_in_order(Time::from_ticks(WHEEL_TICKS * 3), 1, "far");
        d.q.push_in_order(Time::from_ticks(2), 2, "near");
        assert_eq!(d.q.len(), 2);
        assert_eq!(d.pop(), Some((Time::from_ticks(2), 2, "near")));
        assert_eq!(d.pop(), Some((Time::from_ticks(WHEEL_TICKS * 3), 1, "far")));
        assert!(d.q.is_empty());
    }

    #[test]
    fn same_tick_across_ring_and_overflow_respects_seq() {
        let mut d = Drain::new();
        let t = WHEEL_TICKS + 7;
        // Goes to overflow (beyond the initial window)...
        d.q.push_in_order(Time::from_ticks(t), 1, "overflowed");
        // ...advance the window by draining an early event...
        d.q.push_in_order(Time::from_ticks(WHEEL_TICKS - 1), 2, "early");
        assert_eq!(d.pop().unwrap().2, "early");
        // ...now the same tick is in the window: ring insert, larger seq,
        // and the migration slots the overflowed event in front of it.
        d.q.push_in_order(Time::from_ticks(t), 3, "ringed");
        assert_eq!(d.pop(), Some((Time::from_ticks(t), 1, "overflowed")));
        assert_eq!(d.pop(), Some((Time::from_ticks(t), 3, "ringed")));
    }

    #[test]
    fn window_jumps_over_long_gaps() {
        let mut d = Drain::new();
        d.q.push_in_order(Time::from_ticks(10), 1, 'x');
        assert_eq!(d.pop(), Some((Time::from_ticks(10), 1, 'x')));
        d.q.push_in_order(Time::from_ticks(500_000), 2, 'y');
        assert_eq!(d.q.peek_time(), Some(Time::from_ticks(500_000)));
        assert_eq!(d.pop(), Some((Time::from_ticks(500_000), 2, 'y')));
    }

    #[test]
    fn wraparound_keeps_ordering() {
        let mut d = Drain::new();
        let mut seq = 0;
        let mut popped = 0;
        // Drive the window through several full wheel revolutions.
        for round in 0..5u64 {
            for offset in [1u64, 13, 700, 1023] {
                let t = round * WHEEL_TICKS + offset;
                d.q.push_in_order(Time::from_ticks(t), seq, (t, seq));
                seq += 1;
            }
            // Drain this round before scheduling the next (mirrors the
            // engine, whose pushes never precede `now`).
            while d
                .q
                .peek_time()
                .is_some_and(|t| t.ticks() <= (round + 1) * WHEEL_TICKS)
            {
                let (t, s, payload) = d.pop().unwrap();
                assert_eq!(payload, (t.ticks(), s));
                assert_eq!(s, popped, "dequeued out of push order");
                popped += 1;
            }
        }
        assert_eq!(popped, seq);
        assert!(d.q.is_empty());
    }

    #[test]
    fn drop_with_partially_consumed_tick_is_sound() {
        let mut d = Drain::new();
        d.q.push_in_order(Time::from_ticks(1), 0, String::from("a"));
        d.q.push_in_order(Time::from_ticks(1), 1, String::from("b"));
        d.q.push_in_order(Time::from_ticks(9), 2, String::from("c"));
        assert_eq!(d.pop().unwrap().2, "a");
        assert_eq!(d.len(), 2);
        drop(d); // must not double-drop "a"
    }

    /// `take_tick` + `push_in_order` against the `BTreeMap` model, one
    /// event at a time: pushes land while a tick is only partially
    /// consumed, near (ring) and ≥ `WHEEL_TICKS` ahead (overflow heap,
    /// migrating in as the window reaches them).
    #[test]
    fn reference_model_and_calendar_agree_on_random_workloads() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cal = Drain::new();
            let mut reference: BTreeMap<(Time, u64), u64> = BTreeMap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in 0..2_000 {
                if rng.gen_bool(0.6) || reference.is_empty() {
                    // The engine schedules strictly after `now`.
                    let horizon: u64 = if rng.gen_bool(0.9) {
                        rng.gen_range(1..64)
                    } else {
                        rng.gen_range(1..WHEEL_TICKS * 4)
                    };
                    let at = Time::from_ticks(now + horizon);
                    cal.q.push_in_order(at, seq, seq);
                    reference.insert((at, seq), seq);
                    seq += 1;
                } else {
                    let a = cal.pop();
                    let b = reference.pop_first().map(|((t, s), e)| (t, s, e));
                    assert_eq!(a, b, "diverged at op {op} of seed {seed}");
                    now = a.expect("model was non-empty").0.ticks();
                }
                assert_eq!(cal.len(), reference.len());
            }
            while let Some(((t, s), e)) = reference.pop_first() {
                assert_eq!(cal.pop(), Some((t, s, e)));
            }
            assert_eq!(cal.pop(), None);
            assert!(cal.q.is_empty());
        }
    }

    /// Whole-tick drains against the `BTreeMap` model under deadlines
    /// that move freely between calls — including **below** the previous
    /// call's: a refused drain must leave queue and buffer untouched, and
    /// a granted one must hand over exactly the earliest tick, whole.
    #[test]
    fn take_tick_matches_reference_model_under_moving_deadlines() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
            let mut cal = CalendarQueue::new();
            let mut reference: BTreeMap<(Time, u64), u64> = BTreeMap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut buf: Vec<(u64, Option<u64>)> = Vec::new();
            let mut granted = 0;
            for _ in 0..400 {
                // Respect the push contract (never schedule before the
                // window): a peek with only far events left jumps the
                // window to the overflow head, so pushes follow it.
                let base = now.max(cal.peek_time().map_or(0, Time::ticks));
                // A burst of pushes at assorted horizons...
                for _ in 0..rng.gen_range(1..8u32) {
                    let horizon: u64 = if rng.gen_bool(0.85) {
                        rng.gen_range(1..32)
                    } else {
                        rng.gen_range(1..WHEEL_TICKS * 3)
                    };
                    let at = Time::from_ticks(base + horizon);
                    cal.push_in_order(at, seq, seq);
                    reference.insert((at, seq), seq);
                    seq += 1;
                }
                // ...then drain tick by tick up to a deadline counted
                // from the last drained tick — so it may sit below the
                // previous round's — until the queue refuses.
                let reach = if rng.gen_bool(0.8) {
                    rng.gen_range(0..64)
                } else {
                    rng.gen_range(0..WHEEL_TICKS * 4)
                };
                let deadline = Time::from_ticks(now + reach);
                loop {
                    let earliest = reference.first_key_value().map(|(&(t, _), _)| t);
                    assert_eq!(cal.peek_time(), earliest);
                    buf.clear();
                    let Some(t) = cal.take_tick(deadline, &mut buf) else {
                        assert!(earliest.is_none_or(|t| t > deadline));
                        assert!(buf.is_empty(), "a refused drain touched the buffer");
                        break;
                    };
                    granted += 1;
                    assert_eq!(Some(t), earliest);
                    assert!(t <= deadline);
                    for (s, e) in buf.drain(..).map(|(s, e)| (s, e.expect("live slot"))) {
                        assert_eq!(reference.pop_first(), Some(((t, s), e)));
                    }
                    assert_ne!(
                        reference.first_key_value().map(|(&(next, _), _)| next),
                        Some(t),
                        "drain missed a same-tick event (seed {seed})"
                    );
                    now = t.ticks();
                    assert_eq!(cal.len(), reference.len());
                }
            }
            assert!(granted > 400, "seed {seed} hardly ever reached a tick");
        }
    }

    #[test]
    fn shrinking_deadline_refuses_then_resumes() {
        let mut q = CalendarQueue::new();
        q.push_in_order(Time::from_ticks(5), 0, "a");
        q.push_in_order(Time::from_ticks(9), 1, "b");
        let mut buf = Vec::new();
        assert_eq!(
            q.take_tick(Time::from_ticks(7), &mut buf),
            Some(Time::from_ticks(5))
        );
        buf.clear();
        // The deadline shrinks below the next tick, then below the tick
        // just drained: both refusals leave everything in place.
        assert_eq!(q.take_tick(Time::from_ticks(7), &mut buf), None);
        assert_eq!(q.take_tick(Time::from_ticks(3), &mut buf), None);
        assert!(buf.is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.take_tick(Time::from_ticks(9), &mut buf),
            Some(Time::from_ticks(9))
        );
        assert_eq!(buf, vec![(1, Some("b"))]);
        assert!(q.is_empty());
    }

    /// Cancels against the `BTreeMap` model: ring and overflow entries,
    /// buckets emptied by a cancel (whose tick must then never be taken)
    /// and cancels of what is no longer queued.
    #[test]
    fn cancel_matches_reference_model() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xCA4C);
            let mut cal = Drain::new();
            let mut reference: BTreeMap<(Time, u64), u64> = BTreeMap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in 0..2_000 {
                let roll = rng.gen_range(0..10u32);
                if roll < 5 || reference.is_empty() {
                    let horizon: u64 = if rng.gen_bool(0.8) {
                        rng.gen_range(1..16)
                    } else {
                        rng.gen_range(1..WHEEL_TICKS * 3)
                    };
                    let at = Time::from_ticks(now + horizon);
                    cal.q.push_in_order(at, seq, seq);
                    reference.insert((at, seq), seq);
                    seq += 1;
                } else if roll < 8 {
                    // Pick a queued entry (or, at times, a seq that was
                    // never queued there) beyond the tick in hand.
                    let queued: Vec<(Time, u64)> = reference
                        .keys()
                        .copied()
                        .filter(|&(t, _)| t.ticks() > now)
                        .collect();
                    let Some(&(at, s)) = queued.get(rng.gen_range(0..queued.len().max(1))) else {
                        continue;
                    };
                    let s = if rng.gen_bool(0.1) { s + seq } else { s };
                    let expected = reference.remove(&(at, s)).is_some();
                    assert_eq!(cal.q.cancel(at, s), expected, "op {op} of seed {seed}");
                } else {
                    if cal.pos < cal.tick.len() {
                        // Finish the tick in hand before moving on.
                        while cal.pos < cal.tick.len() {
                            let (t, s, e) = cal.pop().expect("buffered");
                            assert_eq!(reference.pop_first(), Some(((t, s), e)));
                        }
                        continue;
                    }
                    let a = cal.pop();
                    let b = reference.pop_first().map(|((t, s), e)| (t, s, e));
                    assert_eq!(a, b, "diverged at op {op} of seed {seed}");
                    now = a.expect("model was non-empty").0.ticks();
                }
                assert_eq!(cal.len(), reference.len());
            }
            while let Some(((t, s), e)) = reference.pop_first() {
                assert_eq!(cal.pop(), Some((t, s, e)));
            }
            assert_eq!(cal.pop(), None);
            assert!(cal.q.is_empty());
        }
    }

    /// Vectors owning an allocation, in buckets and pool together.
    fn storage_in_circulation<E>(q: &CalendarQueue<E>) -> usize {
        let owning = |v: &&Bucket<E>| v.capacity() != 0;
        q.buckets.iter().filter(owning).count() + q.spare.iter().filter(owning).count()
    }

    /// Drains `q` to the end, the way the engine does.
    fn drain_all<E>(q: CalendarQueue<E>) -> Vec<(Time, u64, E)> {
        let mut d = Drain { q, ..Drain::new() };
        std::iter::from_fn(|| d.pop()).collect()
    }

    #[test]
    fn bucket_storage_is_recycled_most_recent_first() {
        const LOOKAHEAD: u64 = 3;
        let mut q = CalendarQueue::new();
        let mut buf = Vec::new();
        let mut seq = 0u64;
        q.push_in_order(Time::from_ticks(1), seq, seq);
        for now in 1..10_000u64 {
            buf.clear();
            assert_eq!(
                q.take_tick(Time::MAX, &mut buf),
                Some(Time::from_ticks(now))
            );
            for ahead in 1..=LOOKAHEAD {
                seq += 1;
                q.push_in_order(Time::from_ticks(now + ahead), seq, seq);
            }
            // The live ticks and whatever waits in the pool — not one
            // vector per bucket the window has swept over.
            assert!(storage_in_circulation(&q) <= LOOKAHEAD as usize + 2);
        }
        // The storage a drain frees is what the next first event gets.
        buf.clear();
        q.take_tick(Time::MAX, &mut buf);
        let freed = buf.as_ptr();
        buf.clear();
        q.take_tick(Time::MAX, &mut buf);
        q.push_in_order(Time::from_ticks(10_003), seq + 1, 0);
        assert_eq!(q.buckets[10_003 % WHEEL_TICKS as usize].as_ptr(), freed);
    }

    #[test]
    fn the_pool_survives_reset_and_clone_from_but_is_not_cloned() {
        let mut q = CalendarQueue::new();
        for (seq, at) in [3u64, 3, 5, 9, WHEEL_TICKS * 2].into_iter().enumerate() {
            q.push_in_order(Time::from_ticks(at), seq as u64, seq);
        }
        let mut buf = Vec::new();
        q.take_tick(Time::MAX, &mut buf);
        buf.clear();
        q.take_tick(Time::MAX, &mut buf);
        assert_eq!(q.spare.len(), 1);

        // A clone copies content, not the cache, and dequeues the same.
        let copy = q.clone();
        assert!(copy.spare.is_empty());
        let expected = drain_all(q.clone());
        assert_eq!(expected.len(), 2);
        assert_eq!(drain_all(copy), expected);

        // `clone_from` keeps what the destination owns: storage of
        // buckets the source has empty moves to the destination's pool.
        let mut dst = CalendarQueue::new();
        for seq in 0..4u64 {
            dst.push_in_order(Time::from_ticks(1 + seq), seq, 0usize);
        }
        dst.clone_from(&q);
        assert_eq!(storage_in_circulation(&dst), 4);
        assert_eq!(dst.spare.len(), 3);
        assert_eq!(drain_all(dst), expected);

        // `reset` empties the queue into the pool.
        let before = storage_in_circulation(&q);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.spare.len(), before);
    }

    #[test]
    fn reset_recycles_to_empty_state() {
        let mut d = Drain::new();
        d.q.push_in_order(Time::from_ticks(3), 0, "a");
        d.q.push_in_order(Time::from_ticks(WHEEL_TICKS * 5), 1, "far");
        assert_eq!(d.pop().map(|(_, _, e)| e), Some("a"));
        d.q.reset();
        assert!(d.q.is_empty());
        assert_eq!(d.q.len(), 0);
        assert_eq!(d.q.peek_time(), None);
        // Usable from scratch after the reset.
        d.q.push_in_order(Time::from_ticks(2), 7, "b");
        assert_eq!(d.pop(), Some((Time::from_ticks(2), 7, "b")));
    }
}
