//! Durable (on-disk) codecs for engine snapshots.
//!
//! [`EngineSnapshot`] already carries everything a run's future depends
//! on (see [`crate::snapshot`]); this module makes it [`Persist`], so
//! the in-memory restore→continue contract extends across a process
//! boundary: encode, write (through [`crate::store`]'s atomic
//! container), kill the process, read, decode, restore — the continued
//! run replays the byte-identical `(time, seq)` event sequence an
//! uninterrupted run would. The lock-step engine has no snapshot: a
//! durable Figure 7 run is `HSigmaStepProcess` on this engine.
//!
//! # What is state and what is representation
//!
//! The codec persists *observable* state only:
//!
//! * the calendar queue round-trips as its `(tick, seq, event)` content
//!   in dispatch order, written as deltas from the entry before: the
//!   tick as a varint of its (never negative) step, the sequence number
//!   zigzagged, since a timer armed early lands after copies sent later.
//!   Window position and ring/overflow split are rebuilt (only dispatch
//!   order is observable, a property the queue's reference-model tests
//!   pin);
//! * the engine's three RNG streams (network, adversary, Byzantine)
//!   round-trip as their exact xoshiro256** state words, so every
//!   post-restore draw continues the stream mid-sequence. A process has
//!   no stream: the algorithms are deterministic, so a process slot is
//!   its automaton's state and its identifier;
//! * recycled scratch buffers (tick batches already drained, arena
//!   spares) are **not** state and decode empty.
//!
//! `Arc`-shared payloads — the copies of a broadcast still in flight,
//! the detector bag a run of history entries shares — go through the
//! codec's alias table: written once, and decoded onto one allocation,
//! so a resumed engine has the footprint of the one that was saved.

use homonym_core::wire::{Loader, Persist, Saver, WireError};
use rand::rngs::StdRng;

use crate::engine::{Event, Metrics, ProcSlot};
use crate::process::{Process, TimerTag};
use crate::queue::CalendarQueue;
use crate::snapshot::EngineSnapshot;

impl Persist for TimerTag {
    fn save(&self, s: &mut Saver) {
        s.u64(self.0);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(TimerTag(l.u64()?))
    }
}

/// RNGs persist as their exact stream position (the four xoshiro256**
/// state words), not their seed: a restored generator continues
/// mid-stream. (`StdRng` is a foreign type, so this is a helper pair
/// rather than a `Persist` impl.)
fn save_rng(rng: &StdRng, s: &mut Saver) {
    rng.state().save(s);
}

fn load_rng(l: &mut Loader<'_>) -> Result<StdRng, WireError> {
    Ok(StdRng::from_state(<[u64; 4]>::load(l)?))
}

homonym_core::persist_enum!(impl[M: Persist + 'static] Event<M> as Event {
    Start = 0 { dst },
    Deliver = 1 { dst, msg },
    DeliverShared = 2 { dst, msg },
    Timer = 3 { dst, tag },
});

homonym_core::persist_fields!(impl[P: Process + Persist] ProcSlot<P> { proc, id });

homonym_core::persist_fields!(Metrics {
    broadcasts,
    copies_sent,
    copies_delivered,
    copies_lost,
    copies_blocked,
    copies_forged,
    copies_suppressed,
    copies_unaddressed,
    copies_discarded,
    timers_fired,
    events,
    by_class
});

/// Entries in dispatch order, each as `(at − previous at, zigzag(seq −
/// previous seq))` from `(0, 0)`: a byte or two where absolute values
/// are three or four (see the module docs).
impl<E: Persist> Persist for CalendarQueue<E> {
    fn save(&self, s: &mut Saver) {
        let entries = self.persist_entries();
        s.len(entries.len());
        let (mut at0, mut seq0) = (0, 0);
        for (at, seq, event) in entries {
            s.u64(at - at0);
            s.u64(zigzag(seq.wrapping_sub(seq0)));
            (at0, seq0) = (at, seq);
            event.save(s);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let (n, mut entries) = l.seq()?;
        let (mut at, mut seq) = (0u64, 0u64);
        for _ in 0..n {
            at = at
                .checked_add(l.u64()?)
                .ok_or(WireError::BadValue { what: "queue tick" })?;
            seq = seq.wrapping_add(unzigzag(l.u64()?));
            entries.push((at, seq, E::load(l)?));
        }
        Ok(CalendarQueue::from_persist_entries(entries))
    }
}

/// A two's-complement step as a small varint either way: 0, −1, 1, −2…
/// map to 0, 1, 2, 3…
fn zigzag(step: u64) -> u64 {
    (step << 1) ^ ((step as i64 >> 63) as u64)
}

fn unzigzag(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// The event-driven engine's full durable state. Field order is the
/// wire layout; any change to it (or to a field's own encoding) is a
/// schema break the checkpoint container's schema version must reflect.
impl<P> Persist for EngineSnapshot<P>
where
    P: Process + Persist,
    P::Msg: Persist,
    P::Output: Persist,
{
    fn save(&self, s: &mut Saver) {
        self.procs.save(s);
        self.halted.save(s);
        self.queue.save(s);
        self.seq.save(s);
        self.now.save(s);
        save_rng(&self.net_rng, s);
        save_rng(&self.adv_rng, s);
        save_rng(&self.byz_rng, s);
        self.byz_replay.save(s);
        self.metrics.save(s);
        self.histories.save(s);
        self.decisions.save(s);
        self.trace.save(s);
        self.recorder.save(s);
        // The partially consumed tick batch: live events plus the
        // already-dispatched prefix as `None` slots, with the cursor.
        self.tick_batch.save(s);
        self.tick_pos.save(s);
    }

    /// Rejects, besides what the fields' own codecs reject, a snapshot
    /// whose shape the engine restoring it would index past: a per-process
    /// table (halt flags, replay cache, histories, decisions) without one
    /// entry per process, an event addressed past the last process, and a
    /// tick batch whose consumed slots are not exactly those before the
    /// cursor, or whose cursor lies past it. (A batch the engine drained
    /// is emptied at its next refill and keeps its cursor until then, so
    /// an empty batch takes any cursor.) It also rejects a queued or
    /// batched entry numbered at or past the sequence counter: the next
    /// event pushed would not sort after it, and dispatch would leave
    /// `(time, seq)` order.
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let snap = EngineSnapshot {
            procs: Persist::load(l)?,
            halted: Persist::load(l)?,
            queue: Persist::load(l)?,
            seq: Persist::load(l)?,
            now: Persist::load(l)?,
            net_rng: load_rng(l)?,
            adv_rng: load_rng(l)?,
            byz_rng: load_rng(l)?,
            byz_replay: Persist::load(l)?,
            metrics: Persist::load(l)?,
            histories: Persist::load(l)?,
            decisions: Persist::load(l)?,
            trace: Persist::load(l)?,
            recorder: Persist::load(l)?,
            tick_batch: Persist::load(l)?,
            tick_pos: Persist::load(l)?,
        };
        let n = snap.procs.len();
        let tables = [
            snap.halted.len(),
            snap.byz_replay.len(),
            snap.histories.len(),
            snap.decisions.len(),
        ];
        let queued = snap.queue.persist_entries().into_iter();
        let queued = queued.map(|(_, seq, e)| (seq, Some(e)));
        let batched = snap.tick_batch.iter().map(|(seq, e)| (*seq, e.as_ref()));
        let consumed = snap.tick_batch.iter().map(|(_, e)| e.is_none());
        if tables != [n; 4]
            || queued
                .chain(batched)
                .any(|(seq, e)| seq >= snap.seq || e.is_some_and(|e| e.dst() >= n))
            || (snap.tick_pos > snap.tick_batch.len() && !snap.tick_batch.is_empty())
            || !consumed
                .enumerate()
                .all(|(i, none)| none == (i < snap.tick_pos))
        {
            return Err(WireError::BadValue {
                what: "EngineSnapshot",
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use homonym_core::failure::FailureSchedule;
    use homonym_core::identity::IdentityAssignment;
    use homonym_core::time::Time;
    use homonym_core::wire::{from_bytes, to_bytes};

    use super::*;
    use crate::engine::{Engine, SimConfig};
    use crate::network::NetworkModel;
    use crate::process::ActionSink;

    /// Broadcasts one heap-owning payload at start — the kind the
    /// engine queues as `Arc`-shared copies rather than inline.
    #[derive(Clone)]
    struct Shout {
        me: u64,
    }

    impl Process for Shout {
        type Msg = Vec<u64>;
        type Output = ();
        fn on_start(&mut self, ctx: &mut ActionSink<'_, Vec<u64>, ()>) {
            ctx.broadcast(vec![self.me; 3]);
        }
        fn on_message(&mut self, _msg: Vec<u64>, _ctx: &mut ActionSink<'_, Vec<u64>, ()>) {}
        fn on_timer(&mut self, _timer: TimerTag, _ctx: &mut ActionSink<'_, Vec<u64>, ()>) {}
    }

    homonym_core::persist_fields!(Shout { me });

    /// For every queued shared delivery, in dispatch order, the position
    /// of the first one holding the same allocation.
    fn sharing(snap: &EngineSnapshot<Shout>) -> Vec<usize> {
        let payloads: Vec<&Arc<Vec<u64>>> = snap
            .queue
            .persist_entries()
            .into_iter()
            .filter_map(|(_, _, event)| match event {
                Event::DeliverShared { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        payloads
            .iter()
            .map(|p| {
                payloads
                    .iter()
                    .position(|q| Arc::ptr_eq(p, q))
                    .expect("finds itself")
            })
            .collect()
    }

    /// The queued event's layout, one vector per variant: a tag, the
    /// destination, then the payload (a shared one through the alias
    /// table) or the timer's tag.
    #[test]
    fn every_event_variant_encodes_as_pinned() {
        let hex =
            |e: Event<u64>| -> String { to_bytes(&e).iter().map(|b| format!("{b:02x}")).collect() };
        assert_eq!(hex(Event::Start { dst: 3 }), "0003");
        let msg = u64::MAX;
        assert_eq!(
            hex(Event::Deliver { dst: 3, msg }),
            "0103ffffffffffffffffff01"
        );
        assert_eq!(
            hex(Event::DeliverShared {
                dst: 300,
                msg: Arc::new(msg)
            }),
            "02ac0200ffffffffffffffffff01"
        );
        let tag = TimerTag(1 << 40);
        assert_eq!(hex(Event::Timer { dst: 3, tag }), "0303808080808020");
    }

    /// Small steps either way are small codes, and every `u64` step —
    /// a wrap-around included — comes back as it went.
    #[test]
    fn zigzag_is_a_bijection_that_keeps_small_steps_small() {
        let back = 0u64.wrapping_sub(1);
        assert_eq!([0, back, 1, back - 1, 2].map(zigzag), [0, 1, 2, 3, 4]);
        for step in [0, 1, back, 1 << 63, (1 << 63) - 1, u64::MAX / 3] {
            assert_eq!(unzigzag(zigzag(step)), step);
        }
    }

    #[test]
    fn queued_copies_of_one_broadcast_share_their_payload_after_a_round_trip() {
        let n = 4;
        let config = SimConfig::new(
            IdentityAssignment::round_robin(n, 2),
            FailureSchedule::none(n),
            NetworkModel::Synchronous,
        );
        let mut e = Engine::new(config, |p, _| Shout { me: p as u64 });
        // Every process has broadcast; no copy has arrived.
        e.run_until(Time::from_ticks(0));
        let snap = e.snapshot();
        let before = sharing(&snap);
        assert_eq!(before.len(), n * n, "every copy is queued, and shared");
        let distinct = |groups: &[usize]| {
            let mut firsts = groups.to_vec();
            firsts.sort_unstable();
            firsts.dedup();
            firsts.len()
        };
        assert_eq!(distinct(&before), n, "one allocation a broadcast");

        let bytes = to_bytes(&snap);
        let back: EngineSnapshot<Shout> = from_bytes(&bytes).expect("decodes");
        assert_eq!(sharing(&back), before);
        assert_eq!(to_bytes(&back), bytes);
    }

    /// Four `Shout`s stopped after two of tick 0's four starts: a tick
    /// batch of two consumed and two live slots, and the copies of the
    /// first two broadcasts queued.
    fn mid_tick() -> EngineSnapshot<Shout> {
        let config = SimConfig::new(
            IdentityAssignment::round_robin(4, 2),
            FailureSchedule::none(4),
            NetworkModel::Synchronous,
        );
        let mut e = Engine::new(config, |p, _| Shout { me: p as u64 });
        e.run_with(Time::from_ticks(0), |e| e.metrics().events == 2);
        let snap = e.snapshot();
        assert_eq!(snap.tick_pos, 2);
        assert_eq!(snap.tick_batch.len(), 4);
        snap
    }

    /// Decodes the encoding of `mid_tick()` after `edit`.
    fn decode_edited(
        edit: impl FnOnce(&mut EngineSnapshot<Shout>),
    ) -> Result<EngineSnapshot<Shout>, WireError> {
        let mut snap = mid_tick();
        edit(&mut snap);
        from_bytes(&to_bytes(&snap))
    }

    const BAD_SHAPE: WireError = WireError::BadValue {
        what: "EngineSnapshot",
    };

    #[test]
    fn a_per_process_table_short_of_a_process_is_a_bad_value() {
        assert!(decode_edited(|_| {}).is_ok());
        let short = [
            decode_edited(|s| s.halted.truncate(3)),
            decode_edited(|s| s.byz_replay.truncate(3)),
            decode_edited(|s| s.histories.truncate(3)),
            decode_edited(|s| s.decisions.truncate(3)),
        ];
        for decoded in short {
            assert_eq!(decoded.err(), Some(BAD_SHAPE));
        }
    }

    #[test]
    fn a_cursor_past_the_tick_batch_is_a_bad_value() {
        let decoded = decode_edited(|s| {
            s.tick_batch.iter_mut().for_each(|slot| slot.1 = None);
            s.tick_pos = 5;
        });
        assert_eq!(decoded.err(), Some(BAD_SHAPE));
    }

    /// A consumed slot at or after the cursor is one dispatch would take
    /// twice; a live slot before it, one it would never take.
    #[test]
    fn consumed_slots_other_than_those_before_the_cursor_are_a_bad_value() {
        for tick_pos in [1, 3] {
            let decoded = decode_edited(|s| s.tick_pos = tick_pos);
            assert_eq!(decoded.err(), Some(BAD_SHAPE), "cursor at {tick_pos}");
        }
    }

    #[test]
    fn an_entry_numbered_at_or_past_the_sequence_counter_is_a_bad_value() {
        let snap = mid_tick();
        let queued = snap.queue.persist_entries().into_iter();
        let top = queued.map(|(_, seq, _)| seq).max().expect("copies queued");
        assert!(snap.tick_batch.iter().all(|&(seq, _)| seq < top));
        assert_eq!(snap.seq, top + 1);
        assert!(decode_edited(|s| s.seq = top + 1).is_ok());
        assert_eq!(decode_edited(|s| s.seq = top).err(), Some(BAD_SHAPE));
        let batched = decode_edited(|s| s.tick_batch[3].0 = s.seq);
        assert_eq!(batched.err(), Some(BAD_SHAPE));
    }

    #[test]
    fn an_event_addressed_past_the_last_process_is_a_bad_value() {
        let far = Event::Timer {
            dst: 4,
            tag: TimerTag(0),
        };
        let batched = decode_edited(|s| s.tick_batch[3].1 = Some(far.clone()));
        assert_eq!(batched.err(), Some(BAD_SHAPE));
        let queued = decode_edited(|s| {
            let mut entries: Vec<_> = (s.queue.persist_entries().into_iter())
                .map(|(at, seq, e)| (at, seq, e.clone()))
                .collect();
            entries[0].2 = far;
            s.queue = CalendarQueue::from_persist_entries(entries);
        });
        assert_eq!(queued.err(), Some(BAD_SHAPE));
    }
}
