//! The contract of the durable codec (`homonym_core::wire`) on the
//! state it exists to carry — whole engine snapshots:
//!
//! * **fixed point** — what a snapshot's bytes decode to encodes to the
//!   same bytes, for the n = 32 `◇HP` detector the `durable_cycle`
//!   workload checkpoints, for the Figure 8 stack, whose
//!   `SharedCell` mirrors and `Arc` payloads number themselves in one
//!   index space, and for the tolerant stack with a grace-deadline
//!   timer armed;
//! * **sharing survives** — history entries that shared one `◇HP` bag
//!   before a round trip share one after it;
//! * **a snapshot costs what the state costs** — a byte budget per
//!   history entry and for everything else;
//! * **hostile bytes** — arbitrary strings, truncations and single-byte
//!   mutations of valid encodings (a snapshot, a command queue, every
//!   variant of every message the stacks send) yield a typed error or a
//!   value that encodes to a decodable string, never a panic, and a
//!   corrupt count never sizes an allocation.
//!
//! The primitives themselves (varint boundaries, canonical forms, bad
//! back-references) are pinned by the codec's unit tests.

use std::sync::Arc;

use homonym::chaos::{byz_tolerant_node, fig8_node, hps_base, ByzTolerantNode, Fig8Node};
use homonym::consensus::{ByzMsg, RsmMsg};
use homonym::core::failure::FailureSchedule;
use homonym::core::identity::{Identity, IdentityAssignment};
use homonym::core::properties::History;
use homonym::core::time::Time;
use homonym::core::wire::{self, Loader, Persist, WireError};
use homonym::detectors::{EvtHpMsg, EvtHpProcess, EvtHpSnapshot};
use homonym::sim::{
    decode_container, encode_container, read_verified, CommandQueue, Either, Engine, EngineArena,
    EngineSnapshot, ForkProcess, SimConfig, WorkloadConfig,
};
use proptest::prelude::*;

type Detector = Engine<EvtHpProcess>;
type DetectorSnapshot = EngineSnapshot<EvtHpProcess>;

/// The engine `durable_cycle` checkpoints, at any size, run to `ticks`.
fn detector_at(n: usize, l: usize, ticks: u64) -> Detector {
    let config = SimConfig::new(
        IdentityAssignment::round_robin(n, l),
        FailureSchedule::none(n),
        hps_base(),
    );
    let mut e = Engine::new(config, |_, _| EvtHpProcess::new());
    e.run_until(Time::from_ticks(ticks));
    e
}

fn fig8_at(ticks: u64) -> Engine<Fig8Node> {
    let (n, t) = (4, 1);
    let config = SimConfig::new(
        IdentityAssignment::round_robin(n, 2),
        FailureSchedule::none(n),
        hps_base(),
    )
    .with_seed(11);
    let mut e = Engine::new(config, |p, _| fig8_node(100 + p as u64, n, t));
    e.run_until(Time::from_ticks(ticks));
    e
}

/// `to_bytes ∘ from_bytes` is the identity on the encoding of `e`'s
/// snapshot.
fn assert_fixed_point<P>(e: &Engine<P>, what: &str)
where
    P: ForkProcess,
    EngineSnapshot<P>: Persist,
{
    let bytes = wire::to_bytes(&e.snapshot());
    assert_eq!(
        bytes,
        wire::to_bytes(&e.snapshot()),
        "{what}: two encodings of one state differ"
    );
    let decoded: EngineSnapshot<P> = wire::from_bytes(&bytes).expect("a valid encoding decodes");
    assert!(
        wire::to_bytes(&decoded) == bytes,
        "{what}: the decoded snapshot encodes to other bytes"
    );
}

#[test]
fn a_detector_snapshot_is_a_fixed_point_of_the_round_trip() {
    for ticks in [0, 700, 4_000] {
        assert_fixed_point(&detector_at(32, 4, ticks), &format!("n = 32 at {ticks}"));
    }
}

/// Cuts before, during and after the decision: estimates in flight
/// (heap-owning payloads, queued as shared copies), then only the
/// detector's traffic.
#[test]
fn a_figure_8_stack_snapshot_is_a_fixed_point_of_the_round_trip() {
    for ticks in [3, 10, 400] {
        assert_fixed_point(&fig8_at(ticks), &format!("Figure 8 at {ticks}"));
    }
}

/// The tolerant stack's engine keeps one marker per armed deadline
/// timer. Cuts: at tick 1 every process has just armed its wait for the
/// round-0 coordinators (`on_start` does, and no `COORD` can have
/// arrived), at 12 that deadline has passed with later phases' waits
/// open, at 400 the decision is long made. A snapshot that dropped the
/// marker would re-arm on resume and fire a timer the flat run does not.
/// The two later cuts also carry a non-zero `copies_unaddressed` (the
/// detector half's `P_REPLY`s), which the resumed run has to end on.
#[test]
fn a_tolerant_stack_snapshot_with_a_deadline_timer_armed_is_a_fixed_point() {
    let n = 4;
    let assign = IdentityAssignment::round_robin(n, 2);
    let config = SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base()).with_seed(11);
    let node = |p: usize| byz_tolerant_node(100 + p as u64, &assign);
    let mut flat: Engine<ByzTolerantNode> = Engine::new(config.clone(), |p, _| node(p));
    flat.run_until(Time::from_ticks(400));
    for ticks in [1, 12, 400] {
        let mut e: Engine<ByzTolerantNode> = Engine::new(config.clone(), |p, _| node(p));
        e.run_until(Time::from_ticks(ticks));
        assert_fixed_point(&e, &format!("tolerant stack at {ticks}"));
        let decoded: EngineSnapshot<ByzTolerantNode> =
            wire::from_bytes(&wire::to_bytes(&e.snapshot())).expect("decodes");
        let mut resumed = Engine::resume_in(config.clone(), &decoded, EngineArena::new());
        assert_eq!(resumed.metrics(), e.metrics(), "decoded at {ticks}");
        assert!(ticks == 1 || e.metrics().copies_unaddressed > 0);
        resumed.run_until(Time::from_ticks(400));
        assert_eq!(resumed.metrics(), flat.metrics(), "resumed from {ticks}");
        assert_eq!(resumed.decisions(), flat.decisions());
    }
}

/// For every entry of every history, whether it holds the same `◇HP`
/// bag allocation as the entry before it.
fn sharing(histories: &[History<EvtHpSnapshot>]) -> Vec<Vec<bool>> {
    histories
        .iter()
        .map(|h| {
            h.windows(2)
                .map(|w| Arc::ptr_eq(&w[0].1.evt_hp, &w[1].1.evt_hp))
                .collect()
        })
        .collect()
}

#[test]
fn history_entries_that_shared_a_bag_share_one_after_a_round_trip() {
    let e = detector_at(32, 4, 3_000);
    let before = sharing(e.histories());
    let shared = before.iter().flatten().filter(|&&s| s).count();
    let fresh = before.iter().flatten().filter(|&&s| !s).count();
    assert!(
        shared > 10 * fresh && fresh > 0,
        "the run must both change its bag and then keep it: {shared} shared, {fresh} fresh"
    );
    let decoded: DetectorSnapshot =
        wire::from_bytes(&wire::to_bytes(&e.snapshot())).expect("decodes");
    let resumed = Engine::resume_in(e.config().clone(), &decoded, EngineArena::new());
    assert_eq!(resumed.histories(), e.histories());
    assert_eq!(sharing(resumed.histories()), before);
}

/// What `durable_cycle` pays for: at n = 32 a history entry past the
/// first of its bag is a back-reference and a handful of small varints
/// (9.4 bytes measured; re-encoding the bag by value alone would be 72),
/// and everything that is not history — 32 processes, their RNG
/// streams, the queue, the metrics — fits 20 KB (3.9 KB measured).
#[test]
fn a_snapshot_costs_what_the_state_costs() {
    let measure = |e: &Detector| {
        let entries: usize = e.histories().iter().map(Vec::len).sum();
        (wire::to_bytes(&e.snapshot()).len() as f64, entries as f64)
    };
    let mut e = detector_at(32, 4, 10_000);
    let (bytes_10k, entries_10k) = measure(&e);
    e.run_until(Time::from_ticks(20_000));
    let (bytes_20k, entries_20k) = measure(&e);
    let per_entry = (bytes_20k - bytes_10k) / (entries_20k - entries_10k);
    let fixed = bytes_10k - per_entry * entries_10k;
    assert!(per_entry <= 16.0, "{per_entry:.1} bytes per history entry");
    assert!(fixed <= 20_000.0, "{fixed:.0} bytes of fixed part");
}

/// A count prefix is the one field of a file that sizes an allocation:
/// admitted unchecked, one flipped byte in a megabyte snapshot reserves
/// hundreds of megabytes before the first element fails to decode.
#[test]
fn a_corrupt_count_on_a_history_neither_decodes_nor_sizes_an_allocation() {
    type Entry = (Time, EvtHpSnapshot);
    let history: History<EvtHpSnapshot> = detector_at(8, 2, 2_000).histories()[0].clone();
    let honest = wire::to_bytes(&history);
    let count_len = wire::to_bytes(&history.len()).len();
    let with_count = |n: usize| {
        let mut bytes = wire::to_bytes(&n);
        bytes.extend_from_slice(&honest[count_len..]);
        bytes
    };
    assert_eq!(
        wire::from_bytes::<Vec<Entry>>(&with_count(history.len())),
        Ok(history.clone())
    );
    // More elements than there are bytes: refused at the prefix.
    for n in [honest.len(), honest.len() * 8, usize::MAX] {
        assert_eq!(
            wire::from_bytes::<Vec<Entry>>(&with_count(n)),
            Err(WireError::BadValue { what: "length" })
        );
    }
    // Fewer than that but more than were written: the reservation is
    // paid for by the input, and the decode runs off its end.
    let inflated = with_count(honest.len() - count_len - 1);
    let (_, reserved) = Loader::new(&inflated)
        .seq::<Entry>()
        .expect("the count fits");
    assert!(reserved.capacity() * std::mem::size_of::<Entry>() <= inflated.len());
    assert!(matches!(
        wire::from_bytes::<Vec<Entry>>(&inflated),
        Err(WireError::Eof { .. })
    ));
}

// ---------------------------------------------------------------------
// Hostile bytes.
// ---------------------------------------------------------------------

/// Valid encodings to cut and mutate: a mid-run snapshot small enough
/// to try every cut of, a message of each variant, a command queue.
fn small_snapshot_bytes() -> Vec<u8> {
    wire::to_bytes(&detector_at(4, 2, 150).snapshot())
}

/// What the log service puts on the wire, alone and under the detector.
type LogMsg = RsmMsg<ByzMsg>;
type StackMsg = Either<EvtHpMsg, LogMsg>;

/// A valid encoding and the decoder that has to survive what is made of
/// it.
type Case = (Vec<u8>, fn(&[u8]) -> bool);

fn cases<T: Persist>(values: &[T]) -> Vec<Case> {
    let decoder = survives::<T> as fn(&[u8]) -> bool;
    values
        .iter()
        .map(|v| (wire::to_bytes(v), decoder))
        .collect()
}

/// Every message type a stack sends, variant by variant.
fn message_cases() -> Vec<Case> {
    let id = Identity::new(3);
    let detector = [
        EvtHpMsg::Polling { round: 300, id },
        EvtHpMsg::PReply {
            from: 7,
            to: 1_000_000,
            target: Identity::new(1),
            sender: Identity::new(2),
        },
    ];
    let (round, est, locked, val) = (70_000, u64::MAX, true, Some(5));
    let engine = [
        ByzMsg::Coord {
            id,
            round,
            est,
            locked,
        },
        ByzMsg::Vote {
            id,
            round,
            est,
            locked,
        },
        ByzMsg::Commit { id, round, val },
        ByzMsg::Commit {
            id,
            round,
            val: None,
        },
        ByzMsg::Decide { id, value: 9 },
    ];
    let height = 1 << 40;
    let mut log: Vec<LogMsg> = engine
        .iter()
        .map(|msg| RsmMsg::Inner {
            height,
            msg: msg.clone(),
        })
        .collect();
    log.push(RsmMsg::Commit {
        height,
        value: 5,
        id,
        next: u64::MAX,
    });
    let stack: Vec<StackMsg> = detector
        .iter()
        .map(|m| Either::L(m.clone()))
        .chain(log.iter().map(|m| Either::R(m.clone())))
        .collect();
    [cases(&detector), cases(&engine), cases(&log), cases(&stack)].concat()
}

fn queue_bytes() -> Vec<u8> {
    wire::to_bytes(&WorkloadConfig::default().queues(3)[2])
}

/// Decodes `bytes` as `T`: the call returning at all is the property;
/// a value that does come out must encode to a string that decodes.
fn survives<T: Persist>(bytes: &[u8]) -> bool {
    match wire::from_bytes::<T>(bytes) {
        Ok(value) => {
            let again = wire::to_bytes(&value);
            assert!(wire::from_bytes::<T>(&again).is_ok());
            true
        }
        Err(_) => false,
    }
}

#[test]
fn every_truncation_of_a_valid_encoding_is_an_error() {
    let snapshot = small_snapshot_bytes();
    assert!(survives::<DetectorSnapshot>(&snapshot));
    for cut in 0..snapshot.len() {
        assert!(!survives::<DetectorSnapshot>(&snapshot[..cut]), "cut {cut}");
    }
    for (message, decodes) in message_cases() {
        assert!(decodes(&message));
        for cut in 0..message.len() {
            assert!(!decodes(&message[..cut]), "cut {cut} of {message:?}");
        }
    }
    let queue = queue_bytes();
    assert!(survives::<CommandQueue>(&queue));
    for cut in 0..queue.len() {
        assert!(!survives::<CommandQueue>(&queue[..cut]), "cut {cut}");
    }
}

/// `read_verified` on a file holding `bytes`.
fn read_file_of(bytes: &[u8], tag: &str) -> bool {
    let dir = std::env::temp_dir().join(format!("hsnp-hostile-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("hostile.ck");
    std::fs::write(&path, bytes).expect("write");
    let read = read_verified(&path, 7);
    let _ = std::fs::remove_dir_all(&dir);
    matches!(read, Ok(Some(_)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        survives::<DetectorSnapshot>(&bytes);
        survives::<EvtHpMsg>(&bytes);
        survives::<ByzMsg>(&bytes);
        survives::<LogMsg>(&bytes);
        survives::<StackMsg>(&bytes);
        survives::<CommandQueue>(&bytes);
        let _ = decode_container(&bytes, 7);
        // Behind a well-formed header too, so the length and checksum
        // rules see arbitrary payloads, not only a bad magic.
        let mut framed = encode_container(7, &bytes);
        prop_assert!(decode_container(&framed, 7).is_ok());
        if let Some(last) = framed.last_mut() {
            *last ^= 0x01;
            prop_assert!(decode_container(&framed, 7).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// One drawn mask, applied at every offset in turn: about half the
    /// mutants of a snapshot still decode (a different clock, a
    /// different count), the rest are typed errors.
    #[test]
    fn single_byte_mutations_never_panic_a_decoder(flip in 1u8..=255) {
        fn each_mutant(bytes: &[u8], flip: u8, mut check: impl FnMut(&[u8])) {
            let mut mutant = bytes.to_vec();
            for at in 0..bytes.len() {
                mutant[at] ^= flip;
                check(&mutant);
                mutant[at] ^= flip;
            }
        }
        each_mutant(&small_snapshot_bytes(), flip, |b| {
            survives::<DetectorSnapshot>(b);
        });
        for (message, decodes) in message_cases() {
            each_mutant(&message, flip, |b| {
                decodes(b);
            });
        }
        each_mutant(&queue_bytes(), flip, |b| {
            survives::<CommandQueue>(b);
        });
        // The container's checksum and header rules see every flip.
        let mut undetected = 0;
        each_mutant(&encode_container(7, &queue_bytes()), flip, |b| {
            undetected += usize::from(decode_container(b, 7).is_ok());
        });
        prop_assert_eq!(undetected, 0);
    }
}

#[test]
fn read_verified_returns_typed_errors_on_hostile_files() {
    let framed = encode_container(7, &queue_bytes());
    assert!(read_file_of(&framed, "whole"));
    for cut in 0..framed.len() {
        assert!(!read_file_of(&framed[..cut], "cut"), "cut {cut}");
    }
    for at in 0..framed.len() {
        let mut bad = framed.clone();
        bad[at] ^= 0x10;
        assert!(!read_file_of(&bad, "flip"), "flip at {at}");
    }
    assert!(!read_file_of(b"HSNP", "magic-only"));
    assert!(!read_file_of(&[0xff; 64], "noise"));
}
