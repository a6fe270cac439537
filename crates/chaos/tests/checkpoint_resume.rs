//! The crash-safety contract of the checkpointed sweep driver
//! ([`homonym_chaos::checkpoint`]):
//!
//! * killing a sweep at **any** checkpoint boundary and resuming yields
//!   a report identical to the uninterrupted run (proptest over the set
//!   of surviving segments — atomic writes guarantee a kill leaves
//!   exactly some subset of whole segment files);
//! * corrupt segments (bit-flip, SIGKILL-style truncation, stale schema
//!   version) are detected by the container's checksum/version checks
//!   and their groups re-executed, never aborting the sweep;
//! * a checkpoint directory written by a *different* sweep
//!   configuration is refused with a clear error;
//! * a directory whose manifest is missing or corrupt starts fresh: its
//!   segments prove nothing, so none is resumed;
//! * the full Figure-8 and Byzantine-quorum stacks survive an on-disk
//!   snapshot round-trip mid-run (`durable_sync.rs` in
//!   `homonym-detectors` covers Figure 7's `HSigmaStepProcess` on the
//!   synchronous network).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use homonym_chaos::{
    byz_tolerant_node, checkpointed_falsification_sweep, falsification_sweep_forked, fig8_node,
    hps_base, ByzTolerantNode, CheckpointConfig, Fig8Node, StackKind, SweepConfig, SweepReport,
    SEGMENT_SCHEMA,
};
use homonym_core::failure::FailureSchedule;
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::Time;
use homonym_core::wire;
use homonym_sim::engine::{Engine, EngineArena, SimConfig};
use homonym_sim::{read_verified, write_atomic, EngineSnapshot, StoreError};
use proptest::prelude::*;

/// Scenario groups in the shared small sweep.
const GROUPS: usize = 3;

fn small_cfg() -> SweepConfig {
    SweepConfig::new(StackKind::Fig8EvtHp, GROUPS).with_variants(2)
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hsnp-ckpt-{}-{tag}", std::process::id()))
}

fn seg_name(group: usize) -> String {
    format!("seg-{group:06}.ck")
}

/// The uninterrupted report plus the raw files of a **completed**
/// checkpoint directory, computed once and copied per test — every test
/// then simulates its own failure mode on a private copy.
type Golden = (SweepReport, Vec<(String, Vec<u8>)>);

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let cfg = small_cfg();
        let expected = falsification_sweep_forked(&cfg);
        let dir = unique_dir("golden");
        let _ = std::fs::remove_dir_all(&dir);
        let (report, stats) = checkpointed_falsification_sweep(&cfg, &CheckpointConfig::new(&dir))
            .expect("fresh checkpoint directory");
        assert_eq!(report, expected, "checkpointed run == uninterrupted run");
        assert_eq!(stats.groups_total, GROUPS as u64);
        assert_eq!(stats.groups_executed, GROUPS as u64);
        assert_eq!(stats.groups_resumed, 0);
        assert_eq!(stats.corrupt_segments, 0);
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("golden dir") {
            let entry = entry.expect("dir entry");
            if entry.file_type().expect("file type").is_file() {
                files.push((
                    entry.file_name().into_string().expect("utf8 name"),
                    std::fs::read(entry.path()).expect("read file"),
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(files.len(), GROUPS + 1, "manifest + one segment per group");
        (expected, files)
    })
}

/// Materializes a private copy of the completed checkpoint directory.
fn restore_golden(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create checkpoint dir");
    for (name, bytes) in &golden().1 {
        std::fs::write(dir.join(name), bytes).expect("copy golden file");
    }
}

#[test]
fn resuming_a_complete_directory_reruns_nothing() {
    let dir = unique_dir("complete");
    restore_golden(&dir);
    let (report, stats) =
        checkpointed_falsification_sweep(&small_cfg(), &CheckpointConfig::new(&dir))
            .expect("resume");
    assert_eq!(report, golden().0);
    assert_eq!(stats.groups_resumed, GROUPS as u64);
    assert_eq!(stats.groups_executed, 0);
    assert_eq!(stats.corrupt_segments, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A SIGKILL can leave any subset of whole segment files (atomic
    /// writes exclude torn ones — truncation is covered separately
    /// below). Whatever survives, the resume finishes the rest and the
    /// report is identical.
    #[test]
    fn killing_at_any_checkpoint_boundary_resumes_to_the_identical_report(
        mask in 0u32..(1 << GROUPS),
    ) {
        let dir = unique_dir(&format!("kill-{mask}"));
        restore_golden(&dir);
        let mut killed = 0u64;
        for g in 0..GROUPS {
            if mask & (1 << g) != 0 {
                std::fs::remove_file(dir.join(seg_name(g))).expect("segment exists");
                killed += 1;
            }
        }
        let (report, stats) =
            checkpointed_falsification_sweep(&small_cfg(), &CheckpointConfig::new(&dir))
                .expect("resume");
        prop_assert_eq!(&report, &golden().0);
        prop_assert_eq!(stats.groups_resumed, GROUPS as u64 - killed);
        prop_assert_eq!(stats.groups_executed, killed);
        prop_assert_eq!(stats.corrupt_segments, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_and_stale_segments_are_detected_and_reexecuted() {
    let dir = unique_dir("corrupt");
    restore_golden(&dir);

    // Group 0: one payload bit flipped (checksum mismatch).
    let p0 = dir.join(seg_name(0));
    let mut bytes = std::fs::read(&p0).expect("segment 0");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&p0, &bytes).expect("bit-flip segment 0");

    // Group 1: truncated mid-payload (a torn write, were writes not
    // atomic — the reader must still cope).
    let p1 = dir.join(seg_name(1));
    let bytes = std::fs::read(&p1).expect("segment 1");
    std::fs::write(&p1, &bytes[..bytes.len() / 2]).expect("truncate segment 1");

    // Group 2: rewritten under a stale schema version, as an older
    // binary would have left it.
    let p2 = dir.join(seg_name(2));
    let old = std::fs::read(&p2).expect("segment 2");
    write_atomic(&p2, SEGMENT_SCHEMA + 1, &old).expect("stale-schema segment 2");

    let (report, stats) =
        checkpointed_falsification_sweep(&small_cfg(), &CheckpointConfig::new(&dir))
            .expect("corruption must not abort the sweep");
    assert_eq!(report, golden().0, "re-executed groups restore the report");
    assert_eq!(stats.corrupt_segments, 3);
    assert_eq!(stats.groups_resumed, 0);
    assert_eq!(stats.groups_executed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_manifest_invalidates_every_segment() {
    let dir = unique_dir("bad-manifest");
    restore_golden(&dir);
    let path = dir.join("manifest.ck");
    let mut bytes = std::fs::read(&path).expect("manifest");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt manifest");

    // Without a trustworthy manifest the segments prove nothing; the
    // sweep restarts from scratch — and still lands on the same report.
    let (report, stats) =
        checkpointed_falsification_sweep(&small_cfg(), &CheckpointConfig::new(&dir))
            .expect("a corrupt manifest means a fresh start, not an error");
    assert_eq!(report, golden().0);
    assert_eq!(stats.groups_resumed, 0);
    assert_eq!(stats.groups_executed, GROUPS as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory whose manifest is gone proves nothing about its
/// segments either: resuming another sweep there must not claim them.
#[test]
fn a_missing_manifest_resumes_no_other_sweeps_segments() {
    let dir = unique_dir("no-manifest");
    restore_golden(&dir);
    std::fs::remove_file(dir.join("manifest.ck")).expect("manifest exists");
    let mut other = small_cfg();
    other.base_seed += 1;
    let (report, stats) = checkpointed_falsification_sweep(&other, &CheckpointConfig::new(&dir))
        .expect("a missing manifest means a fresh start, not an error");
    assert_eq!(stats.groups_resumed, 0);
    assert_eq!(stats.groups_executed, GROUPS as u64);
    assert_eq!(report, falsification_sweep_forked(&other));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_directory_refuses_a_different_sweep() {
    let dir = unique_dir("mismatch");
    restore_golden(&dir);
    let mut other = small_cfg();
    other.base_seed += 1;
    let err = checkpointed_falsification_sweep(&other, &CheckpointConfig::new(&dir))
        .expect_err("a different sweep must be refused");
    assert!(
        matches!(err, StoreError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got: {err}"
    );
    // The refusal must not have eaten the directory: the original sweep
    // still resumes cleanly.
    let (report, stats) =
        checkpointed_falsification_sweep(&small_cfg(), &CheckpointConfig::new(&dir))
            .expect("original config still resumes");
    assert_eq!(report, golden().0);
    assert_eq!(stats.groups_resumed, GROUPS as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `mk()`-built engines to `deadline` twice: once straight
/// through, once interrupted at `cut` by a snapshot → disk → restore
/// round-trip. Both must land on identical decisions, metrics and
/// clocks.
fn assert_engine_disk_round_trip<P>(tag: &str, cut: u64, deadline: u64, mk: impl Fn() -> Engine<P>)
where
    P: homonym_sim::Process + Clone,
    EngineSnapshot<P>: homonym_core::wire::Persist,
{
    let deadline = Time::from_ticks(deadline);
    let mut base = mk();
    base.run_until_all_correct_decided(deadline);
    let expected = (
        base.now(),
        base.metrics().clone(),
        base.decisions().to_vec(),
    );

    let mut e = mk();
    e.run_until(Time::from_ticks(cut));
    assert!(
        e.decisions().iter().all(Option::is_none),
        "the cut must come before the first decision ({tag})"
    );
    let snap = e.snapshot();
    let dir = unique_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mid.ck");
    write_atomic(&path, 7, &wire::to_bytes(&snap)).expect("atomic write");
    drop(snap);
    let config = e.config().clone();
    drop(e); // the "kill": only the file survives

    let payload = read_verified(&path, 7)
        .expect("verified read")
        .expect("written above");
    let restored: EngineSnapshot<P> = wire::from_bytes(&payload).expect("decode");
    let mut resumed = Engine::resume_in(config, &restored, EngineArena::new());
    resumed.run_until_all_correct_decided(deadline);
    assert_eq!(
        (
            resumed.now(),
            resumed.metrics().clone(),
            resumed.decisions().to_vec()
        ),
        expected,
        "disk round-trip diverged ({tag})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig8_stack_survives_a_disk_round_trip_mid_run() {
    let (n, t) = (4, 1);
    let assign = IdentityAssignment::round_robin(n, 2);
    let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    assert_engine_disk_round_trip::<Fig8Node>("fig8-rt", 10, 30_000, || {
        let sim =
            SimConfig::new(assign.clone(), FailureSchedule::none(n), hps_base()).with_seed(11);
        Engine::new(sim, |p, _| fig8_node(props[p], n, t))
    });
}

#[test]
fn byz_quorum_stack_survives_a_disk_round_trip_mid_run() {
    let n = 4;
    let assign = IdentityAssignment::round_robin(n, 2);
    let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let a = assign.clone();
    // Three message delays of at most 3 ticks decide this run by tick 9.
    assert_engine_disk_round_trip::<ByzTolerantNode>("byz-rt", 4, 30_000, move || {
        let sim = SimConfig::new(a.clone(), FailureSchedule::none(n), hps_base()).with_seed(13);
        Engine::new(sim, |p, _| byz_tolerant_node(props[p], &a))
    });
}
