//! The kill-tolerant sweep driver: a falsification sweep that
//! checkpoints its progress to disk and resumes mid-sweep after a crash
//! (or SIGKILL) with a final report **identical** to an uninterrupted
//! run.
//!
//! # Why run-granularity checkpointing is sound
//!
//! Every run in a sweep is a pure function of `(SweepConfig, seed)`:
//! the engines are deterministic, the scenario generators are pure, and
//! the sweep's plan expands the run list deterministically.
//! The unit of checkpointing is therefore the **scenario group** — one
//! base scenario plus its shared-prefix variants, exactly the unit the
//! forked executor fans out — and a checkpoint needs to record nothing
//! but each finished group's outcomes. Completed groups are segment
//! files; the pending frontier is *derived* (every group without a good
//! segment); report accumulators and RNG positions need no persistence
//! at all because they are recomputed from outcomes and re-derived from
//! seeds. Less state on disk means less state to corrupt.
//!
//! # Layout
//!
//! ```text
//! <dir>/manifest.ck      fingerprint + group count  (schema MANIFEST_SCHEMA)
//! <dir>/seg-000042.ck    Vec<RunOutcome> of group 42 (schema SEGMENT_SCHEMA)
//! ```
//!
//! All files go through the [`homonym_sim::store`] container: magic,
//! format/schema versions, length, FNV-1a checksum, atomic
//! temp-file + fsync + rename writes.
//!
//! # Corruption contract
//!
//! A segment that is missing, truncated, bit-flipped or undecodable is
//! **not** an error: its group is simply re-executed (the affected
//! subtree, nothing else) and the segment rewritten. Only two failures
//! surface to the operator: real I/O errors, and a manifest whose
//! fingerprint or schema version disagrees with this binary and
//! configuration — resuming *that* silently would mix outcomes of
//! different sweeps into one report.

use std::path::{Path, PathBuf};

use homonym_core::wire;
use homonym_sim::{read_verified, write_atomic, StoreError};

use crate::sweep::{aggregate, run_groups, RunOutcome, SweepConfig, SweepReport};

/// Payload schema of `manifest.ck`. Bump when the manifest layout or
/// the meaning of a segment changes.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Payload schema of `seg-*.ck` files ([`Vec`] of run outcomes). Bump
/// whenever `RunOutcome`'s wire encoding changes.
pub const SEGMENT_SCHEMA: u32 = 1;

/// Where a sweep checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint directory (created if absent).
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// Checkpoints into `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig { dir: dir.into() }
    }
}

/// What a checkpointed sweep did, alongside its report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Scenario groups the sweep comprises.
    pub groups_total: u64,
    /// Groups whose outcomes were loaded from a verified segment file.
    pub groups_resumed: u64,
    /// Groups executed in this invocation (first run or re-execution).
    pub groups_executed: u64,
    /// Segment files that existed but failed verification — their
    /// groups were re-executed, counted under `groups_executed` too.
    pub corrupt_segments: u64,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.ck")
}

fn segment_path(dir: &Path, group: usize) -> PathBuf {
    dir.join(format!("seg-{group:06}.ck"))
}

/// Verifies (or writes) the manifest: fingerprint + group count.
///
/// A verified-but-mismatched manifest is an operator error — the
/// checkpoint directory belongs to a different sweep. A missing or
/// corrupt manifest invalidates every segment (there is no proof they
/// belong to this configuration), so the directory is treated as fresh
/// and the manifest rewritten.
fn check_manifest(cfg: &SweepConfig, dir: &Path) -> Result<(), StoreError> {
    let fingerprint = cfg.fingerprint();
    let groups = cfg.scenarios as u64;
    let path = manifest_path(dir);
    match read_verified(&path, MANIFEST_SCHEMA) {
        Ok(Some(payload)) => {
            let (found_fp, found_groups): (u64, u64) =
                wire::from_bytes(&payload).map_err(StoreError::Decode)?;
            if found_fp != fingerprint || found_groups != groups {
                return Err(StoreError::ConfigMismatch {
                    found: found_fp,
                    expected: fingerprint,
                });
            }
            return Ok(());
        }
        Err(e) if !e.is_corruption() => return Err(e),
        Ok(None) | Err(_) => {}
    }
    for g in 0..cfg.scenarios {
        let _ = std::fs::remove_file(segment_path(dir, g));
    }
    write_atomic(
        &path,
        MANIFEST_SCHEMA,
        &wire::to_bytes(&(fingerprint, groups)),
    )
}

/// Runs the falsification sweep with durable checkpoints: each scenario
/// group's outcomes are written to `<dir>/seg-<group>.ck` the moment
/// the group finishes (atomically — a kill leaves whole segments or
/// nothing), and groups whose segment already verifies are **not**
/// re-executed. Killing the process at any instant and calling this
/// again with the same `cfg` and `ck` finishes the remaining groups
/// and returns the identical report an uninterrupted
/// [`falsification_sweep_forked`](crate::sweep::falsification_sweep_forked)
/// call produces.
///
/// # Errors
///
/// [`StoreError::Io`] on real filesystem failures,
/// [`StoreError::ConfigMismatch`] when the directory's manifest was
/// written by a different sweep configuration, and
/// [`StoreError::SchemaVersion`] / [`StoreError::FormatVersion`] when
/// the **manifest** itself predates this binary — corrupt or stale
/// segments never error (see the module docs).
///
/// # Panics
///
/// Panics if the config names no families or a generated scenario
/// fails to validate (a generator bug), like the other executors.
pub fn checkpointed_falsification_sweep(
    cfg: &SweepConfig,
    ck: &CheckpointConfig,
) -> Result<(SweepReport, ResumeStats), StoreError> {
    std::fs::create_dir_all(&ck.dir)?;
    check_manifest(cfg, &ck.dir)?;

    let variants = cfg.variants.max(1);
    let mut stats = ResumeStats {
        groups_total: cfg.scenarios as u64,
        ..ResumeStats::default()
    };

    // Resume pass: claim every group with a verified segment. Corrupt
    // segments are deleted here (their groups re-execute below);
    // `take`-style single consumption does not apply — a segment is
    // re-read by every later resume, so files stay in place.
    let mut outcomes: Vec<Option<Vec<RunOutcome>>> = Vec::with_capacity(cfg.scenarios);
    for g in 0..cfg.scenarios {
        let path = segment_path(&ck.dir, g);
        let loaded = match read_verified(&path, SEGMENT_SCHEMA) {
            Ok(Some(payload)) => match wire::from_bytes::<Vec<RunOutcome>>(&payload) {
                Ok(seg) if seg.len() == variants => {
                    stats.groups_resumed += 1;
                    Some(seg)
                }
                // Wrong cardinality or undecodable: corrupt-shaped.
                _ => {
                    stats.corrupt_segments += 1;
                    let _ = std::fs::remove_file(&path);
                    None
                }
            },
            Ok(None) => None,
            // Corrupt or **stale** (older schema/format) segments are
            // both re-execute-shaped: an old segment describes runs of
            // an old binary, and the manifest (strict) already proved
            // the directory belongs to this configuration.
            Err(e)
                if e.is_corruption()
                    || matches!(
                        e,
                        StoreError::SchemaVersion { .. } | StoreError::FormatVersion { .. }
                    ) =>
            {
                stats.corrupt_segments += 1;
                let _ = std::fs::remove_file(&path);
                None
            }
            Err(e) => return Err(e),
        };
        outcomes.push(loaded);
    }

    // Execution pass: the derived frontier, fanned out across workers
    // exactly like the forked executor, each group checkpointed the
    // moment it finishes.
    let pending: Vec<usize> = (0..cfg.scenarios)
        .filter(|&g| outcomes[g].is_none())
        .collect();
    stats.groups_executed = pending.len() as u64;
    let executed = run_groups(cfg, &pending, |g, seg| {
        write_atomic(
            &segment_path(&ck.dir, g),
            SEGMENT_SCHEMA,
            &wire::to_bytes(&seg),
        )?;
        Ok::<_, StoreError>((g, seg))
    });
    for result in executed {
        let (g, seg) = result?;
        outcomes[g] = Some(seg);
    }

    // Fold in group order — the same order the one-shot executors use,
    // so the report is identical run for run.
    let all = outcomes
        .into_iter()
        .flat_map(|seg| seg.expect("every group resumed or executed"));
    Ok((aggregate(all), stats))
}
