//! The durable checkpoint store: atomic, checksummed, versioned files.
//!
//! Every checkpoint artifact in the workspace — engine snapshots, sweep
//! segments, sweep manifests — goes through this one container format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HSNP"
//! 4       4     format version (u32 LE) — this header and the wire codec
//! 8       4     schema version (u32 LE) — the payload's logical schema
//! 12      8     payload length (u64 LE)
//! 20      8     FNV-1a 64 checksum of the payload (u64 LE)
//! 28      n     payload (a `homonym_core::wire` encoding)
//! ```
//!
//! # Atomicity
//!
//! [`write_atomic`] stages the bytes in a sibling temp file, `fsync`s
//! it, renames it over the destination, and `fsync`s the directory. A
//! SIGKILL at any instant leaves either the old file, the new file, or
//! a stray temp file that readers never look at — never a torn
//! checkpoint.
//!
//! # Corruption is an absence, not an abort
//!
//! Every read path returns `Result<Option<_>>`-shaped outcomes through
//! [`StoreError`]: a missing file, a bad magic, a failed checksum and a
//! truncated payload are all *recoverable* conditions the caller
//! answers by re-executing the work the file covered. Only a
//! schema/format version mismatch on a *manifest* is surfaced to the
//! operator (resuming under a different binary's layout must fail
//! loudly, not silently re-run).

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use homonym_core::wire::WireError;

/// Version of the container: this header's layout and the primitive
/// encodings of the `homonym_core::wire` codec every payload is written
/// in (bump on any change to either). 1 was fixed-width integers and
/// `Arc` payloads by value; 2 is varints and `Arc`s through the alias
/// table. No reader for an older version is kept — checkpoints are a
/// sweep's scratch state — so an older file is refused as
/// [`StoreError::FormatVersion`], never misread as corruption.
pub const FORMAT_VERSION: u32 = 2;

/// The magic leading every checkpoint file.
pub const MAGIC: [u8; 4] = *b"HSNP";

/// Header bytes before the payload.
const HEADER_LEN: usize = 28;

/// Why a checkpoint file could not be used.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The file is shorter than its header claims (torn write on a
    /// non-atomic filesystem, or deliberate truncation).
    Truncated {
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        found: usize,
    },
    /// The payload hash does not match the header checksum (bit rot or
    /// tampering).
    ChecksumMismatch,
    /// The container layout version differs from this binary's.
    FormatVersion {
        /// Version found in the file.
        found: u32,
        /// Version this binary writes.
        expected: u32,
    },
    /// The payload schema version differs from what the caller expects.
    SchemaVersion {
        /// Version found in the file.
        found: u32,
        /// Version the caller expects.
        expected: u32,
    },
    /// The payload failed to decode despite a matching checksum — a
    /// writer bug or a hash collision; treated like corruption.
    Decode(WireError),
    /// A manifest decoded fine but fingerprints a different
    /// configuration — the checkpoint directory belongs to another
    /// sweep, and resuming from it would silently mix their outcomes.
    ConfigMismatch {
        /// Fingerprint recorded in the manifest.
        found: u64,
        /// Fingerprint of the configuration trying to resume.
        expected: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            StoreError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            StoreError::Truncated { expected, found } => write!(
                f,
                "checkpoint truncated: header promises {expected} payload bytes, {found} present"
            ),
            StoreError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            StoreError::FormatVersion { found, expected } => write!(
                f,
                "checkpoint container version {found} is not this binary's version {expected}; \
                 re-run without --resume (or clear the checkpoint directory) to start fresh"
            ),
            StoreError::SchemaVersion { found, expected } => write!(
                f,
                "checkpoint schema version {found} is not this binary's version {expected}; \
                 re-run without --resume (or clear the checkpoint directory) to start fresh"
            ),
            StoreError::Decode(e) => write!(f, "checkpoint payload failed to decode: {e}"),
            StoreError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint directory belongs to a different sweep configuration \
                 (manifest fingerprint {found:#018x}, this run's {expected:#018x}); \
                 point the checkpoint at a fresh directory or clear this one"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Whether the error means "this file's covered work should be
    /// re-executed" (corruption-shaped) rather than "the operator must
    /// intervene" (version-shaped or I/O-shaped).
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::BadMagic
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch
                | StoreError::Decode(_)
        )
    }
}

/// FNV-1a 64 over `bytes` — the checkpoint checksum and the config
/// fingerprint hash. Not cryptographic; it guards against bit rot and
/// torn writes, not adversaries with filesystem access.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames `payload` in the container format under `schema`.
#[must_use]
pub fn encode_container(schema: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&schema.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unframes a container, verifying magic, versions, length and
/// checksum, and returns the payload slice.
///
/// # Errors
///
/// Any [`StoreError`] the header or checksum rules reject.
pub fn decode_container(bytes: &[u8], schema: u32) -> Result<&[u8], StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN,
            found: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let format = word(4);
    if format != FORMAT_VERSION {
        return Err(StoreError::FormatVersion {
            found: format,
            expected: FORMAT_VERSION,
        });
    }
    let found_schema = word(8);
    if found_schema != schema {
        return Err(StoreError::SchemaVersion {
            found: found_schema,
            expected: schema,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let len = usize::try_from(len).map_err(|_| StoreError::Truncated {
        expected: usize::MAX,
        found: bytes.len() - HEADER_LEN,
    })?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != len {
        return Err(StoreError::Truncated {
            expected: len,
            found: payload.len(),
        });
    }
    let sum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if fnv1a(payload) != sum {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Writes `payload` (framed under `schema`) to `path` atomically: temp
/// file in the same directory, `fsync`, rename, directory `fsync`.
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure, the last step's
/// included: a rename whose directory entry was not made durable may not
/// survive a crash, so a parent directory that cannot be opened or
/// `fsync`ed fails the write. (No test provokes that failure — there is
/// no portable way to make a directory that accepts a rename refuse an
/// `fsync`.)
pub fn write_atomic(path: &Path, schema: u32, payload: &[u8]) -> Result<(), StoreError> {
    let framed = encode_container(schema, payload);
    let dir = path
        .parent()
        .ok_or_else(|| StoreError::Io(std::io::Error::other("checkpoint path has no parent")))?;
    // A bare file name's parent is the empty path: the working directory.
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself; without this a crash can resurrect
    // the old directory entry.
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads and verifies a checkpoint file; `Ok(None)` when the file does
/// not exist (a checkpoint never written is not an error).
///
/// # Errors
///
/// Any verification failure from [`decode_container`], or
/// [`StoreError::Io`] on filesystem failures other than not-found.
pub fn read_verified(path: &Path, schema: u32) -> Result<Option<Vec<u8>>, StoreError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let payload = decode_container(&bytes, schema)?;
    Ok(Some(payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("homonym-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn container_roundtrips() {
        let payload = b"some snapshot bytes";
        let framed = encode_container(9, payload);
        assert_eq!(decode_container(&framed, 9).unwrap(), payload);
    }

    #[test]
    fn every_corruption_mode_is_detected() {
        let framed = encode_container(3, b"payload payload payload");
        // Bit flip anywhere — header or payload — must be rejected.
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_container(&bad, 3).is_err(),
                "bit flip at {i} went undetected"
            );
        }
        // Truncation at every boundary.
        for cut in 0..framed.len() {
            assert!(matches!(
                decode_container(&framed[..cut], 3),
                Err(StoreError::Truncated { .. } | StoreError::ChecksumMismatch)
            ));
        }
        // Stale schema.
        assert!(matches!(
            decode_container(&framed, 4),
            Err(StoreError::SchemaVersion {
                found: 3,
                expected: 4
            })
        ));
    }

    #[test]
    fn version_errors_are_operator_shaped_corruption_is_not() {
        let framed = encode_container(1, b"x");
        let schema_err = decode_container(&framed, 2).unwrap_err();
        assert!(!schema_err.is_corruption());
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(decode_container(&flipped, 1).unwrap_err().is_corruption());
    }

    /// A file the previous container version wrote — fixed-width
    /// integers, `Arc`s by value — is well-formed in every other
    /// respect: it must be refused for its version, loudly, and never
    /// taken for corruption (which a sweep answers by silently
    /// re-executing) or handed to the decoder.
    #[test]
    fn a_version_1_container_is_refused_as_a_version_mismatch() {
        let payload = 7u64.to_le_bytes();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&9u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        let dir = tmpdir("v1");
        let path = dir.join("old.ck");
        fs::write(&path, &v1).unwrap();
        let err = read_verified(&path, 9).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::FormatVersion {
                    found: 1,
                    expected: FORMAT_VERSION
                }
            ),
            "{err}"
        );
        assert!(!err.is_corruption());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = tmpdir("atomic");
        let path = dir.join("snap.ck");
        write_atomic(&path, 7, b"hello").unwrap();
        assert_eq!(read_verified(&path, 7).unwrap().unwrap(), b"hello");
        // Overwrite goes through the same path.
        write_atomic(&path, 7, b"world").unwrap();
        assert_eq!(read_verified(&path, 7).unwrap().unwrap(), b"world");
        // No temp litter.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_none_not_error() {
        let dir = tmpdir("missing");
        assert!(read_verified(&dir.join("nope.ck"), 1).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
