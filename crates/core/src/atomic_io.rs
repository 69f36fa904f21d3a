//! Atomic, checksummed artifact I/O.
//!
//! Every artifact the system persists (models, training checkpoints,
//! prediction reports, generated corpora) is written through this
//! module, which provides two guarantees:
//!
//! 1. **Atomicity** — bytes go to a same-directory temporary file,
//!    which is fsynced and then renamed over the destination (and the
//!    directory entry is fsynced too). A crash mid-write leaves either
//!    the old artifact or the new one at the destination, never a torn
//!    hybrid; at worst an orphaned `.*.tmp` file remains, which readers
//!    never look at.
//! 2. **Integrity** — checksummed artifacts carry a 24-byte footer
//!    (payload length, CRC-64 of the payload, footer magic) appended
//!    outside the payload. [`read_artifact`] verifies all three before
//!    handing the payload back, so truncation, torn writes that slipped
//!    past the filesystem, and bit-flips surface as typed
//!    [`PersistError`] variants instead of panics or silently wrong
//!    weights.
//!
//! The `typilus-lint` rule **D7** enforces the routing: artifact writes
//! via `std::fs::write`/`File::create` anywhere outside this module are
//! diagnostics.
//!
//! Under the `faults` feature the protocol is instrumented with
//! failpoints (`atomic_io.create`, `atomic_io.write`, `atomic_io.sync`,
//! `atomic_io.rename`) so the test suite can inject I/O errors and
//! short writes at every step; see [`crate::faults`].

use crate::faults::{self, Fault};
use crate::persist::PersistError;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Marks the end of a checksummed artifact file.
const FOOTER_MAGIC: &[u8; 8] = b"TYPCRC64";
/// Footer layout: `payload_len: u64 LE | crc64: u64 LE | FOOTER_MAGIC`.
pub const FOOTER_LEN: usize = 24;

/// CRC-64/XZ checksum of `bytes`: the one implementation, shared with
/// the TypeSpace index format.
pub use typilus_space::crc64;

/// The payload framed with its integrity footer.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + FOOTER_LEN);
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&crc64(payload).to_le_bytes());
    framed.extend_from_slice(FOOTER_MAGIC);
    framed
}

/// Verifies and strips the integrity footer of a checksummed artifact.
///
/// # Errors
///
/// [`PersistError::MissingFooter`] when the file is too short or does
/// not end with the footer magic (torn write that lost the tail, or a
/// pre-footer legacy file); [`PersistError::Truncated`] when the stored
/// payload length disagrees with the actual one;
/// [`PersistError::ChecksumMismatch`] when the payload fails its CRC.
pub fn verify_framed(mut bytes: Vec<u8>) -> Result<Vec<u8>, PersistError> {
    let n = framed_payload_len(&bytes)?;
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[n + 8..n + 16]);
    let stored_crc = u64::from_le_bytes(word);
    let actual = crc64(&bytes[..n]);
    if stored_crc != actual {
        return Err(PersistError::ChecksumMismatch {
            expected: stored_crc,
            found: actual,
        });
    }
    bytes.truncate(n);
    Ok(bytes)
}

/// O(1) footer inspection of a framed artifact: checks the footer
/// magic and the recorded payload length against the actual one, and
/// returns that length — without touching (or checksumming) the
/// payload bytes themselves. This is what lets a memory-mapped
/// artifact open in O(header): the caller locates the payload here
/// and defers integrity to the payload's own internal checksums (the
/// TypeSpace index is fully self-checksummed).
///
/// # Errors
///
/// [`PersistError::MissingFooter`] and [`PersistError::Truncated`], as
/// in [`verify_framed`]; checksum failures are *not* detected here.
pub fn framed_payload_len(bytes: &[u8]) -> Result<usize, PersistError> {
    if bytes.len() < FOOTER_LEN || &bytes[bytes.len() - 8..] != FOOTER_MAGIC {
        return Err(PersistError::MissingFooter);
    }
    let n = bytes.len() - FOOTER_LEN;
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[n..n + 8]);
    let stored_len = u64::from_le_bytes(word);
    if stored_len != n as u64 {
        return Err(PersistError::Truncated {
            expected: stored_len,
            found: n as u64,
        });
    }
    Ok(n)
}

/// Writes `payload` to `path` atomically with an integrity footer.
/// Read it back with [`read_artifact`].
///
/// # Errors
///
/// Propagates filesystem errors from any step of the protocol.
pub fn write_artifact(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), PersistError> {
    write_atomic(path.as_ref(), &frame(payload))?;
    Ok(())
}

/// Reads an artifact written by [`write_artifact`], verifying its
/// integrity footer and returning the bare payload.
///
/// # Errors
///
/// Filesystem errors, plus the typed corruption errors of
/// [`verify_framed`].
pub fn read_artifact(path: impl AsRef<Path>) -> Result<Vec<u8>, PersistError> {
    verify_framed(std::fs::read(path)?)
}

/// Sibling temporary path for the atomic write: `.{name}.tmp` in the
/// same directory (rename is only atomic within a filesystem).
fn tmp_path(path: &Path) -> std::io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("artifact path {} has no file name", path.display()),
        )
    })?;
    Ok(path.with_file_name(format!(".{}.tmp", name.to_string_lossy())))
}

fn injected(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// Writes raw `bytes` to `path` atomically (write-temp → fsync →
/// rename → directory fsync), without an integrity footer. Use for
/// plain-text outputs (generated corpus files, prediction reports)
/// where partial files must never appear but readers expect the bare
/// content.
///
/// # Errors
///
/// Propagates filesystem errors; the destination is left untouched on
/// failure (an orphaned `.{name}.tmp` may remain after a crash).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path)?;
    let result = write_via_tmp(path, &tmp, bytes);
    if result.is_err() {
        // Best-effort cleanup; the destination was never touched.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_via_tmp(path: &Path, tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if matches!(faults::check("atomic_io.create"), Some(Fault::IoError)) {
        return Err(injected("atomic_io.create"));
    }
    let mut file = File::create(tmp)?;
    match faults::check("atomic_io.write") {
        // A short write simulates a torn write the filesystem reported
        // as successful: the protocol completes, and the reader's
        // footer check must catch it.
        Some(Fault::ShortWrite(n)) => file.write_all(&bytes[..n.min(bytes.len())])?,
        Some(Fault::IoError) => return Err(injected("atomic_io.write")),
        Some(other) => other.trigger_panic("atomic_io.write"),
        None => file.write_all(bytes)?,
    }
    if matches!(faults::check("atomic_io.sync"), Some(Fault::IoError)) {
        return Err(injected("atomic_io.sync"));
    }
    file.sync_all()?;
    drop(file);
    if matches!(faults::check("atomic_io.rename"), Some(Fault::IoError)) {
        return Err(injected("atomic_io.rename"));
    }
    std::fs::rename(tmp, path)?;
    // Persist the directory entry so the rename survives a crash. Some
    // filesystems refuse to open directories; that only weakens
    // durability of the *name*, never integrity, so it is best-effort.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ of "123456789" is 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello artifact".to_vec();
        let framed = frame(&payload);
        assert_eq!(framed.len(), payload.len() + FOOTER_LEN);
        assert_eq!(verify_framed(framed).unwrap(), payload);
    }

    #[test]
    fn missing_footer_detected() {
        assert!(matches!(
            verify_framed(b"short".to_vec()),
            Err(PersistError::MissingFooter)
        ));
        // Long enough, but no footer magic.
        assert!(matches!(
            verify_framed(vec![7u8; 64]),
            Err(PersistError::MissingFooter)
        ));
    }

    #[test]
    fn truncation_detected() {
        let framed = frame(b"0123456789");
        // Remove payload bytes but keep a well-formed tail by splicing
        // the footer onto a shorter payload.
        let mut torn = framed[..5].to_vec();
        torn.extend_from_slice(&framed[10..]);
        assert!(matches!(
            verify_framed(torn),
            Err(PersistError::Truncated {
                expected: 10,
                found: 5
            })
        ));
    }

    #[test]
    fn bit_flip_detected() {
        let mut framed = frame(b"stable payload bytes");
        framed[3] ^= 0x40;
        assert!(matches!(
            verify_framed(framed),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let framed = frame(b"integrity");
        for i in 0..framed.len() {
            let mut corrupt = framed.clone();
            corrupt[i] ^= 0xA5;
            assert!(
                verify_framed(corrupt).is_err(),
                "flip at offset {i} went undetected"
            );
        }
    }

    #[test]
    fn write_read_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("typilus_atomic_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        write_artifact(&path, b"payload").unwrap();
        assert_eq!(read_artifact(&path).unwrap(), b"payload");
        // Overwrite is atomic too: the new content fully replaces the old.
        write_artifact(&path, b"second payload").unwrap();
        assert_eq!(read_artifact(&path).unwrap(), b"second payload");
        // No temporary file is left behind.
        assert!(!dir.join(".artifact.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
