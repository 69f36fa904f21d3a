//! Saving and loading trained systems.
//!
//! Artefacts are encoded with the project's binary serde format
//! (`typilus-serbin`) behind a small header with a magic string and a
//! format version, so stale files fail loudly instead of decoding into
//! garbage weights.

use crate::pipeline::TrainedSystem;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use typilus_space::{SpaceError, SpaceIndex};

/// Magic bytes at the start of every artefact file.
const MAGIC: &[u8; 8] = b"TYPILUS\0";
/// Bump when the on-disk layout of [`TrainedSystem`] changes.
/// v2: `TypilusConfig` gained `parallelism`; the type map stores
/// embeddings contiguously.
/// v3: `TypilusConfig` gained `space`; a sharded TypeSpace index is
/// persisted as a `<model>.space` sidecar, the model artifact records
/// only its identity.
const VERSION: u32 = 3;

/// Errors of artefact persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the Typilus magic.
    NotATypilusArtefact,
    /// The file was written by an incompatible version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// Encoding/decoding failure.
    Codec(typilus_serbin::Error),
    /// The file lacks the integrity footer every checksummed artifact
    /// ends with — a torn write lost the tail, or the file predates
    /// the footer.
    MissingFooter,
    /// The footer is intact but the payload is shorter or longer than
    /// the length it records — the file was truncated or spliced.
    Truncated {
        /// Payload length recorded in the footer.
        expected: u64,
        /// Payload length actually present.
        found: u64,
    },
    /// The payload fails its CRC-64 — bit rot or an in-place overwrite.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The TypeSpace index sidecar is malformed or does not belong to
    /// this model.
    Space(SpaceError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::NotATypilusArtefact => write!(f, "not a typilus artefact file"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "artefact version {found}, this build expects {expected}")
            }
            PersistError::Codec(e) => write!(f, "codec error: {e}"),
            PersistError::MissingFooter => {
                write!(
                    f,
                    "missing integrity footer (torn write or pre-checksum file)"
                )
            }
            PersistError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated artefact: footer records {expected} payload bytes, found {found}"
                )
            }
            PersistError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "artefact checksum mismatch: footer records {expected:#018x}, computed {found:#018x}"
                )
            }
            PersistError::Space(e) => write!(f, "type-space index sidecar: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<typilus_serbin::Error> for PersistError {
    fn from(e: typilus_serbin::Error) -> Self {
        PersistError::Codec(e)
    }
}

impl From<SpaceError> for PersistError {
    fn from(e: SpaceError) -> Self {
        PersistError::Space(e)
    }
}

/// The sidecar file holding a model's sharded TypeSpace index payload:
/// `<model path>.space` next to the model.
pub fn space_sidecar_path(model: impl AsRef<Path>) -> PathBuf {
    let mut name = model.as_ref().as_os_str().to_os_string();
    name.push(".space");
    PathBuf::from(name)
}

/// Opens a TypeSpace index sidecar written by [`TrainedSystem::save`]
/// (or `typilus index`) as a zero-copy view.
///
/// The fast path memory-maps the file and validates only the atomic_io
/// footer's magic and length plus the index header — O(header), no
/// deserialization, no payload copy. Where mapping is unavailable the
/// file is read and verified through [`crate::atomic_io::read_artifact`]
/// instead. Either way the view is *not* yet integrity-swept; call
/// [`SpaceIndex::verify`] (as [`TrainedSystem::load`] does) to check
/// the payload's own checksums before trusting query results.
///
/// # Errors
///
/// Filesystem errors, footer errors, and [`PersistError::Space`] for a
/// malformed index header.
pub fn open_space_index(path: impl AsRef<Path>) -> Result<SpaceIndex, PersistError> {
    let path = path.as_ref();
    if let Some(map) = crate::mmap::Mmap::map(path)? {
        let payload_len = crate::atomic_io::framed_payload_len(map.as_ref())?;
        return Ok(SpaceIndex::from_provider(Arc::new(map), payload_len)?);
    }
    let payload = crate::atomic_io::read_artifact(path)?;
    Ok(SpaceIndex::from_payload_vec(payload)?)
}

impl TrainedSystem {
    /// Serialises the system (weights, type map, vocabularies, lattice,
    /// config) to bytes.
    ///
    /// # Errors
    ///
    /// Returns a codec error if encoding fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&typilus_serbin::to_bytes(self)?);
        Ok(out)
    }

    /// Restores a system from bytes produced by [`TrainedSystem::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on wrong magic, wrong version or corrupted payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainedSystem, PersistError> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::NotATypilusArtefact);
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
        let found = u32::from_le_bytes(ver);
        if found != VERSION {
            return Err(PersistError::VersionMismatch {
                found,
                expected: VERSION,
            });
        }
        Ok(typilus_serbin::from_bytes(&bytes[MAGIC.len() + 4..])?)
    }

    /// Saves the system to a file atomically (write-temp → fsync →
    /// rename) with an integrity footer; see [`crate::atomic_io`].
    ///
    /// When the type map carries a sharded TypeSpace index, the index
    /// payload is written first as a `<path>.space` sidecar (also
    /// atomic and footer-framed) and the model artifact records only
    /// its `file_id` — so loading the model never deserializes the
    /// index, and the artifact stays small. A crash between the two
    /// writes leaves a model paired with a mismatched sidecar, which
    /// [`TrainedSystem::load`] detects by id and degrades to exact
    /// search instead of serving a stale index.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and codec errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        if let Some(payload) = self.type_map.space_payload() {
            crate::atomic_io::write_artifact(space_sidecar_path(path), payload)?;
        }
        crate::atomic_io::write_artifact(path, &self.to_bytes()?)
    }

    /// Loads a system from a file saved with [`TrainedSystem::save`],
    /// verifying its integrity footer first.
    ///
    /// If the model references a sharded TypeSpace index, its sidecar
    /// is opened zero-copy (memory-mapped where supported), integrity-
    /// swept with [`SpaceIndex::verify`], and attached. A *missing* or
    /// *mismatched* sidecar is survivable — the map's markers all live
    /// in the model artifact, so the system warns and serves exact
    /// search. A sidecar that is present and paired but *corrupt* is a
    /// hard, typed error: silently dropping to exact search would mask
    /// bit rot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem, corruption (truncation, checksum,
    /// missing footer, index section corruption), format and codec
    /// errors.
    pub fn load(path: impl AsRef<Path>) -> Result<TrainedSystem, PersistError> {
        let path = path.as_ref();
        let bytes = crate::atomic_io::read_artifact(path)?;
        let mut system = TrainedSystem::from_bytes(&bytes)?;
        if system.type_map.expected_file_id().is_some() {
            let sidecar = space_sidecar_path(path);
            match open_space_index(&sidecar) {
                Ok(index) => {
                    if index.file_id() == system.type_map.expected_file_id().unwrap_or(0) {
                        index.verify()?;
                        system.type_map.attach_space_index(index)?;
                    } else {
                        // Warn-once: a long-lived process reloading the
                        // same model must not repeat this on every load.
                        typilus_nn::warn_once(
                            "persist.sidecar-mismatch",
                            &format!(
                                "index sidecar {} belongs to a different build \
                                 of this model; using exact search",
                                sidecar.display()
                            ),
                        );
                    }
                }
                Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    typilus_nn::warn_once(
                        "persist.sidecar-missing",
                        &format!(
                            "index sidecar {} is missing; using exact search",
                            sidecar.display()
                        ),
                    );
                }
                Err(e) => return Err(e),
            }
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::PreparedCorpus;
    use crate::pipeline::{train, TypilusConfig};
    use typilus_corpus::{generate, CorpusConfig};
    use typilus_models::ModelConfig;

    fn tiny_system() -> (TrainedSystem, PreparedCorpus) {
        let corpus = generate(&CorpusConfig {
            files: 8,
            seed: 2,
            ..CorpusConfig::default()
        });
        let data = PreparedCorpus::from_corpus(&corpus, &typilus_graph::GraphConfig::default(), 2);
        let config = TypilusConfig {
            model: ModelConfig {
                dim: 8,
                gnn_steps: 2,
                min_subtoken_count: 1,
                ..ModelConfig::default()
            },
            epochs: 2,
            ..TypilusConfig::default()
        };
        (train(&data, &config), data)
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let (system, data) = tiny_system();
        let bytes = system.to_bytes().expect("encodes");
        let restored = TrainedSystem::from_bytes(&bytes).expect("decodes");
        // Identical predictions on every test file.
        for &idx in &data.split.test {
            let a = system.predict_file(&data, idx);
            let b = restored.predict_file(&data, idx);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name);
                assert_eq!(
                    x.top().map(|t| t.ty.to_string()),
                    y.top().map(|t| t.ty.to_string())
                );
            }
        }
    }

    #[test]
    fn save_load_via_file() {
        let (system, _) = tiny_system();
        let dir = std::env::temp_dir().join("typilus_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.typilus");
        system.save(&path).expect("saves");
        let restored = TrainedSystem::load(&path).expect("loads");
        assert_eq!(restored.type_map.len(), system.type_map.len());
        assert_eq!(restored.config.epochs, system.config.epochs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let err = TrainedSystem::from_bytes(b"NOTMAGIC....").unwrap_err();
        assert!(matches!(err, PersistError::NotATypilusArtefact));
    }

    #[test]
    fn wrong_version_rejected() {
        let (system, _) = tiny_system();
        let mut bytes = system.to_bytes().unwrap();
        bytes[8] = 99; // corrupt the version field
        let err = TrainedSystem::from_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            PersistError::VersionMismatch { found: 99, .. }
        ));
    }

    #[test]
    fn retired_forest_index_is_a_typed_error() {
        let (system, _) = tiny_system();
        assert_eq!(system.type_map.index_kind(), "exact");
        let mut bytes = system.to_bytes().unwrap();
        // The type map's encoding ends with its index's u32 variant tag
        // (0 = exact). Rewrite that tag to 1, the retired forest.
        let map = typilus_serbin::to_bytes(&system.type_map).unwrap();
        let start = bytes
            .windows(map.len())
            .position(|w| w == map.as_slice())
            .expect("the artifact embeds the type map's encoding");
        let tag = start + map.len() - 4;
        assert_eq!(bytes[tag..tag + 4], 0u32.to_le_bytes());
        bytes[tag..tag + 4].copy_from_slice(&1u32.to_le_bytes());
        let err = TrainedSystem::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Codec(_)), "{err}");
        assert!(err.to_string().contains("`typilus index`"), "{err}");
    }

    #[test]
    fn truncated_payload_rejected() {
        let (system, _) = tiny_system();
        let bytes = system.to_bytes().unwrap();
        let err = TrainedSystem::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, PersistError::Codec(_)));
    }
}
