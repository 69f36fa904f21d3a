//! The contiguous, mmap-able on-disk layout of the sharded TypeSpace
//! index, and the zero-copy view that queries it without
//! deserialization.
//!
//! # Layout (all integers and floats little-endian)
//!
//! ```text
//! offset  size          field
//! 0       8             magic "TYPSPIDX"
//! 8       4             format version (u32, currently 1)
//! 12      4             dim (u32)
//! 16      4             shards (u32)
//! 20      4             trees (u32, total across shards)
//! 24      4             leaf_size (u32)
//! 28      4             search_k (u32)
//! 32      8             points (u64)
//! 40      8             build seed (u64)
//! 48      8             rebuild_threshold (u64)
//! 56      8             points_off (u64; == 104 + shards·24)
//! 64      8             types_off (u64)
//! 72      8             payload_len (u64, whole payload)
//! 80      8             file_id (u64: CRC-64/XZ of payload[104..])
//! 88      8             reserved (0)
//! 96      8             header_crc (u64: CRC-64/XZ of payload[0..96])
//! 104     shards·24     shard table: per shard { off u64, len u64, crc u64 }
//! ...     points·dim·4  point block (row-major f32; 8-byte aligned)
//! ...     Σ len         per-shard tree blocks (u32 words, 4-byte aligned)
//! ...     rest          type table: count u32, then per distinct type
//!                       { len u32, utf-8 bytes, pad to 4 }, then
//!                       points·u32 type ids
//! ```
//!
//! A shard's tree block is a flat `u32` word stream, offsets relative
//! to the block start: `word 0` = root count `R`, words `1..=R` = root
//! offsets, then nodes. A node starting at word `o` is a leaf when
//! `word[o]` is even (`word[o] >> 1` point ids follow) and a split when
//! odd (`left off, right off, threshold bits, dim direction bits`
//! follow). Children are emitted before parents (the builder pushes
//! post-order), so the writer needs no fix-ups.
//!
//! # Integrity and forward compatibility
//!
//! The header is self-checksummed (`header_crc`); `file_id` checksums
//! everything after the header and doubles as the index's identity —
//! the model artifact stores it to pair with the sidecar file. Each
//! shard block carries its own CRC so [`SpaceIndex::verify`] can
//! localize corruption. On disk the payload is framed by
//! `atomic_io::write_artifact`, adding the standard footer. Readers
//! must reject any version they do not know — fields are only ever
//! appended by bumping the version, never reinterpreted — and unknown
//! trailing bytes are an error (`payload_len` pins the exact size).
//!
//! Opening a view costs O(header + shard table): no node is touched
//! until a query walks it, and no allocation other than the `Vec` of
//! shard ranges is made. [`SpaceIndex::verify`] is the optional
//! O(payload) corruption sweep — still allocation- and
//! deserialization-free.

use crate::error::SpaceError;
use crate::index::{dot, top_k_into, Hit, PointStore, QueryScratch, SliceRows, TreeNode};
use crate::shard::{build_shards, ShardTrees, SpaceConfig};
use crate::RpForestConfig;
use std::sync::Arc;
use typilus_nn::WorkerPool;

/// First 8 payload bytes of a TypeSpace index.
pub const SPACE_MAGIC: &[u8; 8] = b"TYPSPIDX";
/// On-disk format version this build writes and reads.
pub const SPACE_VERSION: u32 = 1;
/// Fixed header size in bytes (8-byte aligned so the following
/// sections inherit the buffer's alignment).
pub const SPACE_HEADER_LEN: usize = 104;

const SHARD_ENTRY_LEN: usize = 24;
const HEADER_CRC_OFF: usize = 96;

// CRC-64/XZ (reflected ECMA-182 polynomial), the workspace's one
// checksum: `typilus_core::atomic_io` re-exports [`crc64`] for the
// artifact footer, so the index and every other artifact share it.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64/XZ checksum of `bytes`. Detects every single-bit and
/// single-byte error and every burst error up to 64 bits.
// lint: allow(S3) — the lookup index is masked to 8 bits and CRC64_TABLE has 256 entries
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// --- little-endian field access ------------------------------------------

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

fn write_u32(bytes: &mut [u8], off: usize, v: u32) {
    bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn write_u64(bytes: &mut [u8], off: usize, v: u64) {
    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reinterprets 4-aligned bytes as `f32`s.
fn cast_f32s(bytes: &[u8]) -> &[f32] {
    debug_assert_eq!(bytes.len() % 4, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    // SAFETY: the view constructor guarantees the backing buffer is
    // 8-byte aligned and every section offset is a multiple of 4, so
    // `bytes` is 4-aligned; any bit pattern is a valid f32; the
    // lifetime is tied to the borrowed bytes.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) }
}

/// Reinterprets 4-aligned bytes as `u32` words.
fn cast_u32s(bytes: &[u8]) -> &[u32] {
    debug_assert_eq!(bytes.len() % 4, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    // SAFETY: as in `cast_f32s` — alignment is a structural invariant
    // of the view, and any bit pattern is a valid u32.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
}

/// Reinterprets a word subslice as `f32`s (same size and alignment).
fn words_as_f32s(words: &[u32]) -> &[f32] {
    // SAFETY: u32 and f32 have identical size and alignment; any bit
    // pattern is a valid f32.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<f32>(), words.len()) }
}

/// Owned byte buffer guaranteed 8-byte aligned (backed by `Vec<u64>`),
/// so an owned payload supports the same zero-copy casts as a
/// page-aligned mmap.
#[derive(Debug, Clone)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into fresh 8-aligned storage.
    pub fn from_slice(bytes: &[u8]) -> AlignedBytes {
        let mut buf = AlignedBytes {
            words: vec![0u64; bytes.len().div_ceil(8)],
            len: bytes.len(),
        };
        // SAFETY: the u64 buffer owns at least `len` bytes; u8 has no
        // alignment requirement and the write stays in bounds.
        unsafe { std::slice::from_raw_parts_mut(buf.words.as_mut_ptr().cast::<u8>(), buf.len) }
            .copy_from_slice(bytes);
        buf
    }
}

impl AsRef<[u8]> for AlignedBytes {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: the u64 buffer owns at least `len` bytes and u8 has
        // no alignment requirement.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

// --- writer ---------------------------------------------------------------

/// Serializes one shard's trees into its flat word stream.
fn shard_block(shard: &ShardTrees, dim: usize) -> Result<Vec<u8>, SpaceError> {
    let node_words = |node: &TreeNode| match node {
        TreeNode::Leaf { points } => 1 + points.len(),
        TreeNode::Split { .. } => 4 + dim,
    };
    let base = 1 + shard.roots.len();
    let mut offsets: Vec<usize> = Vec::with_capacity(shard.nodes.len());
    let mut off = base;
    for node in &shard.nodes {
        offsets.push(off);
        off += node_words(node);
    }
    if off > u32::MAX as usize {
        return Err(SpaceError::TooLarge {
            what: format!("shard tree block ({off} words)"),
        });
    }
    let mut words: Vec<u32> = Vec::with_capacity(off);
    words.push(shard.roots.len() as u32);
    for &root in &shard.roots {
        words.push(offsets[root] as u32);
    }
    for node in &shard.nodes {
        match node {
            TreeNode::Leaf { points } => {
                // Leaf tag is the count shifted left; bit 0 = 0.
                words.push((points.len() as u32) << 1);
                for &p in points {
                    words.push(p as u32);
                }
            }
            TreeNode::Split {
                direction,
                threshold,
                left,
                right,
            } => {
                words.push(1); // split tag: bit 0 = 1
                words.push(offsets[*left] as u32);
                words.push(offsets[*right] as u32);
                words.push(threshold.to_bits());
                for &d in direction {
                    words.push(d.to_bits());
                }
            }
        }
    }
    debug_assert_eq!(words.len(), off);
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    Ok(bytes)
}

/// Serializes the type table: distinct names (sorted, so the table is
/// canonical) followed by one id per marker.
fn type_block(type_names: &[String]) -> Result<Vec<u8>, SpaceError> {
    let distinct: Vec<&str> = type_names
        .iter()
        .map(String::as_str)
        .collect::<std::collections::BTreeSet<&str>>()
        .into_iter()
        .collect();
    if distinct.len() > u32::MAX as usize {
        return Err(SpaceError::TooLarge {
            what: format!("distinct types ({})", distinct.len()),
        });
    }
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(distinct.len() as u32).to_le_bytes());
    for name in &distinct {
        if name.len() > u32::MAX as usize {
            return Err(SpaceError::TooLarge {
                what: "type name".to_string(),
            });
        }
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        while bytes.len() % 4 != 0 {
            bytes.push(0);
        }
    }
    for name in type_names {
        let id = distinct
            .binary_search(&name.as_str())
            .expect("every marker's type is in the distinct set");
        bytes.extend_from_slice(&(id as u32).to_le_bytes());
    }
    Ok(bytes)
}

/// Builds the complete index payload for `points` (one type name per
/// point). Shards build on `pool` when given; the bytes are identical
/// either way. The payload is what `atomic_io::write_artifact` frames
/// on disk, and what [`SpaceIndex`] views zero-copy. Public so
/// benchmarks and determinism checks can assert byte-identity across
/// thread counts without opening a view.
pub fn build_payload(
    points: &PointStore,
    type_names: &[String],
    config: &SpaceConfig,
    seed: u64,
    pool: Option<&WorkerPool>,
) -> Result<Vec<u8>, SpaceError> {
    if type_names.len() != points.len() {
        return Err(SpaceError::MarkerMismatch {
            index_points: points.len(),
            map_markers: type_names.len(),
        });
    }
    if points.len() > u32::MAX as usize {
        return Err(SpaceError::TooLarge {
            what: format!("points ({})", points.len()),
        });
    }
    if points.dim() > u32::MAX as usize {
        return Err(SpaceError::TooLarge {
            what: format!("dim ({})", points.dim()),
        });
    }
    let config = SpaceConfig {
        shards: config.shards.max(1),
        ..*config
    };
    let shards = build_shards(points, &config, seed, pool);
    let mut blocks = Vec::with_capacity(shards.len());
    for shard in &shards {
        blocks.push(shard_block(shard, points.dim())?);
    }
    let types = type_block(type_names)?;

    let table_off = SPACE_HEADER_LEN;
    let points_off = table_off + shards.len() * SHARD_ENTRY_LEN;
    let points_len = points.len() * points.dim() * 4;
    let mut shard_offs = Vec::with_capacity(blocks.len());
    let mut off = points_off + points_len;
    for block in &blocks {
        shard_offs.push(off);
        off += block.len();
    }
    let types_off = off;
    let payload_len = types_off + types.len();

    let mut payload = vec![0u8; payload_len];
    for (i, &x) in points.data().iter().enumerate() {
        let off = points_off + i * 4;
        payload[off..off + 4].copy_from_slice(&x.to_le_bytes());
    }
    for ((block, &boff), entry) in blocks.iter().zip(&shard_offs).zip(0..) {
        payload[boff..boff + block.len()].copy_from_slice(block);
        let entry_off = table_off + entry * SHARD_ENTRY_LEN;
        write_u64(&mut payload, entry_off, boff as u64);
        write_u64(&mut payload, entry_off + 8, block.len() as u64);
        write_u64(&mut payload, entry_off + 16, crc64(block));
    }
    payload[types_off..].copy_from_slice(&types);

    payload[..8].copy_from_slice(SPACE_MAGIC);
    write_u32(&mut payload, 8, SPACE_VERSION);
    write_u32(&mut payload, 12, points.dim() as u32);
    write_u32(&mut payload, 16, shards.len() as u32);
    write_u32(&mut payload, 20, config.forest.trees as u32);
    write_u32(&mut payload, 24, config.forest.leaf_size as u32);
    write_u32(&mut payload, 28, config.forest.search_k as u32);
    write_u64(&mut payload, 32, points.len() as u64);
    write_u64(&mut payload, 40, seed);
    write_u64(&mut payload, 48, config.rebuild_threshold as u64);
    write_u64(&mut payload, 56, points_off as u64);
    write_u64(&mut payload, 64, types_off as u64);
    write_u64(&mut payload, 72, payload_len as u64);
    let file_id = crc64(&payload[SPACE_HEADER_LEN..]);
    write_u64(&mut payload, 80, file_id);
    write_u64(&mut payload, 88, 0);
    let header_crc = crc64(&payload[..HEADER_CRC_OFF]);
    write_u64(&mut payload, HEADER_CRC_OFF, header_crc);
    Ok(payload)
}

// --- view -----------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ShardRange {
    off: usize,
    len: usize,
    crc: u64,
}

#[derive(Debug, Clone)]
struct Meta {
    dim: usize,
    points: usize,
    config: SpaceConfig,
    seed: u64,
    file_id: u64,
    payload_len: usize,
    points_off: usize,
    types_off: usize,
    shards: Vec<ShardRange>,
}

/// Parses and validates the header + shard table. O(header); touches
/// no point, tree, or type bytes.
fn parse_meta(payload: &[u8]) -> Result<Meta, SpaceError> {
    if payload.len() < SPACE_HEADER_LEN {
        return Err(SpaceError::Truncated {
            expected: SPACE_HEADER_LEN as u64,
            found: payload.len() as u64,
        });
    }
    if &payload[..8] != SPACE_MAGIC {
        return Err(SpaceError::BadMagic);
    }
    let version = read_u32(payload, 8);
    if version != SPACE_VERSION {
        return Err(SpaceError::VersionMismatch {
            found: version,
            expected: SPACE_VERSION,
        });
    }
    let recorded_crc = read_u64(payload, HEADER_CRC_OFF);
    let actual_crc = crc64(&payload[..HEADER_CRC_OFF]);
    if recorded_crc != actual_crc {
        return Err(SpaceError::HeaderCorrupt {
            expected: recorded_crc,
            found: actual_crc,
        });
    }
    let payload_len = read_u64(payload, 72);
    if payload_len != payload.len() as u64 {
        return Err(SpaceError::Truncated {
            expected: payload_len,
            found: payload.len() as u64,
        });
    }
    let dim = read_u32(payload, 12) as usize;
    let shard_count = read_u32(payload, 16) as usize;
    let trees = read_u32(payload, 20) as usize;
    let leaf_size = read_u32(payload, 24) as usize;
    let search_k = read_u32(payload, 28) as usize;
    let points = usize::try_from(read_u64(payload, 32)).map_err(|_| SpaceError::TooLarge {
        what: "points".to_string(),
    })?;
    let seed = read_u64(payload, 40);
    let rebuild_threshold =
        usize::try_from(read_u64(payload, 48)).map_err(|_| SpaceError::TooLarge {
            what: "rebuild_threshold".to_string(),
        })?;
    let points_off = read_u64(payload, 56) as usize;
    let types_off = read_u64(payload, 64) as usize;
    let file_id = read_u64(payload, 80);

    let table_end = SPACE_HEADER_LEN + shard_count * SHARD_ENTRY_LEN;
    let points_len = points
        .checked_mul(dim)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| SpaceError::BadLayout {
            what: "points·dim·4 overflows".to_string(),
        })?;
    let points_end = points_off + points_len;
    if points_off != table_end || !points_off.is_multiple_of(8) || points_end > payload.len() {
        return Err(SpaceError::BadLayout {
            what: format!("point block [{points_off}, {points_end})"),
        });
    }
    if types_off < points_end || types_off > payload.len() || !types_off.is_multiple_of(4) {
        return Err(SpaceError::BadLayout {
            what: format!("type table at {types_off}"),
        });
    }
    let mut shards = Vec::with_capacity(shard_count);
    for s in 0..shard_count {
        let entry = SPACE_HEADER_LEN + s * SHARD_ENTRY_LEN;
        let off = read_u64(payload, entry) as usize;
        let len = read_u64(payload, entry + 8) as usize;
        let crc = read_u64(payload, entry + 16);
        let end = off.checked_add(len).ok_or_else(|| SpaceError::BadLayout {
            what: format!("shard {s} extent overflows"),
        })?;
        if off < points_end || end > types_off || !off.is_multiple_of(4) || !len.is_multiple_of(4) {
            return Err(SpaceError::BadLayout {
                what: format!("shard {s} block [{off}, {end})"),
            });
        }
        shards.push(ShardRange { off, len, crc });
    }
    Ok(Meta {
        dim,
        points,
        config: SpaceConfig {
            shards: shard_count.max(1),
            forest: RpForestConfig {
                trees,
                leaf_size,
                search_k,
            },
            rebuild_threshold,
        },
        seed,
        file_id,
        payload_len: payload_len as usize,
        points_off,
        types_off,
        shards,
    })
}

/// Zero-copy view of an on-disk TypeSpace index.
///
/// Backed by any 8-aligned byte provider — an `AlignedBytes` copy, or
/// a memory map owned by the caller — and shared cheaply via `Arc`, so
/// a cloned `TypeMap` clones the view, not the index. Queries walk the
/// tree blocks and the point block in place: opening the view costs
/// O(header), not O(index).
#[derive(Clone)]
pub struct SpaceIndex {
    bytes: Arc<dyn AsRef<[u8]> + Send + Sync>,
    meta: Meta,
}

impl std::fmt::Debug for SpaceIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceIndex")
            .field("dim", &self.meta.dim)
            .field("points", &self.meta.points)
            .field("shards", &self.meta.shards.len())
            .field("file_id", &format_args!("{:016x}", self.meta.file_id))
            .field("payload_len", &self.meta.payload_len)
            .finish()
    }
}

impl SpaceIndex {
    /// Builds a fresh index over `points` (one type name per point) and
    /// opens it. See [`build_payload`] for determinism guarantees.
    pub fn build(
        points: &PointStore,
        type_names: &[String],
        config: &SpaceConfig,
        seed: u64,
        pool: Option<&WorkerPool>,
    ) -> Result<SpaceIndex, SpaceError> {
        SpaceIndex::from_payload_vec(build_payload(points, type_names, config, seed, pool)?)
    }

    /// Opens a view over a payload copied into aligned owned storage.
    pub fn from_payload(payload: &[u8]) -> Result<SpaceIndex, SpaceError> {
        let len = payload.len();
        SpaceIndex::from_provider(Arc::new(AlignedBytes::from_slice(payload)), len)
    }

    /// Opens a view over an owned payload (one aligned copy).
    pub fn from_payload_vec(payload: Vec<u8>) -> Result<SpaceIndex, SpaceError> {
        SpaceIndex::from_payload(&payload)
    }

    /// Opens a view over the first `payload_len` bytes of `bytes` —
    /// typically a memory map whose tail is the `atomic_io` footer.
    /// O(header): validates magic, version, header checksum, and
    /// section bounds, touching nothing else.
    ///
    /// # Errors
    ///
    /// [`SpaceError::Misaligned`] when the provider's bytes are not
    /// 8-aligned, [`SpaceError::Truncated`]/[`SpaceError::BadMagic`]/
    /// [`SpaceError::VersionMismatch`]/[`SpaceError::HeaderCorrupt`]/
    /// [`SpaceError::BadLayout`] on a malformed header.
    pub fn from_provider(
        bytes: Arc<dyn AsRef<[u8]> + Send + Sync>,
        payload_len: usize,
    ) -> Result<SpaceIndex, SpaceError> {
        let slice: &[u8] = (*bytes).as_ref();
        if slice.len() < payload_len {
            return Err(SpaceError::Truncated {
                expected: payload_len as u64,
                found: slice.len() as u64,
            });
        }
        if !(slice.as_ptr() as usize).is_multiple_of(8) {
            return Err(SpaceError::Misaligned);
        }
        let meta = parse_meta(&slice[..payload_len])?;
        Ok(SpaceIndex { bytes, meta })
    }

    /// The raw payload bytes (header included) — what gets written to
    /// the sidecar file.
    pub fn payload(&self) -> &[u8] {
        &(*self.bytes).as_ref()[..self.meta.payload_len]
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.meta.points
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.meta.points == 0
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.meta.dim
    }

    /// The build seed recorded in the header.
    pub fn seed(&self) -> u64 {
        self.meta.seed
    }

    /// The index's identity: CRC-64 of everything after the header.
    /// The model artifact stores this to pair with its sidecar.
    pub fn file_id(&self) -> u64 {
        self.meta.file_id
    }

    /// The build configuration recorded in the header.
    pub fn config(&self) -> SpaceConfig {
        self.meta.config
    }

    /// Overlay markers tolerated before [`crate::TypeMap`] rebuilds.
    pub fn rebuild_threshold(&self) -> usize {
        self.meta.config.rebuild_threshold
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.meta.shards.len()
    }

    /// Full integrity sweep: recomputes the whole-payload checksum
    /// (`file_id`) and each shard block's CRC. O(payload) but
    /// allocation- and deserialization-free. A view that passes
    /// `verify` cannot make a query read out of bounds.
    pub fn verify(&self) -> Result<(), SpaceError> {
        let payload = self.payload();
        // Per-shard CRCs first: a flip inside a tree block is reported
        // as that shard, not as the whole payload.
        for (s, range) in self.meta.shards.iter().enumerate() {
            let actual = crc64(&payload[range.off..range.off + range.len]);
            if actual != range.crc {
                return Err(SpaceError::SectionCorrupt {
                    section: format!("shard {s}"),
                    expected: range.crc,
                    found: actual,
                });
            }
        }
        // The whole-payload checksum (`file_id`) catches everything
        // else: the point block, the type table, and the shard table
        // entries themselves.
        let body = crc64(&payload[SPACE_HEADER_LEN..]);
        if body != self.meta.file_id {
            return Err(SpaceError::SectionCorrupt {
                section: "payload".to_string(),
                expected: self.meta.file_id,
                found: body,
            });
        }
        Ok(())
    }

    fn point_data(&self) -> &[f32] {
        let m = &self.meta;
        cast_f32s(&self.payload()[m.points_off..m.points_off + m.points * m.dim * 4])
    }

    fn shard_words(&self, s: usize) -> &[u32] {
        let range = self.meta.shards[s];
        cast_u32s(&self.payload()[range.off..range.off + range.len])
    }

    /// The approximate `k` nearest points in ascending distance:
    /// priority search over every shard's trees, examining at least
    /// `search_k` candidate points, then exact L1 ranking.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.query_into(query, k, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`SpaceIndex::query`] straight off the mapped
    /// bytes: priority search over every shard's trees (frontier
    /// ordered by `(margin, insertion seq)`, so the visiting order does
    /// not depend on how nodes are addressed), then exact L1 ranking of
    /// the candidates.
    ///
    /// On an unverified view, corrupt tree bytes can make this panic
    /// on an out-of-bounds word index (memory-safe); run
    /// [`SpaceIndex::verify`] first to rule that out.
    pub fn query_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Hit>,
    ) {
        out.clear();
        let m = &self.meta;
        if m.points == 0 {
            return;
        }
        debug_assert_eq!(query.len(), m.dim);
        scratch.begin(m.points);
        for s in 0..m.shards.len() {
            let words = self.shard_words(s);
            let roots = words[0] as usize;
            for &root in &words[1..1 + roots] {
                scratch.frontier_push(0.0, pack(s as u32, root));
            }
        }
        let search_k = m.config.forest.search_k;
        while let Some(payload) = scratch.frontier_pop() {
            let (s, off) = unpack(payload);
            let words = self.shard_words(s as usize);
            let off = off as usize;
            let tag = words[off];
            if tag & 1 == 0 {
                let count = (tag >> 1) as usize;
                for &p in &words[off + 1..off + 1 + count] {
                    if scratch.mark_new(p as usize) {
                        scratch.candidates.push(p);
                    }
                }
                if scratch.candidates.len() >= search_k {
                    break;
                }
            } else {
                let left = words[off + 1];
                let right = words[off + 2];
                let threshold = f32::from_bits(words[off + 3]);
                let direction = words_as_f32s(&words[off + 4..off + 4 + m.dim]);
                let margin = dot(query, direction) - threshold;
                let (near, far) = if margin < 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                scratch.frontier_push(0.0, pack(s, near));
                scratch.frontier_push(margin.abs(), pack(s, far));
            }
        }
        let rows = SliceRows {
            data: self.point_data(),
            dim: m.dim,
        };
        let QueryScratch {
            heap, candidates, ..
        } = scratch;
        top_k_into(
            &rows,
            candidates.iter().map(|&c| c as usize),
            query,
            k,
            heap,
            out,
        );
    }

    /// Decodes the type table: the distinct type names and one id per
    /// marker. Allocates — meant for tooling (`typilus index --info`)
    /// and tests, not the query path.
    pub fn type_table(&self) -> Result<(Vec<String>, Vec<u32>), SpaceError> {
        let payload = self.payload();
        let m = &self.meta;
        let bad = |what: &str| SpaceError::BadLayout {
            what: format!("type table: {what}"),
        };
        let mut off = m.types_off;
        let take_u32 = |off: &mut usize| -> Result<u32, SpaceError> {
            if *off + 4 > payload.len() {
                return Err(bad("truncated"));
            }
            let v = read_u32(payload, *off);
            *off += 4;
            Ok(v)
        };
        let count = take_u32(&mut off)? as usize;
        let mut names = Vec::with_capacity(count);
        for _ in 0..count {
            let len = take_u32(&mut off)? as usize;
            if off + len > payload.len() {
                return Err(bad("truncated name"));
            }
            let name = std::str::from_utf8(&payload[off..off + len])
                .map_err(|_| bad("name is not UTF-8"))?;
            names.push(name.to_string());
            off += len;
            off += (4 - off % 4) % 4;
        }
        let mut ids = Vec::with_capacity(m.points);
        for _ in 0..m.points {
            let id = take_u32(&mut off)?;
            if id as usize >= count {
                return Err(bad("type id out of range"));
            }
            ids.push(id);
        }
        if off != payload.len() {
            return Err(bad("trailing bytes"));
        }
        Ok((names, ids))
    }
}

#[inline]
fn pack(shard: u32, word_off: u32) -> u64 {
    (u64::from(shard) << 32) | u64::from(word_off)
}

#[inline]
fn unpack(payload: u64) -> (u32, u32) {
    ((payload >> 32) as u32, payload as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference traversal the view is checked against: the same
    /// priority search as [`SpaceIndex::query_into`], run over the
    /// in-memory tree sets of [`build_shards`] (the ones the writer
    /// serializes) instead of the encoded words. A disagreement puts
    /// the bug in the on-disk encoding or the view's decoding.
    struct Oracle {
        points: PointStore,
        shards: Vec<ShardTrees>,
        search_k: usize,
    }

    impl Oracle {
        fn build(points: PointStore, config: &SpaceConfig, seed: u64) -> Oracle {
            let shards = build_shards(&points, config, seed, None);
            Oracle {
                points,
                shards,
                search_k: config.forest.search_k,
            }
        }

        fn query(&self, query: &[f32], k: usize) -> Vec<Hit> {
            let mut out = Vec::new();
            if self.points.is_empty() {
                return out;
            }
            let mut scratch = QueryScratch::new();
            scratch.begin(self.points.len());
            for (s, shard) in self.shards.iter().enumerate() {
                for &root in &shard.roots {
                    scratch.frontier_push(0.0, pack(s as u32, root as u32));
                }
            }
            while let Some(payload) = scratch.frontier_pop() {
                let (s, node) = unpack(payload);
                match &self.shards[s as usize].nodes[node as usize] {
                    TreeNode::Leaf { points } => {
                        for &p in points {
                            if scratch.mark_new(p) {
                                scratch.candidates.push(p as u32);
                            }
                        }
                        if scratch.candidates.len() >= self.search_k {
                            break;
                        }
                    }
                    TreeNode::Split {
                        direction,
                        threshold,
                        left,
                        right,
                    } => {
                        let margin = dot(query, direction) - *threshold;
                        let (near, far) = if margin < 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        scratch.frontier_push(0.0, pack(s, near as u32));
                        scratch.frontier_push(margin.abs(), pack(s, far as u32));
                    }
                }
            }
            let QueryScratch {
                heap, candidates, ..
            } = &mut scratch;
            top_k_into(
                &self.points,
                candidates.iter().map(|&c| c as usize),
                query,
                k,
                heap,
                &mut out,
            );
            out
        }
    }

    fn fixture_points(n: usize, dim: usize, seed: u64) -> (PointStore, Vec<String>) {
        let mut state = seed | 1;
        let mut points = PointStore::new(dim);
        let mut names = Vec::new();
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 40) as f32 / (1 << 24) as f32 - 0.5
                })
                .collect();
            points.push(&row);
            names.push(format!("T{}", i % 7));
        }
        (points, names)
    }

    #[test]
    fn crc64_matches_atomic_io_known_vector() {
        // CRC-64/XZ of "123456789" — the same vector atomic_io pins.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn build_open_verify_round_trip() {
        let (points, names) = fixture_points(300, 6, 3);
        let config = SpaceConfig {
            shards: 4,
            forest: RpForestConfig {
                trees: 6,
                leaf_size: 8,
                search_k: 64,
            },
            rebuild_threshold: 128,
        };
        let index = SpaceIndex::build(&points, &names, &config, 17, None).unwrap();
        index.verify().unwrap();
        assert_eq!(index.len(), 300);
        assert_eq!(index.dim(), 6);
        assert_eq!(index.shard_count(), 4);
        assert_eq!(index.seed(), 17);
        assert_eq!(index.config(), config);
        let (table, ids) = index.type_table().unwrap();
        assert_eq!(table.len(), 7);
        assert_eq!(ids.len(), 300);
        assert_eq!(table[ids[0] as usize], "T0");
        // Reopening the exact payload gives the same identity.
        let reopened = SpaceIndex::from_payload(index.payload()).unwrap();
        assert_eq!(reopened.file_id(), index.file_id());
    }

    #[test]
    fn disk_query_equals_reference_traversal() {
        let (points, names) = fixture_points(400, 5, 9);
        let config = SpaceConfig {
            shards: 3,
            forest: RpForestConfig {
                trees: 7,
                leaf_size: 8,
                search_k: 96,
            },
            rebuild_threshold: 64,
        };
        let index = SpaceIndex::build(&points, &names, &config, 23, None).unwrap();
        let reference = Oracle::build(points, &config, 23);
        let mut state = 77u64;
        for _ in 0..25 {
            let q: Vec<f32> = (0..5)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 40) as f32 / (1 << 24) as f32 - 0.5
                })
                .collect();
            assert_eq!(index.query(&q, 10), reference.query(&q, 10));
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let points = PointStore::new(4);
        let index = SpaceIndex::build(&points, &[], &SpaceConfig::default(), 1, None).unwrap();
        index.verify().unwrap();
        assert!(index.is_empty());
        assert!(index.query(&[0.0; 4], 5).is_empty());
    }

    #[test]
    fn unaligned_provider_is_rejected() {
        let (points, names) = fixture_points(32, 3, 5);
        let payload = build_payload(&points, &names, &SpaceConfig::default(), 2, None).unwrap();
        // A Vec<u8> offset by one byte cannot be 8-aligned.
        let mut shifted = vec![0u8; payload.len() + 1];
        shifted[1..].copy_from_slice(&payload);
        struct Offset(Vec<u8>);
        impl AsRef<[u8]> for Offset {
            fn as_ref(&self) -> &[u8] {
                &self.0[1..]
            }
        }
        let result = SpaceIndex::from_provider(Arc::new(Offset(shifted)), payload.len());
        // Depending on the allocator the base may happen to make +1
        // aligned — accept either Misaligned or success, never a
        // different error.
        if let Err(e) = result {
            assert_eq!(e, SpaceError::Misaligned);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The zero-copy view returns exactly the hits of the reference
        /// traversal over the same build (same indexes, same distance
        /// bits) for any shard count and seed.
        #[test]
        fn disk_index_query_equals_reference_traversal(
            points in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 4), 2..40),
            query in prop::collection::vec(-1.0f32..1.0, 4),
            seed in 0u64..50,
            shards in 1usize..5,
            k in 1usize..8,
        ) {
            let store = PointStore::from_rows(points);
            let config = SpaceConfig {
                shards,
                forest: RpForestConfig { trees: 5, leaf_size: 4, search_k: 64 },
                rebuild_threshold: 8,
            };
            let names: Vec<String> = (0..store.len()).map(|i| format!("t{}", i % 3)).collect();
            let payload = build_payload(&store, &names, &config, seed, None).expect("build");
            let index = SpaceIndex::from_payload(&payload).expect("open");
            let reference = Oracle::build(store, &config, seed);
            let mut scratch = QueryScratch::new();
            let mut disk_hits = Vec::new();
            index.query_into(&query, k, &mut scratch, &mut disk_hits);
            let mem_hits = reference.query(&query, k);
            prop_assert_eq!(disk_hits.len(), mem_hits.len());
            for (d, m) in disk_hits.iter().zip(&mem_hits) {
                prop_assert_eq!(d.index, m.index);
                prop_assert_eq!(d.distance.to_bits(), m.distance.to_bits());
            }
        }
    }
}
