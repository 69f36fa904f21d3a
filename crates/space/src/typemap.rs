//! The adaptive type map `τmap` and kNN type prediction (paper Sec. 4.2).
//!
//! A [`TypeMap`] stores `(type embedding → type)` markers. Prediction for
//! a query embedding finds the `k` nearest markers under L1 and scores
//! candidate types by Eq. 5:
//!
//! `P(s : τ') = 1/Z · Σᵢ I(τᵢ = τ') · dᵢ^{-p}`
//!
//! The map is *adaptive*: binding a marker for a previously unseen type
//! makes it predictable immediately, with no retraining — the paper's
//! one-shot open-vocabulary mechanism.
//!
//! Two index states back the nearest-neighbour search: brute-force
//! [`Index::Exact`] and the sharded zero-copy [`SpaceIndex`] view, the
//! one approximate index (a single shard is a plain forest). The
//! sharded state supports *incremental* insertion: markers added after
//! the build live in a deterministic overlay that is scanned exactly
//! and merged with the view's hits, and once the overlay reaches the
//! configured threshold the index is rebuilt in place from the config
//! and seed its own header records.
//! When a map with a sharded index is serialized, only the index's
//! identity (`file_id`) travels inside the model artifact; the payload
//! itself is persisted as a sidecar file and re-attached on load
//! ([`Index::Detached`] in between).

use crate::disk::SpaceIndex;
use crate::error::SpaceError;
use crate::index::{self, Hit, PointStore, QueryScratch, RpForestConfig};
use crate::shard::SpaceConfig;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use typilus_nn::WorkerPool;
use typilus_types::PyType;

/// A scored candidate type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypePrediction {
    /// The candidate type.
    pub ty: PyType,
    /// Normalised probability from Eq. 5.
    pub probability: f32,
}

/// kNN hyperparameters of Eq. 5 (swept in paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Number of neighbours `k`.
    pub k: usize,
    /// Distance exponent `p` (`p→0`: uniform vote; `p→∞`: 1-NN).
    pub p: f32,
}

impl Default for KnnConfig {
    fn default() -> Self {
        // The sweet spot of the paper's Fig. 6: large k, moderately
        // large p.
        KnnConfig { k: 10, p: 2.0 }
    }
}

impl KnnConfig {
    /// Checks the parameters: `k` must be positive (zero neighbours
    /// would silently predict nothing) and `p` non-negative and finite
    /// (a negative exponent makes Eq. 5 weights *grow* with distance,
    /// inverting the vote).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("knn k must be at least 1 (k = 0 predicts nothing)".to_string());
        }
        if !self.p.is_finite() || self.p < 0.0 {
            return Err(format!(
                "knn exponent p must be finite and non-negative, got {} \
                 (negative p weights far neighbours above near ones)",
                self.p
            ));
        }
        Ok(())
    }

    /// The parameters [`TypeMap::predict`] actually uses: `k` clamped up
    /// to 1, `p` clamped into `[0, ∞)` — so a malformed config degrades
    /// to 1-NN / a uniform vote instead of predicting nothing or
    /// inverting the vote.
    fn effective(self) -> KnnConfig {
        KnnConfig {
            k: self.k.max(1),
            p: if self.p.is_finite() && self.p >= 0.0 {
                self.p
            } else {
                0.0
            },
        }
    }
}

#[derive(Debug, Clone)]
enum Index {
    /// Brute force (always exact, default until an index is built).
    Exact,
    /// Sharded zero-copy view of the on-disk index payload.
    Sharded(SpaceIndex),
    /// A sharded index existed when the map was serialized; only its
    /// identity travelled. Queries fall back to exact search until
    /// [`TypeMap::attach_space_index`] re-attaches the sidecar.
    Detached {
        /// `file_id` of the sidecar payload to attach.
        file_id: u64,
    },
}

/// The serde wire shape of [`Index`]. `Sharded` intentionally has no
/// wire form — the view's payload is persisted out-of-band as a
/// sidecar, and serializing the in-memory variant writes the same
/// `Detached` record (variant index 2) that deserialization reads
/// back.
#[derive(Deserialize)]
enum IndexWire {
    Exact,
    /// Variant index 1 held the retired in-memory forest. It is kept
    /// as a tag only, so artifacts that carry one decode to a typed
    /// error instead of misreading the forest's bytes.
    Forest,
    Detached {
        file_id: u64,
    },
}

/// What loading an artifact with a retired in-memory forest reports.
const RETIRED_FOREST_MESSAGE: &str = "this model stores the retired in-memory RP-forest \
     index; retrain it, then build its index with `typilus index`";

impl Serialize for Index {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStructVariant;
        match self {
            Index::Exact => serializer.serialize_unit_variant("Index", 0, "Exact"),
            Index::Sharded(ix) => {
                let mut sv = serializer.serialize_struct_variant("Index", 2, "Detached", 1)?;
                sv.serialize_field("file_id", &ix.file_id())?;
                sv.end()
            }
            Index::Detached { file_id } => {
                let mut sv = serializer.serialize_struct_variant("Index", 2, "Detached", 1)?;
                sv.serialize_field("file_id", file_id)?;
                sv.end()
            }
        }
    }
}

impl<'de> Deserialize<'de> for Index {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match IndexWire::deserialize(deserializer)? {
            IndexWire::Exact => Ok(Index::Exact),
            IndexWire::Forest => Err(serde::de::Error::custom(RETIRED_FOREST_MESSAGE)),
            IndexWire::Detached { file_id } => Ok(Index::Detached { file_id }),
        }
    }
}

thread_local! {
    /// Per-thread query scratch for [`TypeMap::predict`] — keeps the
    /// serve path allocation-free at steady state without threading a
    /// scratch through every caller.
    static PREDICT_SCRATCH: RefCell<(QueryScratch, Vec<Hit>)> =
        RefCell::new((QueryScratch::new(), Vec::new()));
}

/// The type map: embeddings of symbols with known types, queryable by
/// nearest neighbour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TypeMap {
    dim: usize,
    embeddings: PointStore,
    types: Vec<PyType>,
    index: Index,
}

impl TypeMap {
    /// Creates an empty map for `dim`-dimensional embeddings.
    pub fn new(dim: usize) -> TypeMap {
        TypeMap {
            dim,
            embeddings: PointStore::new(dim),
            types: Vec::new(),
            index: Index::Exact,
        }
    }

    /// Adds a marker binding `embedding ↦ ty`.
    ///
    /// The new marker is queryable immediately in every index state —
    /// this is what makes the map adaptive. A sharded index stays
    /// attached: the marker joins a deterministic overlay that is
    /// scanned exactly and merged into every query, and once the
    /// overlay reaches the index's `rebuild_threshold` (a threshold of
    /// 0 means every insertion) the index is rebuilt in place through
    /// [`TypeMap::rebuild_sharded_index`]. A *detached* map accepts markers too:
    /// they are served through the exact fallback immediately and
    /// count toward the overlay once the sidecar re-attaches
    /// ([`TypeMap::attach_space_index`] merges and rebuilds at the
    /// same threshold), so adds made before attachment are never lost
    /// to the rebuild accounting.
    ///
    /// # Errors
    ///
    /// [`SpaceError::DimensionMismatch`] when the embedding width
    /// differs from the map's dimension; the map is left unchanged, so
    /// a malformed `add-marker` request cannot corrupt (or crash) a
    /// long-lived server.
    pub fn add(&mut self, embedding: Vec<f32>, ty: PyType) -> Result<(), SpaceError> {
        self.embeddings.try_push(&embedding)?;
        self.types.push(ty);
        let rebuild = matches!(&self.index, Index::Sharded(ix)
            if self.embeddings.len() - ix.len() >= ix.rebuild_threshold().max(1));
        if rebuild {
            if let Err(e) = self.rebuild_sharded_index(None, None) {
                // Rebuild failure (e.g. the map outgrew the 32-bit id
                // space) must not lose markers or correctness: degrade
                // to exact search. Warn-once so a busy server hitting
                // this on every add does not flood stderr.
                typilus_nn::warn_once(
                    "space.rebuild",
                    &format!("sharded index rebuild failed ({e}); falling back to exact search"),
                );
                self.index = Index::Exact;
            }
        }
        Ok(())
    }

    /// Number of markers.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Embedding width the map was created with.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The index state backing nearest-neighbour search, as a stable
    /// lowercase name: `"exact"`, `"sharded"` or `"detached"`.
    /// Diagnostic surface for `stats`-style endpoints.
    pub fn index_kind(&self) -> &'static str {
        match &self.index {
            Index::Exact => "exact",
            Index::Sharded(_) => "sharded",
            Index::Detached { .. } => "detached",
        }
    }

    /// Whether the map has no markers.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates over `(embedding, type)` markers.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], &PyType)> {
        self.embeddings.rows().zip(self.types.iter())
    }

    /// Distinct types currently in the map.
    pub fn distinct_types(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for t in &self.types {
            seen.insert(t.to_string());
        }
        seen.len()
    }

    /// Builds a one-shard approximate index serially: shorthand for
    /// [`TypeMap::build_sharded_index`] with `shards: 1`, `config` as
    /// the tree knobs and the default rebuild threshold. A failed build
    /// warns once and leaves exact search in place.
    pub fn build_index(&mut self, config: RpForestConfig, seed: u64) {
        let config = SpaceConfig {
            shards: 1,
            forest: config,
            ..SpaceConfig::default()
        };
        if let Err(e) = self.build_sharded_index(&config, seed, None) {
            typilus_nn::warn_once(
                "space.build",
                &format!("index build failed ({e}); using exact search"),
            );
            self.index = Index::Exact;
        }
    }

    /// Builds the sharded on-disk-format index over the current
    /// markers — in parallel on `pool` when given; the resulting bytes
    /// are identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`SpaceError::TooLarge`] when a count exceeds the 32-bit
    /// on-disk id space.
    pub fn build_sharded_index(
        &mut self,
        config: &SpaceConfig,
        seed: u64,
        pool: Option<&WorkerPool>,
    ) -> Result<(), SpaceError> {
        let names: Vec<String> = self.types.iter().map(|t| t.to_string()).collect();
        let index = SpaceIndex::build(&self.embeddings, &names, config, seed, pool)?;
        self.index = Index::Sharded(index);
        Ok(())
    }

    /// The `(config, seed)` the attached sharded index was built from,
    /// as its header records them. The header is the only source of an
    /// attached index's build parameters.
    pub fn index_params(&self) -> Option<(SpaceConfig, u64)> {
        self.space_index().map(|ix| (ix.config(), ix.seed()))
    }

    /// Rebuilds the sharded index over every marker: the one rebuild
    /// path, shared by the overlay-threshold rebuild in [`TypeMap::add`],
    /// the attach-time merge and the serve daemon's `reindex`. An
    /// attached index is rebuilt from [`TypeMap::index_params`], so a
    /// rebuild with no new marker reproduces it byte for byte. Only a
    /// map with no index attached takes `first`, the `(config, seed)`
    /// of its first build; with neither, the map keeps its search.
    ///
    /// # Errors
    ///
    /// [`SpaceError::TooLarge`] when a count exceeds the 32-bit
    /// on-disk id space; the map keeps its previous index.
    pub fn rebuild_sharded_index(
        &mut self,
        first: Option<(SpaceConfig, u64)>,
        pool: Option<&WorkerPool>,
    ) -> Result<(), SpaceError> {
        match self.index_params().or(first) {
            Some((config, seed)) => self.build_sharded_index(&config, seed, pool),
            None => Ok(()),
        }
    }

    /// The sharded index payload to persist as a sidecar file, if a
    /// sharded index is attached.
    pub fn space_payload(&self) -> Option<&[u8]> {
        match &self.index {
            Index::Sharded(ix) => Some(ix.payload()),
            _ => None,
        }
    }

    /// The identity of the sidecar this map expects attached — set
    /// after deserializing a map that had a sharded index.
    pub fn expected_file_id(&self) -> Option<u64> {
        match &self.index {
            Index::Detached { file_id } => Some(*file_id),
            _ => None,
        }
    }

    /// The attached sharded view, if any.
    pub fn space_index(&self) -> Option<&SpaceIndex> {
        match &self.index {
            Index::Sharded(ix) => Some(ix),
            _ => None,
        }
    }

    /// Markers added since the sharded index was built (scanned
    /// exactly on every query until the next rebuild).
    pub fn overlay_len(&self) -> usize {
        match &self.index {
            Index::Sharded(ix) => self.embeddings.len() - ix.len(),
            _ => 0,
        }
    }

    /// Attaches a loaded sidecar view. When the map is `Detached` the
    /// view's `file_id` must match the recorded identity; in every
    /// case the dimensions must agree and the view may not cover more
    /// markers than the map holds. Markers beyond the view's count —
    /// typically added while the map was detached — become overlay,
    /// and when that overlay already meets the index's rebuild
    /// threshold the index is rebuilt in place over all markers
    /// (*attach-then-merge*): pre-attach adds are counted against the
    /// threshold exactly as post-attach ones, instead of silently
    /// drifting outside the rebuild accounting. A failed merge rebuild
    /// warns once and keeps the attached view — queries stay correct
    /// through the exact overlay scan.
    ///
    /// # Errors
    ///
    /// [`SpaceError::IndexMismatch`], [`SpaceError::DimensionMismatch`]
    /// or [`SpaceError::MarkerMismatch`] when the sidecar does not
    /// belong to this map.
    pub fn attach_space_index(&mut self, index: SpaceIndex) -> Result<(), SpaceError> {
        if let Index::Detached { file_id } = self.index {
            if file_id != index.file_id() {
                return Err(SpaceError::IndexMismatch {
                    expected: file_id,
                    found: index.file_id(),
                });
            }
        }
        if index.dim() != self.dim {
            return Err(SpaceError::DimensionMismatch {
                expected: self.dim,
                found: index.dim(),
            });
        }
        if index.len() > self.embeddings.len() {
            return Err(SpaceError::MarkerMismatch {
                index_points: index.len(),
                map_markers: self.embeddings.len(),
            });
        }
        let overlay = self.embeddings.len() - index.len();
        let merge = overlay >= index.rebuild_threshold().max(1);
        self.index = Index::Sharded(index);
        if merge {
            if let Err(e) = self.rebuild_sharded_index(None, None) {
                typilus_nn::warn_once(
                    "space.rebuild",
                    &format!(
                        "attach-time overlay merge failed ({e}); serving the \
                         attached index with an exact-scanned overlay of {overlay}"
                    ),
                );
            }
        }
        Ok(())
    }

    /// Detaches an attached sharded view down to its identity marker —
    /// the state a deserialized map is in before its sidecar is
    /// attached. No-op in other states.
    pub fn detach_space_index(&mut self) {
        if let Index::Sharded(ix) = &self.index {
            self.index = Index::Detached {
                file_id: ix.file_id(),
            };
        }
    }

    /// The `k` nearest markers in ascending `(distance, index)` order,
    /// written into `out` reusing `scratch` — the allocation-free core
    /// of [`TypeMap::predict`]. With a sharded index attached, overlay
    /// markers are scanned exactly and merged with the view's hits.
    // lint: root(hotpath)
    pub fn nearest_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Hit>,
    ) {
        match &self.index {
            // Brute force straight over the marker store — no per-query
            // copy of the embeddings. A detached map searches exactly
            // too: correct, just not sub-linear, until re-attachment.
            Index::Exact | Index::Detached { .. } => index::top_k_into(
                &self.embeddings,
                0..self.embeddings.len(),
                query,
                k,
                &mut scratch.heap,
                out,
            ),
            Index::Sharded(ix) => {
                ix.query_into(query, k, scratch, out);
                let base = ix.len();
                if base < self.embeddings.len() {
                    let mut aux = std::mem::take(&mut scratch.aux);
                    index::top_k_into(
                        &self.embeddings,
                        base..self.embeddings.len(),
                        query,
                        k,
                        &mut scratch.heap,
                        &mut aux,
                    );
                    out.extend_from_slice(&aux);
                    scratch.aux = aux;
                    out.sort_by(|a, b| {
                        a.distance
                            .total_cmp(&b.distance)
                            .then(a.index.cmp(&b.index))
                    });
                    out.truncate(k);
                }
            }
        }
    }

    /// Predicts a distribution over candidate types for `query` (Eq. 5),
    /// sorted by descending probability. The kNN search runs through a
    /// per-thread reusable scratch, so it allocates nothing at steady
    /// state.
    ///
    /// A query whose width differs from the map's dimension yields no
    /// predictions (serve-reachable code must not panic, lint rule S2).
    pub fn predict(&self, query: &[f32], config: KnnConfig) -> Vec<TypePrediction> {
        if query.len() != self.dim || self.is_empty() {
            return Vec::new();
        }
        let config = config.effective();
        PREDICT_SCRATCH.with(|cell| {
            let mut guard = cell.borrow_mut();
            let (scratch, hits) = &mut *guard;
            self.nearest_into(query, config.k, scratch, hits);
            // Keyed in type-name order so accumulation and the collect
            // below are deterministic (lint rule D1).
            let mut scores: BTreeMap<String, (PyType, f64)> = BTreeMap::new();
            let mut z = 0.0f64;
            for h in hits.iter() {
                // d^{-p} with a floor so exact matches dominate but stay finite.
                let d = f64::from(h.distance).max(1e-6);
                let w = d.powf(f64::from(-config.p));
                // A hit index out of range would mean index/metadata
                // desync; skip it rather than panic (lint rule S3).
                let Some(ty) = self.types.get(h.index) else {
                    continue;
                };
                z += w;
                let e = scores.entry(ty.to_string()).or_insert((ty.clone(), 0.0));
                e.1 += w;
            }
            let mut out: Vec<TypePrediction> = scores
                .into_values()
                .map(|(ty, s)| TypePrediction {
                    ty,
                    probability: (s / z) as f32,
                })
                .collect();
            out.sort_by(|a, b| {
                b.probability
                    .total_cmp(&a.probability)
                    .then_with(|| a.ty.to_string().cmp(&b.ty.to_string()))
            });
            out
        })
    }

    /// The single best prediction, if any.
    pub fn predict_top(&self, query: &[f32], config: KnnConfig) -> Option<TypePrediction> {
        self.predict(query, config).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> PyType {
        s.parse().unwrap()
    }

    fn small_map() -> TypeMap {
        let mut m = TypeMap::new(2);
        m.add(vec![0.0, 0.0], t("int")).unwrap();
        m.add(vec![0.1, 0.1], t("int")).unwrap();
        m.add(vec![1.0, 1.0], t("str")).unwrap();
        m.add(vec![1.1, 0.9], t("str")).unwrap();
        m
    }

    fn filled_map(n: usize) -> TypeMap {
        let mut m = TypeMap::new(4);
        let mut rng_state = 12345u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for i in 0..n {
            let ty = if i % 3 == 0 {
                t("int")
            } else if i % 3 == 1 {
                t("str")
            } else {
                t("List[int]")
            };
            m.add(vec![next(), next(), next(), next()], ty).unwrap();
        }
        m
    }

    #[test]
    fn nearest_type_wins() {
        let m = small_map();
        let cfg = KnnConfig { k: 4, p: 2.0 };
        let top = m.predict_top(&[0.05, 0.0], cfg).unwrap();
        assert_eq!(top.ty, t("int"));
        let top = m.predict_top(&[1.0, 0.95], cfg).unwrap();
        assert_eq!(top.ty, t("str"));
    }

    #[test]
    fn probabilities_normalise() {
        let m = small_map();
        let preds = m.predict(&[0.5, 0.5], KnnConfig { k: 4, p: 1.0 });
        let total: f32 = preds.iter().map(|p| p.probability).sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn high_p_approaches_one_nearest_neighbour() {
        let mut m = TypeMap::new(1);
        m.add(vec![0.0], t("int")).unwrap();
        m.add(vec![0.2], t("str")).unwrap();
        m.add(vec![0.25], t("str")).unwrap();
        // Query nearest to int but str has more (slightly farther) votes.
        let uniform = m.predict_top(&[0.1], KnnConfig { k: 3, p: 0.01 }).unwrap();
        assert_eq!(uniform.ty, t("str"), "p→0 is a majority vote");
        let sharp = m.predict_top(&[0.09], KnnConfig { k: 3, p: 20.0 }).unwrap();
        assert_eq!(sharp.ty, t("int"), "p→∞ is 1-NN");
    }

    #[test]
    fn one_shot_open_vocabulary_adaptation() {
        let mut m = small_map();
        let cfg = KnnConfig::default();
        let novel = t("bungee.Cord");
        // Before binding, the novel type cannot be predicted.
        assert!(m.predict(&[5.0, 5.0], cfg).iter().all(|p| p.ty != novel));
        // One marker suffices: no retraining.
        m.add(vec![5.0, 5.0], novel.clone()).unwrap();
        let top = m.predict_top(&[5.1, 4.9], cfg).unwrap();
        assert_eq!(top.ty, novel);
    }

    #[test]
    fn approximate_index_agrees_with_exact() {
        let mut m = filled_map(300);
        let query = vec![0.1, -0.2, 0.3, 0.0];
        let exact_top = m.predict_top(&query, KnnConfig::default()).unwrap();
        m.build_index(
            RpForestConfig {
                trees: 10,
                leaf_size: 8,
                search_k: 300,
            },
            1,
        );
        assert_eq!(m.space_index().map(SpaceIndex::shard_count), Some(1));
        let approx_top = m.predict_top(&query, KnnConfig::default()).unwrap();
        assert_eq!(exact_top.ty, approx_top.ty);
    }

    #[test]
    fn sharded_index_agrees_with_exact() {
        let mut m = filled_map(300);
        let query = vec![0.1, -0.2, 0.3, 0.0];
        let exact = m.predict(&query, KnnConfig::default());
        m.build_sharded_index(
            &SpaceConfig {
                shards: 4,
                forest: RpForestConfig {
                    trees: 8,
                    leaf_size: 8,
                    search_k: 300,
                },
                rebuild_threshold: 1024,
            },
            1,
            None,
        )
        .unwrap();
        assert!(m.space_index().is_some());
        // search_k >= n makes the sharded search exhaustive, so the
        // predictions must be identical, not merely close.
        assert_eq!(m.predict(&query, KnnConfig::default()), exact);
    }

    #[test]
    fn adding_marker_invalidates_index() {
        let mut m = small_map();
        m.build_index(RpForestConfig::default(), 0);
        m.add(vec![9.0, 9.0], t("bytes")).unwrap();
        assert_eq!(m.overlay_len(), 1, "marker must land in the overlay");
        assert_eq!(m.index_kind(), "sharded");
        // The new marker must be findable immediately.
        let top = m
            .predict_top(&[9.0, 9.0], KnnConfig { k: 1, p: 1.0 })
            .unwrap();
        assert_eq!(top.ty, t("bytes"));
    }

    #[test]
    fn sharded_overlay_finds_new_marker_without_rebuild() {
        let mut m = filled_map(300);
        m.build_sharded_index(&SpaceConfig::default(), 7, None)
            .unwrap();
        m.add(vec![9.0, 9.0, 9.0, 9.0], t("bytes")).unwrap();
        assert_eq!(m.overlay_len(), 1, "marker must land in the overlay");
        assert!(m.space_index().is_some(), "index must stay attached");
        let top = m
            .predict_top(&[9.0, 9.0, 9.0, 9.0], KnnConfig { k: 1, p: 1.0 })
            .unwrap();
        assert_eq!(top.ty, t("bytes"));
    }

    #[test]
    fn sharded_overlay_rebuild_at_threshold() {
        let mut m = filled_map(100);
        let config = SpaceConfig {
            rebuild_threshold: 4,
            ..SpaceConfig::default()
        };
        m.build_sharded_index(&config, 7, None).unwrap();
        let before = m.space_index().unwrap().file_id();
        for i in 0..3 {
            m.add(vec![i as f32; 4], t("bytes")).unwrap();
        }
        assert_eq!(m.overlay_len(), 3);
        assert_eq!(m.space_index().unwrap().file_id(), before);
        m.add(vec![3.0; 4], t("bytes")).unwrap();
        // Threshold hit: rebuilt over all 104 markers, overlay empty.
        assert_eq!(m.overlay_len(), 0);
        let rebuilt = m.space_index().unwrap();
        assert_eq!(rebuilt.len(), 104);
        assert_ne!(rebuilt.file_id(), before);
        assert_eq!(rebuilt.config(), config, "rebuild keeps the config");
    }

    #[test]
    fn rebuild_reads_the_attached_header_not_the_first_build_params() {
        let mut m = filled_map(200);
        let built = SpaceConfig {
            shards: 2,
            forest: RpForestConfig {
                trees: 4,
                leaf_size: 8,
                search_k: 16,
            },
            rebuild_threshold: 64,
        };
        m.build_sharded_index(&built, 5, None).unwrap();
        let before = m.space_index().unwrap().clone();
        assert_eq!(m.index_params(), Some((built, 5)));
        // `first` is ignored while an index is attached: with no new
        // marker the rebuild reproduces the index byte for byte.
        m.rebuild_sharded_index(Some((SpaceConfig::default(), 7)), None)
            .unwrap();
        let after = m.space_index().unwrap();
        assert_eq!(after.file_id(), before.file_id());
        assert_eq!(after.payload(), before.payload());
        // A map with no index attached takes `first`, or keeps exact
        // search without it.
        let mut plain = filled_map(200);
        plain.rebuild_sharded_index(None, None).unwrap();
        assert_eq!(plain.index_kind(), "exact");
        plain
            .rebuild_sharded_index(Some((SpaceConfig::default(), 7)), None)
            .unwrap();
        assert_eq!(plain.index_params(), Some((SpaceConfig::default(), 7)));
    }

    #[test]
    fn detach_attach_round_trip() {
        let mut m = filled_map(200);
        m.build_sharded_index(&SpaceConfig::default(), 3, None)
            .unwrap();
        let index = m.space_index().unwrap().clone();
        let query = vec![0.2, -0.1, 0.0, 0.3];
        let attached = m.predict(&query, KnnConfig::default());
        m.detach_space_index();
        assert_eq!(m.expected_file_id(), Some(index.file_id()));
        assert!(m.space_payload().is_none());
        // Detached queries are exact, hence still correct.
        assert!(!m.predict(&query, KnnConfig::default()).is_empty());
        // Wrong sidecar is rejected; the right one restores the state.
        let mut other = filled_map(200);
        other
            .build_sharded_index(&SpaceConfig::default(), 99, None)
            .unwrap();
        let wrong = other.space_index().unwrap().clone();
        assert!(matches!(
            m.attach_space_index(wrong),
            Err(SpaceError::IndexMismatch { .. })
        ));
        m.attach_space_index(index).unwrap();
        assert_eq!(m.predict(&query, KnnConfig::default()), attached);
    }

    #[test]
    fn zero_distance_dominates() {
        let m = small_map();
        let top = m
            .predict_top(&[1.0, 1.0], KnnConfig { k: 4, p: 2.0 })
            .unwrap();
        assert_eq!(top.ty, t("str"));
        assert!(top.probability > 0.9);
    }

    #[test]
    fn empty_map_predicts_nothing() {
        let m = TypeMap::new(3);
        assert!(m.predict(&[0.0, 0.0, 0.0], KnnConfig::default()).is_empty());
    }

    #[test]
    fn zero_k_is_rejected_and_clamped_to_one_neighbour() {
        assert!(KnnConfig { k: 0, p: 2.0 }.validate().is_err());
        // Prediction clamps k to 1 instead of silently returning nothing.
        let m = small_map();
        let preds = m.predict(&[0.05, 0.0], KnnConfig { k: 0, p: 2.0 });
        assert!(
            !preds.is_empty(),
            "k = 0 must degrade to 1-NN, not predict nothing"
        );
        assert_eq!(preds[0].ty, t("int"));
        let one_nn = m.predict(&[0.05, 0.0], KnnConfig { k: 1, p: 2.0 });
        assert_eq!(preds, one_nn);
    }

    #[test]
    fn negative_p_is_rejected_and_clamped_to_uniform_vote() {
        assert!(KnnConfig { k: 4, p: -2.0 }.validate().is_err());
        assert!(KnnConfig { k: 4, p: f32::NAN }.validate().is_err());
        assert!(KnnConfig { k: 4, p: 2.0 }.validate().is_ok());
        // A negative exponent would weight *far* neighbours above near
        // ones; prediction clamps it to 0 (uniform vote) instead.
        let mut m = TypeMap::new(1);
        m.add(vec![0.0], t("int")).unwrap();
        m.add(vec![5.0], t("str")).unwrap();
        m.add(vec![6.0], t("str")).unwrap();
        let preds = m.predict(&[0.1], KnnConfig { k: 3, p: -8.0 });
        let uniform = m.predict(&[0.1], KnnConfig { k: 3, p: 0.0 });
        assert_eq!(preds, uniform, "negative p must clamp to a uniform vote");
        // With the inverted weights the two far `str` markers would win
        // overwhelmingly; under the clamp they win only 2-votes-to-1.
        assert!(preds
            .iter()
            .any(|p| p.ty == t("int") && p.probability > 0.3));
    }

    #[test]
    fn distinct_type_count() {
        assert_eq!(small_map().distinct_types(), 2);
    }

    #[test]
    fn width_mismatch_is_a_typed_error_and_leaves_the_map_unchanged() {
        let mut m = small_map();
        let before = m.len();
        let preds_before = m.predict(&[0.05, 0.0], KnnConfig::default());
        // Too narrow, too wide, empty: all must be rejected, none may
        // panic (the serve daemon routes raw client input here).
        for bad in [vec![1.0], vec![1.0, 2.0, 3.0], vec![]] {
            let err = m.add(bad.clone(), t("bytes")).unwrap_err();
            assert_eq!(
                err,
                SpaceError::DimensionMismatch {
                    expected: 2,
                    found: bad.len()
                }
            );
        }
        assert_eq!(m.len(), before, "rejected adds must not leave debris");
        assert_eq!(
            m.predict(&[0.05, 0.0], KnnConfig::default()),
            preds_before,
            "rejected adds must not disturb predictions"
        );
        // The map still works after the failures.
        m.add(vec![7.0, 7.0], t("bytes")).unwrap();
        assert_eq!(m.len(), before + 1);
    }

    #[test]
    fn width_mismatch_with_sharded_index_keeps_index_consistent() {
        let mut m = filled_map(100);
        m.build_sharded_index(&SpaceConfig::default(), 7, None)
            .unwrap();
        assert!(m.add(vec![1.0; 3], t("bytes")).is_err());
        assert_eq!(m.overlay_len(), 0, "failed add must not count as overlay");
        assert!(m.space_index().is_some(), "index must stay attached");
    }

    #[test]
    fn detached_adds_merge_into_the_index_on_attach() {
        let mut m = filled_map(100);
        let config = SpaceConfig {
            rebuild_threshold: 3,
            ..SpaceConfig::default()
        };
        m.build_sharded_index(&config, 7, None).unwrap();
        let index = m.space_index().unwrap().clone();
        let before_id = index.file_id();
        m.detach_space_index();
        // Markers bound while detached: immediately queryable (exact
        // fallback), and counted against the rebuild threshold once the
        // sidecar re-attaches.
        for i in 0..3 {
            m.add(vec![10.0 + i as f32; 4], t("bytes")).unwrap();
        }
        let top = m
            .predict_top(&[10.0; 4], KnnConfig { k: 1, p: 1.0 })
            .unwrap();
        assert_eq!(top.ty, t("bytes"), "detached adds must be queryable");
        m.attach_space_index(index).unwrap();
        // Attach-then-merge: the overlay met the threshold, so the
        // index was rebuilt over all 103 markers.
        assert_eq!(m.overlay_len(), 0, "attach must merge a full overlay");
        let rebuilt = m.space_index().unwrap();
        assert_eq!(rebuilt.len(), 103);
        assert_ne!(rebuilt.file_id(), before_id);
        assert_eq!(rebuilt.config(), config, "merge rebuild keeps the config");
        let top = m
            .predict_top(&[11.0; 4], KnnConfig { k: 1, p: 1.0 })
            .unwrap();
        assert_eq!(top.ty, t("bytes"));
    }

    #[test]
    fn detached_adds_below_threshold_stay_overlay_after_attach() {
        let mut m = filled_map(100);
        let config = SpaceConfig {
            rebuild_threshold: 8,
            ..SpaceConfig::default()
        };
        m.build_sharded_index(&config, 7, None).unwrap();
        let index = m.space_index().unwrap().clone();
        let before_id = index.file_id();
        m.detach_space_index();
        m.add(vec![10.0; 4], t("bytes")).unwrap();
        m.attach_space_index(index).unwrap();
        // Below threshold: no rebuild, but the pre-attach marker is
        // overlay — scanned exactly on every query and counted toward
        // the next rebuild.
        assert_eq!(m.overlay_len(), 1);
        assert_eq!(m.space_index().unwrap().file_id(), before_id);
        let top = m
            .predict_top(&[10.0; 4], KnnConfig { k: 1, p: 1.0 })
            .unwrap();
        assert_eq!(top.ty, t("bytes"));
    }
}
