//! The end-to-end Typilus pipeline (paper Fig. 1): train the encoder
//! with the chosen loss, build the type map from known annotations,
//! predict by kNN in the TypeSpace, optionally filter through the type
//! checker.

use crate::data::{PreparedCorpus, SourceFile};
use crate::persist::PersistError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use typilus_graph::GraphConfig;
use typilus_models::{LossKind, ModelConfig, PreparedFile, TypeModel};
use typilus_nn::{
    resolve_threads, try_resolve_threads, Adam, PoolCell, ThreadConfigError, WorkerPool,
};
use typilus_pyast::symtable::{SymbolId, SymbolKind};
use typilus_space::{KnnConfig, SpaceConfig, TypeMap, TypePrediction};
use typilus_types::{PyType, TypeHierarchy};

/// Thread-count policy for the data-parallel pipeline stages (minibatch
/// training, corpus preparation, τmap construction, batch prediction).
///
/// Results are bit-identical for every thread count: parallel stages
/// only fan out independent per-file work, and every reduction over
/// their results happens in fixed file-index order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Deserialize)]
pub struct Parallelism {
    /// Worker threads; `0` means auto-detect (the `TYPILUS_THREADS`
    /// environment variable if set, otherwise
    /// [`std::thread::available_parallelism`]).
    pub threads: usize,
}

impl Serialize for Parallelism {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("Parallelism", 1)?;
        // The thread count is a machine-local execution policy, not a
        // model property: a saved system always records auto-detect, so
        // the artifact is byte-identical whatever `--threads` trained it
        // and the loading machine picks its own worker count.
        st.serialize_field("threads", &0usize)?;
        st.end()
    }
}

impl Parallelism {
    /// A fixed thread count (`0` keeps auto-detection).
    pub fn fixed(threads: usize) -> Parallelism {
        Parallelism { threads }
    }

    /// The concrete worker count to use. A malformed `TYPILUS_THREADS`
    /// warns once and clamps to 1; use [`Parallelism::try_resolve`] to
    /// surface the error instead.
    pub fn resolve(self) -> usize {
        resolve_threads(if self.threads == 0 {
            None
        } else {
            Some(self.threads)
        })
    }

    /// Like [`Parallelism::resolve`], but a malformed `TYPILUS_THREADS`
    /// is a configuration error.
    ///
    /// # Errors
    ///
    /// Returns [`ThreadConfigError`] when auto-detection is in effect
    /// and `TYPILUS_THREADS` is set to anything but a positive integer.
    pub fn try_resolve(self) -> Result<usize, ThreadConfigError> {
        try_resolve_threads(if self.threads == 0 {
            None
        } else {
            Some(self.threads)
        })
    }
}

/// Pipeline hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TypilusConfig {
    /// Model architecture and loss.
    pub model: ModelConfig,
    /// Graph construction (annotation erasure, edge ablations).
    pub graph: GraphConfig,
    /// Training epochs.
    pub epochs: usize,
    /// Files per minibatch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// kNN prediction parameters (Eq. 5).
    pub knn: KnnConfig,
    /// Whether [`train`] ends by building the approximate (Annoy-like)
    /// sharded index over the type map from `space` and `seed`, at any
    /// map size. The CLI trains with it off and builds the index with
    /// `typilus index`, which records it here as on.
    pub approximate_index: bool,
    /// Approximate TypeSpace index parameters (shard count, per-tree
    /// forest knobs, overlay rebuild threshold) of the index's first
    /// build. The index is always the sharded
    /// [`typilus_space::SpaceIndex`], persisted as an mmap-able sidecar
    /// whose header records the config and seed it was built from;
    /// every rebuild of an attached index reads them from there.
    pub space: SpaceConfig,
    /// Types seen at least this many times in training count as
    /// *common* in the evaluation breakdown (paper: 100 at full scale).
    pub common_threshold: usize,
    /// Pipeline RNG seed (batch shuffling).
    pub seed: u64,
    /// Worker-thread policy for the data-parallel stages.
    pub parallelism: Parallelism,
}

impl Default for TypilusConfig {
    fn default() -> Self {
        TypilusConfig {
            model: ModelConfig::default(),
            graph: GraphConfig::default(),
            epochs: 12,
            batch_size: 8,
            lr: 0.01,
            knn: KnnConfig::default(),
            approximate_index: false,
            space: SpaceConfig::default(),
            common_threshold: 20,
            seed: 0,
            parallelism: Parallelism::default(),
        }
    }
}

/// Progress of one training epoch.
#[derive(Debug, Clone, Copy, Deserialize)]
pub struct EpochStats {
    /// Epoch number, from 0.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub mean_loss: f32,
    /// Wall-clock seconds spent. Display-only: serialization writes it
    /// as `0.0` (see the manual [`Serialize`] impl below) so a saved
    /// system is bit-identical across runs and thread counts.
    pub seconds: f64,
}

impl Serialize for EpochStats {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("EpochStats", 3)?;
        st.serialize_field("epoch", &self.epoch)?;
        st.serialize_field("mean_loss", &self.mean_loss)?;
        // Timing is wall-clock noise; zero it in the artifact.
        st.serialize_field("seconds", &0.0f64)?;
        st.end()
    }
}

/// A prediction for one symbol of a file.
#[derive(Debug, Clone)]
pub struct SymbolPrediction {
    /// Index of the file in the corpus.
    pub file_idx: usize,
    /// The symbol in that file's symbol table.
    pub symbol: SymbolId,
    /// Symbol name.
    pub name: String,
    /// Symbol kind (variable / parameter / return).
    pub kind: SymbolKind,
    /// Ground-truth type, when the source was annotated.
    pub ground_truth: Option<PyType>,
    /// Ranked candidate types with probabilities.
    pub candidates: Vec<TypePrediction>,
}

impl SymbolPrediction {
    /// The top candidate, if any.
    pub fn top(&self) -> Option<&TypePrediction> {
        self.candidates.first()
    }

    /// Confidence of the top candidate (0 when there is none).
    pub fn confidence(&self) -> f32 {
        self.top().map(|t| t.probability).unwrap_or(0.0)
    }
}

/// A trained Typilus system: encoder + type map + evaluation lattice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedSystem {
    /// The trained model.
    pub model: TypeModel,
    /// The adaptive type map (empty for pure classification models).
    pub type_map: TypeMap,
    /// Lattice with the corpus' user classes registered.
    pub hierarchy: TypeHierarchy,
    /// Count of each ground-truth type in the training annotations,
    /// for common/rare breakdowns. Ordered so a saved system is
    /// byte-for-byte reproducible.
    pub train_type_counts: BTreeMap<String, usize>,
    /// Configuration used.
    pub config: TypilusConfig,
    /// Per-epoch statistics of the training run.
    pub epochs: Vec<EpochStats>,
    /// The system's worker pool: created once (training hands over the
    /// pool it trained with), reused by every batch-prediction call so
    /// worker arenas stay warm. Never persisted — a loaded system
    /// re-creates it lazily from `config.parallelism`.
    pub pool: PoolCell,
}

/// Crash-safety options of a training run; see
/// [`train_with_options`].
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Where to persist a checkpoint after every epoch (created if
    /// missing). `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Restart from the latest valid checkpoint in `checkpoint_dir`
    /// instead of from scratch. Corrupt or partial checkpoints are
    /// skipped; if none is valid the run starts fresh with a warning.
    pub resume: bool,
    /// Fault injection: stop with [`TrainError::Killed`] right after
    /// the checkpoint of this epoch (0-based) is written, simulating a
    /// crash at an epoch boundary.
    pub kill_after_epoch: Option<usize>,
}

/// Errors of a checkpointed training run.
#[derive(Debug)]
pub enum TrainError {
    /// Reading or writing a checkpoint failed.
    Checkpoint(PersistError),
    /// `resume` was requested without a `checkpoint_dir`.
    ResumeWithoutDir,
    /// The latest valid checkpoint was written under a different
    /// config; resuming would silently train a different model.
    ConfigMismatch {
        /// The offending checkpoint.
        path: PathBuf,
    },
    /// The injected kill fired after this epoch's checkpoint was
    /// written (see [`TrainOptions::kill_after_epoch`]).
    Killed {
        /// The completed epoch the run was killed after.
        epoch: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TrainError::ResumeWithoutDir => {
                write!(f, "--resume requires a checkpoint directory")
            }
            TrainError::ConfigMismatch { path } => write!(
                f,
                "checkpoint {} was written with a different training config",
                path.display()
            ),
            TrainError::Killed { epoch } => {
                write!(f, "training killed by injected fault after epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<PersistError> for TrainError {
    fn from(e: PersistError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Errors of one-shot open-vocabulary adaptation
/// ([`TrainedSystem::add_marker`]). Every variant is survivable by a
/// long-lived caller: the system is left exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddMarkerError {
    /// The binding snippet is not valid Python.
    Parse(typilus_pyast::ParseError),
    /// The snippet parsed but contains no occurrence of the named
    /// symbol among its annotatable targets.
    SymbolNotFound {
        /// The symbol that was asked for.
        symbol: String,
    },
    /// The snippet has no embeddable targets (e.g. an empty module),
    /// so no embedding could be produced for the symbol.
    NoEmbedding,
    /// The type map rejected the marker (embedding-width mismatch).
    Space(typilus_space::SpaceError),
}

impl std::fmt::Display for AddMarkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddMarkerError::Parse(e) => write!(f, "binding snippet does not parse: {e}"),
            AddMarkerError::SymbolNotFound { symbol } => {
                write!(f, "symbol {symbol:?} not found in the binding snippet")
            }
            AddMarkerError::NoEmbedding => {
                write!(f, "binding snippet produced no symbol embeddings")
            }
            AddMarkerError::Space(e) => write!(f, "type map rejected the marker: {e}"),
        }
    }
}

impl std::error::Error for AddMarkerError {}

impl From<typilus_space::SpaceError> for AddMarkerError {
    fn from(e: typilus_space::SpaceError) -> Self {
        AddMarkerError::Space(e)
    }
}

/// Trains a system on the prepared corpus' training split.
pub fn train(data: &PreparedCorpus, config: &TypilusConfig) -> TrainedSystem {
    match train_with_options(data, config, &TrainOptions::default()) {
        Ok(system) => system,
        // Without checkpointing or fault injection no error path is
        // reachable.
        Err(e) => unreachable!("train without checkpointing cannot fail: {e}"),
    }
}

/// Trains a system with crash-safety options: per-epoch checkpoints,
/// resume from the latest valid checkpoint, and an injectable
/// epoch-boundary kill.
///
/// A resumed run is **byte-identical** to an uninterrupted one:
/// batching and reduction order are deterministic at any thread count,
/// the RNG replays the shuffles of completed epochs, and optimizer
/// state round-trips exactly (fixed-width little-endian float bits).
///
/// # Errors
///
/// Checkpoint I/O and validation errors, plus [`TrainError::Killed`]
/// when the injected kill fires.
pub fn train_with_options(
    data: &PreparedCorpus,
    config: &TypilusConfig,
    opts: &TrainOptions,
) -> Result<TrainedSystem, TrainError> {
    // Resume: find the newest checkpoint that verifies, skipping (and
    // reporting) corrupt or partial ones.
    let mut resumed = None;
    if opts.resume {
        let dir = opts
            .checkpoint_dir
            .as_deref()
            .ok_or(TrainError::ResumeWithoutDir)?;
        let scan = crate::checkpoint::scan(dir)?;
        for (path, err) in &scan.skipped {
            eprintln!(
                "warning: skipping invalid checkpoint {}: {err}",
                path.display()
            );
        }
        match scan.latest {
            Some((path, checkpoint)) => {
                // Machine-local execution policy (thread counts) is
                // serialized as auto-detect, so this comparison only
                // sees model-relevant config.
                let ours = typilus_serbin::to_bytes(config).map_err(PersistError::from)?;
                let theirs =
                    typilus_serbin::to_bytes(&checkpoint.config).map_err(PersistError::from)?;
                if ours != theirs {
                    return Err(TrainError::ConfigMismatch { path });
                }
                eprintln!(
                    "resuming from {} ({}/{} epochs done)",
                    path.display(),
                    checkpoint.epochs_done,
                    config.epochs
                );
                resumed = Some(checkpoint);
            }
            None => eprintln!(
                "warning: --resume found no valid checkpoint in {}; training from scratch",
                dir.display()
            ),
        }
    }

    // One pool for the whole run: its workers — and their thread-local
    // buffer arenas — survive across batches and epochs, and are handed
    // to the returned system for batch prediction.
    let pool = WorkerPool::new(config.parallelism.resolve());
    let (mut model, mut optimizer, mut epoch_stats, start_epoch) = match resumed {
        Some(checkpoint) => (
            checkpoint.model,
            checkpoint.optimizer,
            checkpoint.stats,
            checkpoint.epochs_done,
        ),
        None => {
            let train_graphs = data.graphs_of(&data.split.train);
            (
                TypeModel::new(config.model, &train_graphs),
                Adam::new(config.lr),
                Vec::with_capacity(config.epochs),
                0,
            )
        }
    };

    // Prepare every file once, fanning the per-file work across the pool.
    let prepared: Vec<PreparedFile> = pool.map_ordered(&data.files, |_, f| model.prepare(&f.graph));

    let mut rng = StdRng::seed_from_u64(config.seed);
    // Replay the shuffles of already-completed epochs so the resumed
    // run sees exactly the batch order the uninterrupted run would.
    for _ in 0..start_epoch {
        let mut order = data.split.train.clone();
        order.shuffle(&mut rng);
    }
    for epoch in start_epoch..config.epochs {
        // lint: allow(D6) — per-epoch wall-clock is operator feedback
        // only; EpochStats::serialize zeroes it out of the artifact
        let start = std::time::Instant::now();
        let mut order = data.split.train.clone();
        order.shuffle(&mut rng);
        let mut losses = Vec::new();
        for chunk in order.chunks(config.batch_size.max(1)) {
            // Failpoint: a crash between epoch boundaries, for the
            // fault-injection suite (no-op without `--features faults`).
            if let Some(fault) = crate::faults::check("train.batch") {
                fault.trigger_panic("train.batch");
            }
            let batch: Vec<&PreparedFile> = chunk.iter().map(|&i| &prepared[i]).collect();
            if let Some((loss, grads)) = model.train_step_parallel(&batch, &pool) {
                if loss.is_finite() {
                    losses.push(loss);
                    optimizer.step_pooled(&mut model.params, grads, &pool);
                }
            }
        }
        let mean_loss = if losses.is_empty() {
            0.0
        } else {
            losses.iter().sum::<f32>() / losses.len() as f32
        };
        epoch_stats.push(EpochStats {
            epoch,
            mean_loss,
            seconds: start.elapsed().as_secs_f64(),
        });
        if let Some(dir) = opts.checkpoint_dir.as_deref() {
            crate::checkpoint::write(dir, epoch + 1, config, &model, &optimizer, &epoch_stats)?;
        }
        if opts.kill_after_epoch == Some(epoch) {
            return Err(TrainError::Killed { epoch });
        }
    }

    // Type map over the training + validation annotations (as in the
    // paper's qualitative setup: "we built the type map over the
    // training and the validation sets").
    let mut type_map = TypeMap::new(config.model.dim);
    let mut train_type_counts: BTreeMap<String, usize> = BTreeMap::new();
    let tau_files: Vec<&PreparedFile> = data
        .split
        .train
        .iter()
        .chain(&data.split.valid)
        .map(|&idx| &prepared[idx])
        .collect();
    let tau_indices: Vec<usize> = data
        .split
        .train
        .iter()
        .chain(&data.split.valid)
        .copied()
        .collect();
    // Embed every train/valid file in parallel; markers are inserted
    // sequentially in file order below, so the map is deterministic.
    let embedded = model.embed_inference_batch(&tau_files, &pool);
    let train_set: HashSet<usize> = data.split.train.iter().copied().collect();
    for (&idx, embeddings) in tau_indices.iter().zip(&embedded) {
        let Some(embeddings) = embeddings else {
            continue;
        };
        for (t, target) in prepared[idx].targets.iter().enumerate() {
            let Some(ty) = &target.ty else { continue };
            type_map
                .add(embeddings.row(t).to_vec(), ty.clone())
                .expect("train-time embedding width always equals the map dimension");
            if train_set.contains(&idx) {
                *train_type_counts.entry(ty.to_string()).or_insert(0) += 1;
            }
        }
    }
    if config.approximate_index {
        // Sharded build on the training pool: byte-identical at any
        // thread count, and the index persists as an mmap-able sidecar
        // on save. A failed build leaves the map on exact search.
        if let Err(e) = type_map.build_sharded_index(&config.space, config.seed, Some(&pool)) {
            eprintln!("typilus: sharded index build failed ({e}); using exact search");
        }
    }

    let mut hierarchy = TypeHierarchy::new();
    data.register_classes(&mut hierarchy);

    Ok(TrainedSystem {
        model,
        type_map,
        hierarchy,
        train_type_counts,
        config: *config,
        epochs: epoch_stats,
        pool: PoolCell::with(pool),
    })
}

impl TrainedSystem {
    /// Predicts types for every annotatable symbol of one corpus file.
    pub fn predict_file(&self, data: &PreparedCorpus, file_idx: usize) -> Vec<SymbolPrediction> {
        let file = &data.files[file_idx];
        let prepared = self.model.prepare(&file.graph);
        self.predict_prepared(&prepared, file_idx)
    }

    /// The system's worker pool, created from `config.parallelism` on
    /// first use (training pre-populates it with the pool it trained
    /// with).
    pub fn worker_pool(&self) -> &WorkerPool {
        self.pool
            .get_or_create(|| self.config.parallelism.resolve())
    }

    /// Predicts over many corpus files at once, fanning the per-file
    /// work across the system's worker pool. Results keep the
    /// order of `indices` and match per-file [`TrainedSystem::predict_file`]
    /// calls exactly.
    pub fn predict_files(
        &self,
        data: &PreparedCorpus,
        indices: &[usize],
    ) -> Vec<Vec<SymbolPrediction>> {
        self.worker_pool()
            .map_ordered(indices, |_, &idx| self.predict_file(data, idx))
    }

    /// Predicts over many out-of-corpus source strings at once, fanning
    /// the per-source work (parse, graph build, prepare, embed, kNN)
    /// across the system's worker pool. Results keep the order of
    /// `sources`, and each entry is exactly what a lone
    /// [`TrainedSystem::predict_source`] call on that source returns —
    /// batching never changes a reply, whatever the pool size. The
    /// serve daemon's batched predict path runs through here.
    pub fn predict_sources(
        &self,
        sources: &[String],
    ) -> Vec<Result<Vec<SymbolPrediction>, typilus_pyast::ParseError>> {
        self.worker_pool()
            .map_ordered(sources, |_, src| self.predict_source(src))
    }

    /// Predicts types for an out-of-corpus source string.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the source is not valid Python.
    pub fn predict_source(
        &self,
        source: &str,
    ) -> Result<Vec<SymbolPrediction>, typilus_pyast::ParseError> {
        let parsed = typilus_pyast::parse(source)?;
        let table = typilus_pyast::SymbolTable::build(&parsed.module);
        let graph = typilus_graph::build_graph(&parsed, &table, &self.config.graph, "<input>");
        let prepared = self.model.prepare(&graph);
        Ok(self.predict_prepared(&prepared, usize::MAX))
    }

    /// Predicts over an already-prepared file.
    pub fn predict_prepared(
        &self,
        prepared: &PreparedFile,
        file_idx: usize,
    ) -> Vec<SymbolPrediction> {
        if prepared.targets.is_empty() {
            return Vec::new();
        }
        let class_predictions = if self.model.config.loss == LossKind::Class {
            self.model.predict_class(prepared)
        } else {
            None
        };
        // Class models answer from the head; only the kNN path reads
        // embeddings.
        let embeddings = if class_predictions.is_none() {
            self.model.embed_inference(prepared)
        } else {
            None
        };
        let mut out = Vec::with_capacity(prepared.targets.len());
        for (t, target) in prepared.targets.iter().enumerate() {
            let candidates = match (&class_predictions, &embeddings) {
                // The class head emits one prediction per target; a
                // shorter vector would be a model bug — degrade to "no
                // candidates" rather than panic (lint rule S3).
                (Some(preds), _) => match preds.get(t) {
                    Some((ty, p)) => vec![TypePrediction {
                        ty: ty.clone(),
                        probability: *p,
                    }],
                    None => Vec::new(),
                },
                (None, Some(emb)) => self.type_map.predict(emb.row(t), self.config.knn),
                (None, None) => Vec::new(),
            };
            out.push(SymbolPrediction {
                file_idx,
                symbol: target.symbol,
                name: target.name.clone(),
                kind: target.kind,
                ground_truth: target.ty.clone(),
                candidates,
            });
        }
        out
    }

    /// One-shot open-vocabulary adaptation with typed failure reasons:
    /// embeds the named symbol from `source` and binds its embedding to
    /// `ty` in the type map, without any retraining (paper Sec. 4.2).
    /// This is the serve daemon's `add-marker` path, so every failure
    /// is a typed, survivable error and the system is left unchanged.
    ///
    /// Returns the map's marker count after the insertion.
    ///
    /// # Errors
    ///
    /// [`AddMarkerError`] naming what went wrong: unparseable snippet,
    /// symbol absent from it, no embeddable targets, or a type-map
    /// rejection.
    pub fn add_marker(
        &mut self,
        source: &str,
        symbol_name: &str,
        ty: PyType,
    ) -> Result<usize, AddMarkerError> {
        let parsed = typilus_pyast::parse(source).map_err(AddMarkerError::Parse)?;
        let table = typilus_pyast::SymbolTable::build(&parsed.module);
        let graph = typilus_graph::build_graph(&parsed, &table, &self.config.graph, "<binding>");
        let prepared = self.model.prepare(&graph);
        let idx = prepared
            .targets
            .iter()
            .position(|t| t.name == symbol_name)
            .ok_or_else(|| AddMarkerError::SymbolNotFound {
                symbol: symbol_name.to_string(),
            })?;
        let embeddings = self
            .model
            .embed_inference(&prepared)
            .ok_or(AddMarkerError::NoEmbedding)?;
        self.type_map.add(embeddings.row(idx).to_vec(), ty)?;
        Ok(self.type_map.len())
    }

    /// Number of training annotations of a type (0 if unseen).
    pub fn train_count(&self, ty: &PyType) -> usize {
        self.train_type_counts
            .get(&ty.to_string())
            .copied()
            .unwrap_or(0)
    }

    /// Access to the evaluation source file.
    pub fn file<'d>(&self, data: &'d PreparedCorpus, idx: usize) -> &'d SourceFile {
        &data.files[idx]
    }
}
