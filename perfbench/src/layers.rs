//! The system's public calls, as the workloads make them. Untraced,
//! each is one call into the top-level API. Traced, each is taken
//! apart into the public calls of the layers it is made of, with a span
//! around every one; the traced path must return exactly what the
//! untraced call does, and the workloads check that it does.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use typilus::{
    LossKind, PreparedCorpus, SuggestOptions, Suggestion, SymbolPrediction, TrainOptions,
    TrainedSystem, TypilusConfig,
};
use typilus_check::TypeChecker;
use typilus_models::{PreparedFile, TypeModel};
use typilus_nn::{Adam, PoolCell, WorkerPool};
use typilus_pyast::{ParseError, Parsed, SymbolTable};
use typilus_space::TypeMap;
use typilus_types::{PyType, TypeHierarchy};

/// Span names of the predict path's stages, in call order. Their
/// per-request means, plus the residual, make up a served request.
pub const PREDICT_STAGES: [&str; 7] = [
    "pyast.parse",
    "pyast.symtable",
    "graph.build",
    "models.prepare",
    "models.embed",
    "space.knn",
    "serbin.encode",
];

/// Parses, builds the symbol table and the program graph, and prepares
/// the graph for the model: the front half of every per-source call.
fn front(
    system: &TrainedSystem,
    source: &str,
    file: &str,
    t: &Tracer,
    parent: Option<usize>,
    req: u64,
) -> Result<(Parsed, SymbolTable, PreparedFile), ParseError> {
    let parsed = t
        .span("pyast.parse", parent, req, |_| typilus_pyast::parse(source))
        .0?;
    let table = t
        .span("pyast.symtable", parent, req, |_| {
            SymbolTable::build(&parsed.module)
        })
        .0;
    let graph = t
        .span("graph.build", parent, req, |_| {
            typilus_graph::build_graph(&parsed, &table, &system.config.graph, file)
        })
        .0;
    t.add("graph.nodes", graph.node_count() as f64);
    t.add("graph.edges", graph.edge_count() as f64);
    t.add("graph.files", 1.0);
    let prepared = t
        .span("models.prepare", parent, req, |_| {
            system.model.prepare(&graph)
        })
        .0;
    Ok((parsed, table, prepared))
}

/// `TrainedSystem::predict_source`: the engine's per-source path.
pub fn predict(
    system: &TrainedSystem,
    source: &str,
    t: &Tracer,
    parent: Option<usize>,
    req: u64,
) -> Result<Vec<SymbolPrediction>, ParseError> {
    if !t.enabled() || system.model.config.loss == LossKind::Class {
        return t
            .span("core.predict", parent, req, |_| {
                system.predict_source(source)
            })
            .0;
    }
    t.span("core.predict", parent, req, |id| {
        let (_, _, prepared) = front(system, source, "<input>", t, id, req)?;
        if prepared.targets.is_empty() {
            return Ok(Vec::new());
        }
        let embeddings = t
            .span("models.embed", id, req, |_| {
                system.model.embed_inference(&prepared)
            })
            .0;
        let candidates: Vec<_> = t
            .span("space.knn", id, req, |_| {
                (0..prepared.targets.len())
                    .map(|row| match &embeddings {
                        Some(emb) => system.type_map.predict(emb.row(row), system.config.knn),
                        None => Vec::new(),
                    })
                    .collect()
            })
            .0;
        Ok(prepared
            .targets
            .iter()
            .zip(candidates)
            .map(|(target, candidates)| SymbolPrediction {
                file_idx: usize::MAX,
                symbol: target.symbol,
                name: target.name.clone(),
                kind: target.kind,
                ground_truth: target.ty.clone(),
                candidates,
            })
            .collect())
    })
    .0
}

/// `TrainedSystem::suggest_source`: predict, then the type checker.
pub fn suggest(
    system: &TrainedSystem,
    source: &str,
    options: &SuggestOptions,
    t: &Tracer,
    req: u64,
) -> Result<Vec<Suggestion>, ParseError> {
    if !t.enabled() {
        return t
            .span("core.suggest", None, req, |_| {
                system.suggest_source(source, options)
            })
            .0;
    }
    t.span("core.suggest", None, req, |id| {
        let parsed = t
            .span("pyast.parse", id, req, |_| typilus_pyast::parse(source))
            .0?;
        let table = t
            .span("pyast.symtable", id, req, |_| {
                SymbolTable::build(&parsed.module)
            })
            .0;
        let predictions = predict(system, source, t, id, req)?;
        Ok(t.span("check.verify", id, req, |_| {
            verify(&parsed, &table, predictions, options, t)
        })
        .0)
    })
    .0
}

/// The checker filter of `suggest_source`, counting checker calls and
/// the candidates they accept.
fn verify(
    parsed: &Parsed,
    table: &SymbolTable,
    predictions: Vec<SymbolPrediction>,
    options: &SuggestOptions,
    t: &Tracer,
) -> Vec<Suggestion> {
    let checker = TypeChecker::new(options.profile);
    t.add("check.calls", 1.0);
    if !checker.check(parsed, table).is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for p in predictions {
        if p.ground_truth.is_some() && !options.include_annotated {
            continue;
        }
        let mut rejected = 0usize;
        for candidate in p.candidates.iter().take(options.max_candidates) {
            if candidate.probability < options.min_confidence {
                break;
            }
            if candidate.ty.is_top() {
                continue;
            }
            t.add("check.calls", 1.0);
            t.add("check.candidates", 1.0);
            let issues = checker.check_with_override(parsed, table, p.symbol, candidate.ty.clone());
            if issues.is_empty() {
                t.add("check.accepted", 1.0);
                out.push(Suggestion {
                    symbol: p.symbol,
                    name: p.name.clone(),
                    kind: p.kind,
                    ty: candidate.ty.clone(),
                    confidence: candidate.probability,
                    existing: p.ground_truth.clone(),
                    rejected_above: rejected,
                });
                break;
            }
            rejected += 1;
        }
    }
    out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    out
}

/// `TrainedSystem::add_marker`: embed a symbol of `source` and bind it
/// to `ty`. Returns the marker count after the insertion.
pub fn add_marker(
    system: &mut TrainedSystem,
    source: &str,
    symbol: &str,
    ty: PyType,
    t: &Tracer,
    req: u64,
) -> Result<usize, String> {
    if !t.enabled() {
        return t
            .span("core.add_marker", None, req, |_| {
                system.add_marker(source, symbol, ty)
            })
            .0
            .map_err(|e| e.to_string());
    }
    t.span("core.add_marker", None, req, |id| {
        let (_, _, prepared) =
            front(system, source, "<binding>", t, id, req).map_err(|e| e.to_string())?;
        let idx = prepared
            .targets
            .iter()
            .position(|target| target.name == symbol)
            .ok_or_else(|| format!("symbol {symbol:?} not found"))?;
        let embeddings = t
            .span("models.embed", id, req, |_| {
                system.model.embed_inference(&prepared)
            })
            .0
            .ok_or("no embedding")?;
        let row = embeddings.row(idx).to_vec();
        t.span("space.add", id, req, |_| system.type_map.add(row, ty))
            .0
            .map_err(|e| e.to_string())?;
        Ok(system.type_map.len())
    })
    .0
}

/// `typilus::train_with_options` without checkpoints. Traced, the
/// training loop runs here, call by call: model construction, corpus
/// preparation, every `train_step_parallel` and pooled Adam step, the
/// τmap embedding and marker inserts, and the index build.
pub fn train(data: &PreparedCorpus, config: &TypilusConfig, t: &Tracer) -> TrainedSystem {
    if !t.enabled() {
        return t
            .span("core.train", None, 0, |_| {
                typilus::train_with_options(data, config, &TrainOptions::default())
            })
            .0
            .unwrap_or_else(|e| unreachable!("training without checkpoints cannot fail: {e}"));
    }
    t.span("core.train", None, 0, |id| {
        let before = typilus_nn::arena_stats();
        let pool = WorkerPool::new(config.parallelism.resolve());
        let mut model = t
            .span("models.new", id, 0, |_| {
                TypeModel::new(config.model, &data.graphs_of(&data.split.train))
            })
            .0;
        let mut optimizer = Adam::new(config.lr);
        let prepared: Vec<PreparedFile> = t
            .span("models.prepare_corpus", id, 0, |_| {
                pool.map_ordered(&data.files, |_, f| model.prepare(&f.graph))
            })
            .0;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut epochs = Vec::with_capacity(config.epochs);
        for epoch in 0..config.epochs {
            let (mean_loss, seconds) = t.span("nn.epoch", id, 0, |eid| {
                let mut order = data.split.train.clone();
                order.shuffle(&mut rng);
                let mut losses = Vec::new();
                for chunk in order.chunks(config.batch_size.max(1)) {
                    let batch: Vec<&PreparedFile> = chunk.iter().map(|&i| &prepared[i]).collect();
                    let step = t
                        .span("nn.train_step", eid, 0, |_| {
                            model.train_step_parallel(&batch, &pool)
                        })
                        .0;
                    t.add("nn.steps", 1.0);
                    if let Some((loss, grads)) = step {
                        if loss.is_finite() {
                            losses.push(loss);
                            t.span("nn.adam", eid, 0, |_| {
                                optimizer.step_pooled(&mut model.params, grads, &pool)
                            });
                        }
                    }
                }
                if losses.is_empty() {
                    0.0
                } else {
                    losses.iter().sum::<f32>() / losses.len() as f32
                }
            });
            epochs.push(typilus::EpochStats {
                epoch,
                mean_loss,
                seconds,
            });
        }
        let after = typilus_nn::arena_stats();
        t.add(
            "nn.fresh_allocs",
            after.fresh.saturating_sub(before.fresh) as f64,
        );

        let tau: Vec<usize> = data
            .split
            .train
            .iter()
            .chain(&data.split.valid)
            .copied()
            .collect();
        let tau_files: Vec<&PreparedFile> = tau.iter().map(|&i| &prepared[i]).collect();
        let embedded = t
            .span("models.embed_corpus", id, 0, |_| {
                model.embed_inference_batch(&tau_files, &pool)
            })
            .0;
        let train_set: HashSet<usize> = data.split.train.iter().copied().collect();
        let mut type_map = TypeMap::new(config.model.dim);
        let mut train_type_counts: BTreeMap<String, usize> = BTreeMap::new();
        t.span("space.add_corpus", id, 0, |_| {
            for (&idx, embeddings) in tau.iter().zip(&embedded) {
                let Some(embeddings) = embeddings else {
                    continue;
                };
                for (row, target) in prepared[idx].targets.iter().enumerate() {
                    let Some(ty) = &target.ty else { continue };
                    type_map
                        .add(embeddings.row(row).to_vec(), ty.clone())
                        .expect("train-time embedding width equals the map dimension");
                    if train_set.contains(&idx) {
                        *train_type_counts.entry(ty.to_string()).or_insert(0) += 1;
                    }
                }
            }
        });
        if config.approximate_index && type_map.len() > 64 {
            t.span("space.index_build", id, 0, |_| {
                if config.space.shards > 1 {
                    if type_map
                        .build_sharded_index(&config.space, config.seed, Some(&pool))
                        .is_err()
                    {
                        type_map.build_index(config.space.forest, config.seed);
                    }
                } else {
                    type_map.build_index(config.space.forest, config.seed);
                }
            });
        }
        let mut hierarchy = TypeHierarchy::new();
        data.register_classes(&mut hierarchy);
        TrainedSystem {
            model,
            type_map,
            hierarchy,
            train_type_counts,
            config: *config,
            epochs,
            pool: PoolCell::with(pool),
        }
    })
    .0
}
