//! What the workloads share: the model shape, the reply encoding the
//! output checks compare, accuracy, and the per-layer summary of a
//! trace.

use crate::layers;
use crate::report::{Outcome, Tally};
use crate::trace::{now, secs_since, Tracer};
use std::path::PathBuf;
use typilus::{
    Aggregation, EncoderKind, LossKind, ModelConfig, NodeInit, Parallelism, SuggestOptions,
    SymbolPrediction, TrainedSystem, TypilusConfig,
};
use typilus_serve::{protocol, Response, SymbolHints};
use typilus_types::PyType;

/// Seed of every training corpus and model. Models are the same for
/// every workload seed, which picks the held-out request pool, the
/// request sequence, the marker jitter and the writes: a run's numbers
/// then vary with the requests, not with how well one model trained.
pub const CORPUS_SEED: u64 = 0;

/// The `typilus train` defaults (graph encoder, Typilus loss, width
/// 32, 8 GNN steps, exact index), with `epochs` epochs.
pub fn model_config(seed: u64, epochs: usize) -> TypilusConfig {
    TypilusConfig {
        model: ModelConfig {
            encoder: EncoderKind::Graph,
            loss: LossKind::Typilus,
            dim: 32,
            gnn_steps: 8,
            node_init: NodeInit::Subtoken,
            aggregation: Aggregation::Max,
            seed,
            ..ModelConfig::default()
        },
        epochs,
        batch_size: 8,
        lr: 0.015,
        common_threshold: 15,
        seed,
        parallelism: Parallelism::default(),
        ..TypilusConfig::default()
    }
}

/// Scratch directory for artefacts and sockets, inside the working
/// directory.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The bytes the daemon sends for these predictions: the encoded
/// `Predictions` reply.
pub fn encode_reply(
    predictions: &[SymbolPrediction],
    t: &Tracer,
    parent: Option<usize>,
    req: u64,
) -> Vec<u8> {
    let reply = Response::Predictions(predictions.iter().map(SymbolHints::of).collect());
    t.span("serbin.encode", parent, req, |_| protocol::encode(&reply))
        .0
        .unwrap_or_default()
}

/// Annotates the sources at `files` through `suggest_source` with the
/// default options, pushing each file's time in milliseconds to
/// `times`. Traced, the layer-by-layer path must suggest exactly what
/// the direct call does.
pub fn annotate(
    system: &TrainedSystem,
    sources: &[String],
    files: impl Iterator<Item = usize>,
    t: &Tracer,
    tally: &mut Tally,
    times: &mut Vec<f64>,
) {
    let options = SuggestOptions::default();
    for i in files {
        let Some(source) = sources.get(i) else {
            continue;
        };
        let start = now();
        let got = layers::suggest(system, source, &options, t, i as u64 + 1);
        times.push(1e3 * secs_since(start));
        let ok = match got {
            Err(_) => false,
            Ok(_) if !t.enabled() => true,
            Ok(got) => system
                .suggest_source(source, &options)
                .is_ok_and(|want| format!("{want:?}") == format!("{got:?}")),
        };
        tally.record(ok);
    }
}

/// Exact-match top-1 hits and annotated targets over some predictions.
pub fn top1(predictions: &[Vec<SymbolPrediction>]) -> (usize, usize) {
    let mut hits = 0;
    let mut total = 0;
    for p in predictions.iter().flatten() {
        if let Some(truth) = &p.ground_truth {
            total += 1;
            if p.top().is_some_and(|top| &top.ty == truth) {
                hits += 1;
            }
        }
    }
    (hits, total)
}

/// Each file's annotated symbols as `(name, type)`, keeping only types
/// whose display form parses back to the same type, so an `add-marker`
/// built from them cannot be refused.
pub fn annotated(predictions: &[Vec<SymbolPrediction>]) -> Vec<Vec<(String, String)>> {
    predictions
        .iter()
        .map(|file| {
            file.iter()
                .filter_map(|p| {
                    let ty = p.ground_truth.as_ref()?;
                    let text = ty.to_string();
                    (text.parse::<PyType>().ok().as_ref() == Some(ty))
                        .then(|| (p.name.clone(), text))
                })
                .collect()
        })
        .collect()
}

/// The per-layer metrics every workload derives the same way from its
/// trace: per-call means of the predict path's stages, training and
/// checker totals, persistence times and counts.
pub fn summarize_layers(t: &Tracer, out: &mut Outcome) {
    let totals = t.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_ms = |name: &str| {
        let s = of(name);
        if s.count == 0 {
            0.0
        } else {
            1e3 * s.total_s / s.count as f64
        }
    };
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (metric, span) in [
        ("pyast.parse_ms", "pyast.parse"),
        ("pyast.symtable_ms", "pyast.symtable"),
        ("graph.build_ms", "graph.build"),
        ("models.prepare_ms", "models.prepare"),
        ("models.embed_ms", "models.embed"),
        ("space.knn_ms", "space.knn"),
        ("space.add_ms", "space.add"),
        ("core.predict_ms", "core.predict"),
        ("serbin.encode_ms", "serbin.encode"),
    ] {
        out.set(metric, mean_ms(span));
    }
    for (metric, span) in [
        ("models.prepare_s", "models.prepare_corpus"),
        ("models.embed_s", "models.embed_corpus"),
        ("nn.train_step_s", "nn.train_step"),
        ("nn.adam_s", "nn.adam"),
        ("space.add_s", "space.add_corpus"),
        ("space.index_s", "space.index_build"),
        ("check.verify_s", "check.verify"),
    ] {
        out.set(metric, of(span).total_s);
    }
    for (metric, span) in [
        ("core.save_s", "core.save"),
        ("core.load_s", "core.load"),
        ("core.predict_s", "core.predict_batch"),
    ] {
        out.set(metric, 1e-3 * mean_ms(span));
    }
    let files = t.counter("graph.files");
    out.set("graph.nodes", per(t.counter("graph.nodes"), files));
    out.set("graph.edges", per(t.counter("graph.edges"), files));
    out.set("nn.steps", t.counter("nn.steps"));
    out.set("nn.fresh_allocs", t.counter("nn.fresh_allocs"));
    out.set("check.calls", t.counter("check.calls"));
    out.set(
        "check.accept_ratio",
        per(t.counter("check.accepted"), t.counter("check.candidates")),
    );
    out.set("trace.spans", totals.values().map(|s| s.count as f64).sum());
}
