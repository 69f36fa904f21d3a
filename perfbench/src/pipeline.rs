//! `pipeline`: train from a generated corpus and annotate held-out
//! files, in process. Each iteration runs prepare → train → save → load,
//! then annotates a share of the request pool, and the loaded model
//! answers predicts one at a time and in batches and takes `add_marker`
//! writes. The first iteration's model is the reference: every later
//! iteration must save the same artefact byte for byte.

use crate::common::{
    annotate, annotated, encode_reply, model_config, summarize_layers, top1, work_dir, CORPUS_SEED,
};
use crate::inputs::{write_list, Inputs, Op, Stream};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{beyond, median, percentile};
use crate::trace::{now, secs_since, Tracer};
use typilus::{GraphConfig, PreparedCorpus, SymbolPrediction, TrainedSystem};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Generated corpus files (near-duplicates come on top).
    pub corpus_files: usize,
    /// Distinct held-out files: annotated, predicted and written from.
    pub pool_files: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Corpus preparations per iteration; `prepare_s` is their median.
    pub prepares: usize,
    /// Pipeline iterations at least, whatever the time.
    pub min_iterations: usize,
    /// Pipeline iterations at most.
    pub max_iterations: usize,
    /// Single predicts timed per iteration, for `p50_ms`/`p99_ms`.
    pub latency_requests: usize,
    /// Sources per `predict_sources` batch.
    pub batch: usize,
    /// Batches timed per iteration, for `throughput_rps`.
    pub batches: usize,
    /// `add_marker` writes timed per iteration, for `write_p50_ms`.
    pub writes: usize,
}

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Scale {
        Scale {
            corpus_files: 80,
            pool_files: 128,
            epochs: 2,
            setups: 3,
            prepares: 5,
            min_iterations: 5,
            max_iterations: 8,
            latency_requests: 64,
            batch: 16,
            batches: 3,
            writes: 16,
        }
    }

    /// A size for smoke tests.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            corpus_files: 24,
            pool_files: 6,
            epochs: 1,
            setups: 1,
            prepares: 2,
            min_iterations: 1,
            max_iterations: 1,
            latency_requests: 6,
            batch: 3,
            batches: 2,
            writes: 3,
        }
    }
}

/// What one pipeline iteration measured.
struct Iteration {
    prepare_s: f64,
    train_s: f64,
    /// Wall time without the first iteration's evaluation.
    wall_s: f64,
}

/// What the first iteration's model predicts: the reference every
/// later output is checked against.
struct Reference {
    artifact: Vec<u8>,
    pool_preds: Vec<Vec<SymbolPrediction>>,
    expected: Vec<Vec<u8>>,
    top1: (usize, usize),
}

/// Predicts the pool and the test split with the loaded model, and
/// checks that the in-memory model predicts exactly the same.
fn evaluate(
    system: &TrainedSystem,
    loaded: &TrainedSystem,
    data: &PreparedCorpus,
    pool: &[String],
    artifact: Vec<u8>,
    t: &Tracer,
    tally: &mut crate::report::Tally,
) -> Result<Reference, String> {
    let untraced = Tracer::new(false);
    let results = t
        .span("core.predict_batch", None, 0, |_| {
            loaded.predict_sources(pool)
        })
        .0;
    let mut pool_preds = Vec::with_capacity(results.len());
    for r in results {
        tally.record(r.is_ok());
        pool_preds.push(r.map_err(|e| format!("pool file does not parse: {e}"))?);
    }
    let expected: Vec<Vec<u8>> = pool_preds
        .iter()
        .map(|p| encode_reply(p, &untraced, None, 0))
        .collect();
    for (r, want) in system.predict_sources(pool).iter().zip(&expected) {
        tally.record(
            r.as_ref()
                .is_ok_and(|p| &encode_reply(p, &untraced, None, 0) == want),
        );
    }
    let mut evaluated = loaded.predict_files(data, &data.split.test);
    evaluated.extend(pool_preds.iter().cloned());
    Ok(Reference {
        artifact,
        top1: top1(&evaluated),
        pool_preds,
        expected,
    })
}

/// Runs the workload for about `seconds` seconds of measurement.
pub fn run(seed: u64, seconds: f64, t: &Tracer, scale: &Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = work_dir()?.join(format!("pipeline-{}.typilus", std::process::id()));

    // Set-up: generate the inputs, then one untimed training epoch over
    // the request pool settles the allocator and the code paths.
    let mut setups = Vec::with_capacity(scale.setups);
    let mut generated = None;
    for _ in 0..scale.setups.max(1) {
        let start = now();
        let inputs = Inputs::generate(CORPUS_SEED, seed, scale.corpus_files, scale.pool_files)?;
        let names: Vec<String> = (0..inputs.pool.len())
            .map(|i| format!("pool{i}.py"))
            .collect();
        let named: Vec<(&str, &str)> = names
            .iter()
            .zip(&inputs.pool)
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let warm = PreparedCorpus::from_sources(&named, &GraphConfig::default(), CORPUS_SEED);
        std::hint::black_box(typilus::train(&warm, &model_config(CORPUS_SEED, 1)));
        setups.push(secs_since(start));
        generated = Some(inputs);
    }
    let inputs = generated.ok_or("no set-up ran")?;
    let named: Vec<(&str, &str)> = inputs
        .corpus
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let config = model_config(CORPUS_SEED, scale.epochs);

    // Traced, the first iteration runs untraced and the second traced:
    // the artefacts must match byte for byte, and the wall-time ratio is
    // the tracing overhead.
    let untraced = Tracer::new(false);
    let budget = 0.85 * seconds;
    let start = now();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut stream = Stream::new(seed, 1, inputs.pool.len(), 0.0, 0, 1, 0);
    let mut next_file = move || match stream.next_op() {
        Op::Predict(i) | Op::Write(i) => i,
    };
    let mut latencies = Vec::new();
    let mut batch_rps = Vec::new();
    let mut write_ms = Vec::new();
    let mut annotate_ms = Vec::new();
    let mut markers = (0, 0);
    let mut reference: Option<Reference> = None;
    loop {
        let k = iterations.len();
        let done = if t.enabled() {
            k == 2
        } else {
            k >= scale.max_iterations || (k >= scale.min_iterations && secs_since(start) >= budget)
        };
        if done {
            break;
        }
        let it = if t.enabled() && k == 0 { &untraced } else { t };
        let wall = now();
        let mut prepares = Vec::with_capacity(scale.prepares);
        let mut prepared = None;
        for _ in 0..scale.prepares.max(1) {
            let (data, secs) = it.span("core.prepare", None, 0, |_| {
                PreparedCorpus::from_sources(&named, &config.graph, CORPUS_SEED)
            });
            prepares.push(secs);
            prepared = Some(data);
        }
        let data = prepared.ok_or("no preparation ran")?;
        let train_start = now();
        let system = layers::train(&data, &config, it);
        let train_s = secs_since(train_start);
        let saved = it.span("core.save", None, 0, |_| system.save(&path)).0;
        out.tally.record(saved.is_ok());
        saved.map_err(|e| format!("save: {e}"))?;
        let artifact = std::fs::read(&path).map_err(|e| format!("read artefact: {e}"))?;
        let loaded = it
            .span("core.load", None, 0, |_| TrainedSystem::load(&path))
            .0;
        out.tally.record(loaded.is_ok());
        let mut loaded = loaded.map_err(|e| format!("load: {e}"))?;
        let evaluation = now();
        let evaluate_s = match &reference {
            // Every iteration trains the same model: once its artefact
            // matches the first byte for byte, the first iteration's
            // predictions are this one's too.
            Some(r) => {
                out.tally.record(r.artifact == artifact);
                0.0
            }
            None => {
                let r = evaluate(
                    &system,
                    &loaded,
                    &data,
                    &inputs.pool,
                    artifact,
                    it,
                    &mut out.tally,
                );
                reference = Some(r?);
                secs_since(evaluation)
            }
        };
        drop(system);
        let Reference {
            expected,
            pool_preds,
            ..
        } = reference.as_ref().ok_or("no reference")?;
        // One annotation pass over the pool, spread over the first
        // iterations.
        if k < scale.min_iterations {
            let files = (k..inputs.pool.len()).step_by(scale.min_iterations);
            annotate(
                &loaded,
                &inputs.pool,
                files,
                it,
                &mut out.tally,
                &mut annotate_ms,
            );
        }

        // Single predicts, then batches, drawn by a seeded sequence.
        for _ in 0..scale.latency_requests {
            let i = next_file();
            let req = 1000 + latencies.len() as u64;
            let (got, secs) = it.span("pipeline.request", None, req, |id| {
                layers::predict(&loaded, &inputs.pool[i], it, id, req)
                    .map(|p| encode_reply(&p, it, id, req))
            });
            out.tally.record(got.as_ref() == Ok(&expected[i]));
            latencies.push(1e3 * secs);
        }
        for _ in 0..scale.batches {
            let files: Vec<usize> = (0..scale.batch).map(|_| next_file()).collect();
            let sources: Vec<String> = files.iter().map(|&i| inputs.pool[i].clone()).collect();
            let (results, secs) = it.span("core.predict_batch", None, 0, |_| {
                loaded.predict_sources(&sources)
            });
            batch_rps.push(files.len() as f64 / secs);
            for (r, &i) in results.iter().zip(&files) {
                out.tally.record(
                    r.as_ref()
                        .is_ok_and(|p| encode_reply(p, &untraced, None, 0) == expected[i]),
                );
            }
        }

        // Writes: each binds one annotated pool symbol to its type.
        let writes = write_list(seed.wrapping_add(k as u64), &annotated(pool_preds));
        let base = loaded.type_map.len();
        for (w, op) in writes.iter().take(scale.writes).enumerate() {
            let ty = op
                .ty
                .parse()
                .map_err(|e| format!("write type {}: {e}", op.ty))?;
            let req = 100_000 + write_ms.len() as u64;
            let start = now();
            let added =
                layers::add_marker(&mut loaded, &inputs.pool[op.file], &op.symbol, ty, it, req);
            write_ms.push(1e3 * secs_since(start));
            out.tally.record(added == Ok(base + w + 1));
        }
        markers = (loaded.type_map.len(), loaded.type_map.overlay_len());

        iterations.push(Iteration {
            prepare_s: median(&prepares),
            train_s,
            wall_s: secs_since(wall) - evaluate_s,
        });
    }
    let _ = std::fs::remove_file(&path);
    let reference = reference.ok_or("no iteration ran")?;

    latencies.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: p50/p99 over {} predicts, {} beyond p99",
        latencies.len(),
        beyond(latencies.len(), 0.99)
    );
    let (hits, total) = reference.top1;
    let col = |f: fn(&Iteration) -> f64| median(&iterations.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(&setups));
    out.set("prepare_s", col(|it| it.prepare_s));
    out.set("train_s", col(|it| it.train_s));
    out.set(
        "annotate_fps",
        1e3 * annotate_ms.len() as f64 / annotate_ms.iter().sum::<f64>(),
    );
    out.set("top1_acc", hits as f64 / total.max(1) as f64);
    out.set("p50_ms", percentile(&latencies, 0.5).unwrap_or(0.0));
    out.set("p99_ms", percentile(&latencies, 0.99).unwrap_or(0.0));
    out.set("throughput_rps", median(&batch_rps));
    out.set("write_p50_ms", median(&write_ms));
    if t.enabled() {
        summarize_layers(t, &mut out);
        out.set("space.markers", markers.0 as f64);
        out.set("space.overlay", markers.1 as f64);
        if let [plain, traced] = iterations.as_slice() {
            out.set("trace.overhead_ratio", traced.wall_s / plain.wall_s);
        }
    }
    Ok(out)
}
