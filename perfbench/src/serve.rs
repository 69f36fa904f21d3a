//! `serve-tcp` and `serve-bigspace`: a model served by `typilus serve`
//! in process, driven through `typilus_serve::Client` in a closed loop.
//! A latency phase runs on one connection and a throughput phase on
//! two; every reply is checked against an in-process shadow of the
//! served model.

use crate::common::{
    annotate, annotated, encode_reply, model_config, summarize_layers, top1, work_dir, CORPUS_SEED,
};
use crate::inputs::{write_list, Inputs, Op, Rng, Stream, WriteOp};
use crate::layers::{self, PREDICT_STAGES};
use crate::report::{Outcome, Tally};
use crate::stats::{beyond, mean, median, percentile};
use crate::trace::{now, secs_since, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::thread::JoinHandle;
use typilus::{PreparedCorpus, SpaceConfig, SymbolPrediction, TrainedSystem};
use typilus_serve::{protocol, Client, Endpoint, Response, ServeOptions, ServeSummary, Server};
use typilus_space::TypeMap;
use typilus_types::PyType;

/// Salt of the marker jitter's generator stream.
const JITTER_SALT: u64 = 0x6a69_7474_6572;
/// Request ids of the latency phase start here; set-up, warm-up and
/// write spans use ids below.
const LATENCY_REQ: u64 = 1_000_000;
/// Request ids of the shadow's writes start here.
const WRITE_REQ: u64 = 500_000;

/// The transport and TypeSpace a serve workload runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TCP loopback, the trained type map, no writes while reading.
    Tcp,
    /// Unix socket, a sharded TypeSpace of jittered markers, writes
    /// mixed into the reads.
    BigSpace,
}

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Generated training corpus files.
    pub corpus_files: usize,
    /// Distinct held-out files requests are drawn from.
    pub pool_files: usize,
    /// Training epochs of the served model.
    pub epochs: usize,
    /// TypeSpace markers (0 keeps the trained type map).
    pub markers: usize,
    /// Share of `add-marker` writes among requests.
    pub write_share: f64,
    /// Set-ups per run; `setup_s` is their median. The model is built
    /// again after every round as well, and `train_s` is the median over
    /// all builds.
    pub setups: usize,
    /// Corpus preparations per model build; `prepare_s` is the median
    /// over every build of the run.
    pub prepares: usize,
    /// Untimed warm-up predicts per connection.
    pub warmup: usize,
    /// Writes timed after the read phases, when none are mixed in.
    pub tail_writes: usize,
    /// Requests of the latency phase at least.
    pub min_latency: usize,
    /// Requests per connection of the throughput phase at least.
    pub min_throughput: usize,
    /// Rounds of latency phase, throughput phase and annotation.
    pub rounds: usize,
    /// Pool files predicted once more at the end, after every write.
    pub final_checks: usize,
}

impl Scale {
    /// The benchmark's size for `kind`.
    pub fn full(kind: Kind) -> Scale {
        let base = Scale {
            corpus_files: 60,
            pool_files: 128,
            epochs: 2,
            markers: 0,
            write_share: 0.0,
            setups: 3,
            prepares: 3,
            warmup: 8,
            tail_writes: 40,
            min_latency: 40,
            min_throughput: 20,
            rounds: 6,
            final_checks: 32,
        };
        match kind {
            Kind::Tcp => base,
            Kind::BigSpace => Scale {
                markers: 100_000,
                write_share: 0.1,
                tail_writes: 0,
                final_checks: 128,
                ..base
            },
        }
    }

    /// A size for smoke tests.
    #[cfg(test)]
    pub fn tiny(kind: Kind) -> Scale {
        Scale {
            corpus_files: 24,
            pool_files: 6,
            epochs: 1,
            markers: if kind == Kind::BigSpace { 2_000 } else { 0 },
            setups: 2,
            prepares: 2,
            warmup: 2,
            tail_writes: if kind == Kind::Tcp { 3 } else { 0 },
            min_latency: 12,
            min_throughput: 4,
            rounds: 2,
            ..Scale::full(kind)
        }
    }
}

/// A served model and its shadow, ready to be measured.
struct Setup {
    server: JoinHandle<ServeSummary>,
    clients: Vec<Client>,
    shadow: TrainedSystem,
    corpus: Vec<(String, String)>,
    pool: Vec<String>,
    pool_preds: Vec<Vec<SymbolPrediction>>,
    expected: Vec<Vec<u8>>,
    files: Vec<PathBuf>,
}

/// Wall times of every corpus preparation and training of a run.
#[derive(Default)]
struct BuildTimes {
    prepare_s: Vec<f64>,
    train_s: Vec<f64>,
}

/// Prepares the training corpus `scale.prepares` times, then trains the
/// served model on it, recording each call's wall time.
fn build_model(
    corpus: &[(String, String)],
    scale: &Scale,
    t: &Tracer,
    times: &mut BuildTimes,
) -> Result<TrainedSystem, String> {
    let named: Vec<(&str, &str)> = corpus
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let config = model_config(CORPUS_SEED, scale.epochs);
    let mut prepared = None;
    for _ in 0..scale.prepares.max(1) {
        let (data, secs) = t.span("core.prepare", None, 0, |_| {
            PreparedCorpus::from_sources(&named, &config.graph, CORPUS_SEED)
        });
        times.prepare_s.push(secs);
        prepared = Some(data);
    }
    let data = prepared.ok_or("no preparation ran")?;
    let start = now();
    let system = layers::train(&data, &config, t);
    times.train_s.push(secs_since(start));
    Ok(system)
}

impl Setup {
    /// Shuts the server down and removes the run's files.
    fn finish(mut self, tally: &mut Tally) -> Result<ServeSummary, String> {
        let bye = self.clients.first_mut().map(|c| c.shutdown());
        tally.record(matches!(bye, Some(Ok(Response::Bye))));
        let summary = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
        Ok(summary)
    }
}

/// Generates the inputs, trains and saves the model, loads it twice
/// (served and shadow), computes the expected replies, binds the
/// server and warms up every connection.
fn setup(
    seed: u64,
    kind: Kind,
    scale: &Scale,
    rep: usize,
    t: &Tracer,
    tally: &mut Tally,
    times: &mut BuildTimes,
) -> Result<Setup, String> {
    let inputs = Inputs::generate(CORPUS_SEED, seed, scale.corpus_files, scale.pool_files)?;
    let mut system = build_model(&inputs.corpus, scale, t, times)?;
    if scale.markers > 0 {
        let mut config = system.config;
        config.approximate_index = true;
        config.space = SpaceConfig::default();
        system.config = config;
        system.type_map = jittered_map(&system.type_map, scale.markers, seed);
        let threads = config.parallelism.resolve();
        let pool = system.pool.get_or_create(|| threads);
        let built = t
            .span("space.index_build", None, 0, |_| {
                system
                    .type_map
                    .build_sharded_index(&config.space, seed, Some(pool))
            })
            .0;
        built.map_err(|e| format!("index build: {e}"))?;
    }

    let dir = work_dir()?;
    let stem = format!("{kind:?}-{}-{rep}", std::process::id()).to_lowercase();
    let path = dir.join(format!("{stem}.typilus"));
    let mut files = vec![path.clone(), typilus::space_sidecar_path(&path)];
    let saved = t.span("core.save", None, 0, |_| system.save(&path)).0;
    tally.record(saved.is_ok());
    saved.map_err(|e| format!("save: {e}"))?;
    drop(system);
    let mut load = || {
        let loaded = t
            .span("core.load", None, 0, |_| TrainedSystem::load(&path))
            .0;
        tally.record(loaded.is_ok());
        loaded.map_err(|e| format!("load: {e}"))
    };
    let served = load()?;
    let shadow = load()?;

    let results = t
        .span("core.predict_batch", None, 0, |_| {
            shadow.predict_sources(&inputs.pool)
        })
        .0;
    let mut pool_preds = Vec::with_capacity(results.len());
    let mut expected = Vec::with_capacity(results.len());
    for r in results {
        tally.record(r.is_ok());
        let preds = r.map_err(|e| format!("pool file does not parse: {e}"))?;
        expected.push(encode_reply(&preds, t, None, 0));
        pool_preds.push(preds);
    }

    let endpoint = match kind {
        Kind::Tcp => Endpoint::Tcp("127.0.0.1:0".to_string()),
        Kind::BigSpace => {
            let sock = dir.join(format!("{stem}.sock"));
            files.push(sock.clone());
            Endpoint::Unix(sock)
        }
    };
    let server = Server::bind(&endpoint, ServeOptions::default())
        .map_err(|e| format!("bind {endpoint}: {e}"))?;
    let endpoint = server.endpoint().clone();
    let server = std::thread::spawn(move || {
        let mut served = served;
        server.run(&mut served)
    });

    let mut clients = Vec::with_capacity(2);
    for c in 0..2 {
        let mut client = Client::connect(&endpoint).map_err(|e| format!("connect: {e}"))?;
        for w in 0..scale.warmup {
            let i = (c * scale.warmup + w) % inputs.pool.len();
            tally.record(
                reply_bytes(client.predict(&inputs.pool[i])).as_ref() == Some(&expected[i]),
            );
        }
        clients.push(client);
    }
    Ok(Setup {
        server,
        clients,
        shadow,
        corpus: inputs.corpus,
        pool: inputs.pool,
        pool_preds,
        expected,
        files,
    })
}

/// A type map of `markers` markers: the trained markers, then jittered
/// copies of them, so the space is clustered the way real embeddings
/// are.
fn jittered_map(trained: &TypeMap, markers: usize, seed: u64) -> TypeMap {
    let base: Vec<(&[f32], &PyType)> = trained.iter().collect();
    let squares: f64 = base
        .iter()
        .flat_map(|(e, _)| e.iter())
        .map(|&x| f64::from(x) * f64::from(x))
        .sum();
    let rms = (squares / (base.len() * trained.dim()).max(1) as f64).sqrt();
    let amplitude = 0.2 * rms;
    let mut rng = Rng::new(seed, JITTER_SALT);
    let mut map = TypeMap::new(trained.dim());
    for i in 0..markers.max(base.len()) {
        let (e, ty) = if i < base.len() {
            base[i]
        } else {
            base[rng.below(base.len())]
        };
        let point: Vec<f32> = if i < base.len() {
            e.to_vec()
        } else {
            e.iter()
                .map(|&x| x + (amplitude * (2.0 * rng.unit() - 1.0)) as f32)
                .collect()
        };
        map.add(point, ty.clone())
            .expect("jittered copies keep the map's width");
    }
    map
}

/// The encoded bytes of a `Predictions` reply; `None` for anything
/// else.
fn reply_bytes(reply: Result<Response, typilus_serve::ClientError>) -> Option<Vec<u8>> {
    match reply {
        Ok(r @ Response::Predictions(_)) => protocol::encode(&r).ok(),
        _ => None,
    }
}

/// The marker count an `add-marker` reply reports; `None` for anything
/// else.
fn marker_count(reply: Result<Response, typilus_serve::ClientError>) -> Option<usize> {
    match reply {
        Ok(Response::MarkerAdded { markers }) => Some(markers),
        _ => None,
    }
}

/// One request of a latency phase, as sent and answered.
enum Record {
    Predict {
        file: usize,
        reply: Option<Vec<u8>>,
        req: u64,
        /// Writes the server had applied when the predict was sent.
        writes_before: usize,
    },
    Write,
}

/// What one connection of the throughput phase did.
#[derive(Default)]
struct Conn {
    tally: Tally,
    predicts: usize,
    /// `(marker count replied, write index)` per write.
    writes: Vec<(Option<usize>, usize)>,
}

/// Drives one connection until `deadline` seconds have passed since
/// `start` and at least `min` requests were sent. Predict replies are
/// checked against `expected` when given; with writes mixed in, a
/// reply depends on how the other connection's writes interleaved, and
/// the final predict set checks the outcome instead.
#[allow(clippy::too_many_arguments)]
fn throughput_conn(
    client: &mut Client,
    stream: &mut Stream,
    pool: &[String],
    expected: Option<&[Vec<u8>]>,
    writes: &[WriteOp],
    start: std::time::Instant,
    deadline: f64,
    min: usize,
) -> Conn {
    let mut conn = Conn::default();
    let mut sent = 0;
    while sent < min || secs_since(start) < deadline {
        sent += 1;
        match stream.next_op() {
            Op::Predict(i) => {
                let reply = reply_bytes(client.predict(&pool[i]));
                let ok = match (&reply, expected) {
                    (Some(got), Some(expected)) => got == &expected[i],
                    (got, None) => got.is_some(),
                    (None, _) => false,
                };
                conn.tally.record(ok);
                conn.predicts += 1;
            }
            Op::Write(w) => {
                let op = &writes[w];
                let markers = marker_count(client.add_marker(&pool[op.file], &op.symbol, &op.ty));
                conn.tally.record(markers.is_some());
                conn.writes.push((markers, w));
            }
        }
    }
    conn
}

/// Runs the workload for about `seconds` seconds of measurement.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    t: &Tracer,
    scale: &Scale,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced = Tracer::new(false);

    // Set up several times; the last set-up is measured.
    let mut setup_s = Vec::new();
    let mut times = BuildTimes::default();
    let mut live: Option<Setup> = None;
    for rep in 0..scale.setups.max(1) {
        if let Some(previous) = live.take() {
            previous.finish(&mut out.tally)?;
        }
        let start = now();
        live = Some(setup(
            seed,
            kind,
            scale,
            rep,
            t,
            &mut out.tally,
            &mut times,
        )?);
        setup_s.push(secs_since(start));
    }
    let mut s = live.ok_or("no set-up ran")?;
    let n = s.pool.len();
    let writes = write_list(seed, &annotated(&s.pool_preds));
    let write_cap = if scale.write_share > 0.0 {
        writes.len() / 3
    } else {
        0
    };
    let base_markers = s.shadow.type_map.len();

    // Rounds of a latency phase on one connection and a throughput
    // phase on two, so both sample the whole run. Every stream keeps
    // its place across rounds; the throughput streams' writes take
    // alternate entries of the write list after the latency stream's.
    let rounds = scale.rounds.max(1);
    let latency_s = 0.5 * seconds / rounds as f64;
    let throughput_s = 0.4 * seconds / rounds as f64;
    let mut latency_stream = Stream::new(seed, 1, n, scale.write_share, 0, 1, write_cap);
    let mut conn_streams: Vec<Stream> = (0..s.clients.len())
        .map(|c| {
            Stream::new(
                seed,
                2 + c as u64,
                n,
                scale.write_share,
                write_cap + c,
                2,
                write_cap,
            )
        })
        .collect();
    let mut records = Vec::new();
    let mut predict_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut write_ms = Vec::new();
    // `(marker count replied, write index)` of every write the server
    // took; the counts give the order it applied them in.
    let mut applied_writes: Vec<(Option<usize>, usize)> = Vec::new();
    let mut round_rps = Vec::with_capacity(rounds);
    let mut annotate_ms = Vec::new();
    for round in 0..rounds {
        let start = now();
        let first = records.len();
        let client = &mut s.clients[0];
        while records.len() - first < scale.min_latency.div_ceil(rounds)
            || secs_since(start) < latency_s
        {
            let req = LATENCY_REQ + records.len() as u64;
            match latency_stream.next_op() {
                Op::Predict(file) => {
                    // Traced runs record every other round trip, so the
                    // unrecorded ones measure what recording costs.
                    let recorder = if t.enabled() && req.is_multiple_of(2) {
                        t
                    } else {
                        &untraced
                    };
                    let (reply, secs) = recorder.span("serve.roundtrip", None, req, |_| {
                        client.predict(&s.pool[file])
                    });
                    let ms = 1e3 * secs;
                    predict_ms.push(ms);
                    if t.enabled() {
                        if recorder.enabled() {
                            traced_ms.push(ms);
                        } else {
                            plain_ms.push(ms);
                        }
                    }
                    records.push(Record::Predict {
                        file,
                        reply: reply_bytes(reply),
                        req,
                        writes_before: applied_writes.len(),
                    });
                }
                Op::Write(write) => {
                    let op = &writes[write];
                    let (reply, secs) = t.span("serve.write", None, req, |_| {
                        client.add_marker(&s.pool[op.file], &op.symbol, &op.ty)
                    });
                    write_ms.push(1e3 * secs);
                    let markers = marker_count(reply);
                    out.tally.record(markers.is_some());
                    applied_writes.push((markers, write));
                    records.push(Record::Write);
                }
            }
        }

        let start = now();
        let expected = (write_cap == 0).then_some(s.expected.as_slice());
        let (pool, writes) = (&s.pool, &writes);
        let conns: Vec<Conn> = std::thread::scope(|scope| {
            let handles: Vec<_> = s
                .clients
                .iter_mut()
                .zip(conn_streams.iter_mut())
                .map(|(client, stream)| {
                    scope.spawn(move || {
                        throughput_conn(
                            client,
                            stream,
                            pool,
                            expected,
                            writes,
                            start,
                            throughput_s,
                            scale.min_throughput.div_ceil(rounds),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let wall = secs_since(start);
        round_rps.push(conns.iter().map(|c| c.predicts).sum::<usize>() as f64 / wall);
        for conn in &conns {
            out.tally.merge(conn.tally);
            applied_writes.extend(conn.writes.iter().copied());
        }

        // A share of the annotation pass, on the shadow.
        annotate(
            &s.shadow,
            &s.pool,
            (round..n).step_by(rounds),
            t,
            &mut out.tally,
            &mut annotate_ms,
        );

        // The served model is built again between rounds, so its
        // preparation and training times sample the whole run too.
        build_model(&s.corpus, scale, t, &mut times)?;
    }

    // Writes timed after the reads, when none were mixed in.
    let client = &mut s.clients[0];
    for (w, op) in writes.iter().enumerate().take(scale.tail_writes) {
        let (reply, secs) = t.span("serve.write", None, 0, |_| {
            client.add_marker(&s.pool[op.file], &op.symbol, &op.ty)
        });
        write_ms.push(1e3 * secs);
        applied_writes.push((marker_count(reply), w));
    }

    // Check the latency phases against the shadow, applying the writes
    // in the order the server applied them: each latency-phase predict
    // saw exactly the writes finished before it was sent.
    let mut order = applied_writes.clone();
    order.sort_by_key(|(markers, _)| *markers);
    let mut order = order.into_iter();
    let mut applied = 0usize;
    let mut apply =
        |upto: usize, shadow: &mut TrainedSystem, tally: &mut Tally| -> Result<(), String> {
            while applied < upto {
                let Some((markers, w)) = order.next() else {
                    break;
                };
                applied += 1;
                let op = &writes[w];
                let ty: PyType = op
                    .ty
                    .parse()
                    .map_err(|e| format!("write type {}: {e}", op.ty))?;
                let added = layers::add_marker(
                    shadow,
                    &s.pool[op.file],
                    &op.symbol,
                    ty,
                    t,
                    WRITE_REQ + applied as u64,
                );
                tally.record(markers == Some(base_markers + applied) && added.ok() == markers);
            }
            Ok(())
        };
    let mut memo: BTreeMap<(usize, usize), Vec<u8>> = s
        .expected
        .iter()
        .enumerate()
        .map(|(i, bytes)| ((i, 0), bytes.clone()))
        .collect();
    let mut targets = Vec::new();
    for record in &records {
        let Record::Predict {
            file,
            reply,
            req,
            writes_before,
        } = record
        else {
            continue;
        };
        apply(*writes_before, &mut s.shadow, &mut out.tally)?;
        let source = &s.pool[*file];
        let want = if t.enabled() {
            let (bytes, _) = t.span("serve.replay", None, *req, |id| {
                layers::predict(&s.shadow, source, t, id, *req).map(|p| {
                    targets.push(p.len() as f64);
                    encode_reply(&p, t, id, *req)
                })
            });
            bytes.ok()
        } else {
            let shadow = &s.shadow;
            Some(
                memo.entry((*file, *writes_before))
                    .or_insert_with(|| {
                        shadow
                            .predict_source(source)
                            .map(|p| encode_reply(&p, &untraced, None, 0))
                            .unwrap_or_default()
                    })
                    .clone(),
            )
        };
        out.tally.record(reply.is_some() && *reply == want);
    }
    apply(usize::MAX, &mut s.shadow, &mut out.tally)?;

    // The final predict set must match the shadow.
    for source in s.pool.iter().take(scale.final_checks) {
        let got = reply_bytes(client.predict(source));
        let want = s
            .shadow
            .predict_source(source)
            .map(|p| encode_reply(&p, &untraced, None, 0))
            .ok();
        out.tally.record(got.is_some() && got == want);
    }
    let stats = match client.stats() {
        Ok(Response::Stats(stats)) => Some(stats),
        _ => None,
    };
    out.tally.record(
        stats
            .as_ref()
            .is_some_and(|st| st.errors == 0 && st.markers == s.shadow.type_map.len()),
    );

    let (hits, total) = top1(&s.pool_preds);
    let summary = s.finish(&mut out.tally)?;
    out.tally.record(summary.errors == 0);

    predict_ms.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: p50/p99 over {} predicts, {} beyond p99",
        predict_ms.len(),
        beyond(predict_ms.len(), 0.99)
    );
    out.set("setup_s", median(&setup_s));
    out.set("prepare_s", median(&times.prepare_s));
    out.set("train_s", median(&times.train_s));
    out.set(
        "annotate_fps",
        1e3 * annotate_ms.len() as f64 / annotate_ms.iter().sum::<f64>(),
    );
    out.set("top1_acc", hits as f64 / total.max(1) as f64);
    out.set("p50_ms", percentile(&predict_ms, 0.5).unwrap_or(0.0));
    out.set("p99_ms", percentile(&predict_ms, 0.99).unwrap_or(0.0));
    out.set("throughput_rps", median(&round_rps));
    out.set("write_p50_ms", median(&write_ms));

    if t.enabled() {
        summarize_layers(t, &mut out);
        if let Some(st) = &stats {
            out.set("space.markers", st.markers as f64);
            out.set("space.overlay", st.overlay as f64);
            out.set("serve.batches", st.batches as f64);
            out.set("serve.largest_batch", st.largest_batch as f64);
            out.set("serve.errors", st.errors as f64);
            out.set(
                "serve.mean_batch",
                st.requests as f64 / (st.batches as f64).max(1.0),
            );
        }
        out.set("serve.targets_per_request", mean(&targets));
        let accounts = account(t, &traced_ms, &plain_ms);
        out.set("serve.roundtrip_ms", accounts.roundtrip_ms);
        out.set("serve.residual_ms", accounts.residual_ms);
        out.set("trace.reconcile_ratio", accounts.reconcile_ratio);
        out.set("trace.stage_coverage", stage_coverage(t));
        out.set("trace.overhead_ratio", accounts.overhead_ratio);
        out.tally
            .record((accounts.reconcile_ratio - 1.0).abs() < 1e-9);
    }
    Ok(out)
}

/// How a served request's time divides among the layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accounts {
    /// Client-observed mean round trip of the recorded requests.
    pub roundtrip_ms: f64,
    /// Round trip minus the stage means: socket, framing, queueing.
    pub residual_ms: f64,
    /// Stage means plus residual over the round trip; 1 when the
    /// accounting is whole.
    pub reconcile_ratio: f64,
    /// Mean recorded round trip over mean unrecorded round trip.
    pub overhead_ratio: f64,
}

/// Divides the recorded round trips among the replayed stages.
fn account(t: &Tracer, traced_ms: &[f64], plain_ms: &[f64]) -> Accounts {
    let replay = t.totals_where(|span| span.request >= LATENCY_REQ);
    let of = |name: &str| replay.get(name).copied().unwrap_or_default();
    let roundtrip = of("serve.roundtrip");
    let requests = of("serve.replay").count.max(1) as f64;
    let stages: Vec<f64> = PREDICT_STAGES
        .iter()
        .map(|s| 1e3 * of(s).total_s / requests)
        .collect();
    reconcile(
        &stages,
        1e3 * roundtrip.total_s / roundtrip.count.max(1) as f64,
        mean(traced_ms),
        mean(plain_ms),
    )
}

/// The share of the replayed `predict_source` calls their stage spans
/// cover: one minus the calls' self time over their total.
fn stage_coverage(t: &Tracer) -> f64 {
    let replay = t.totals_where(|span| span.request >= LATENCY_REQ);
    match replay.get("core.predict") {
        Some(p) if p.total_s > 0.0 => 1.0 - p.self_s / p.total_s,
        _ => 0.0,
    }
}

/// The accounting arithmetic over per-request stage means.
pub fn reconcile(stages: &[f64], roundtrip_ms: f64, traced_ms: f64, plain_ms: f64) -> Accounts {
    let stage_sum: f64 = stages.iter().sum();
    let residual_ms = roundtrip_ms - stage_sum;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    Accounts {
        roundtrip_ms,
        residual_ms,
        reconcile_ratio: ratio(stage_sum + residual_ms, roundtrip_ms),
        overhead_ratio: ratio(traced_ms, plain_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_what_the_stages_leave_of_the_round_trip() {
        let a = reconcile(&[1.0, 0.5, 2.0, 0.25, 3.0, 1.0, 0.25], 50.0, 10.2, 10.0);
        assert_eq!(a.residual_ms, 50.0 - 8.0);
        assert_eq!(a.reconcile_ratio, 1.0);
        assert!((a.overhead_ratio - 1.02).abs() < 1e-12);
        let empty = reconcile(&[], 0.0, 0.0, 0.0);
        assert_eq!(empty.reconcile_ratio, 0.0);
        assert_eq!(empty.overhead_ratio, 0.0);
    }

    #[test]
    fn jittered_map_keeps_the_trained_markers_first() {
        let mut trained = TypeMap::new(2);
        let (int, str) = (PyType::named("int"), PyType::named("str"));
        trained.add(vec![1.0, 0.0], int.clone()).expect("width 2");
        trained.add(vec![0.0, 1.0], str.clone()).expect("width 2");
        let map = jittered_map(&trained, 50, 3);
        assert_eq!(map.len(), 50);
        let rows: Vec<(Vec<f32>, PyType)> =
            map.iter().map(|(e, t)| (e.to_vec(), t.clone())).collect();
        assert_eq!(rows[0], (vec![1.0, 0.0], int.clone()));
        assert_eq!(rows[1], (vec![0.0, 1.0], str));
        assert!(rows[2..].iter().all(|(e, t)| {
            let near = |x: f32, y: f32| (x - y).abs() <= 0.2;
            if *t == int {
                near(e[0], 1.0) && near(e[1], 0.0)
            } else {
                near(e[0], 0.0) && near(e[1], 1.0)
            }
        }));
        let again = jittered_map(&trained, 50, 3);
        let same: Vec<(Vec<f32>, PyType)> =
            again.iter().map(|(e, t)| (e.to_vec(), t.clone())).collect();
        assert_eq!(rows, same);
    }
}
