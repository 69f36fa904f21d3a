//! Speed gates: each fast path must keep the speedup it was committed
//! with. Timings mean nothing in a debug build, so every gate is
//! `#[ignore]`d and run in release, one test at a time:
//!
//! ```sh
//! cargo test --release -p typilus-bench --test speed_gates -- --ignored --test-threads=1
//! ```
//!
//! A timing gate reads the median of [`PAIRS`] interleaved pair ratios
//! (see [`typilus_bench::speed`]): one run's ratio spreads wider than a
//! 10% floor on a small host, the median of several does not. Floors:
//!
//! | gate | floor |
//! |---|---|
//! | nn fast/naive train-step speedup, dims 64 and 128 | ≥ 0.9 × `step_speedup` in `BENCH_nn.json` |
//! | sharded/exact query speedup, 10⁴ and 10⁵ markers | ≥ 0.9 × `query_speedup_vs_exact` in `BENCH_space.json` |
//! | serve throughput, 4 clients over 1 | ≥ [`MIN_THROUGHPUT_SCALING`] |
//! | serve `catch_unwind` supervision, p50 ratio | < [`MAX_SUPERVISION_OVERHEAD`] |
//!
//! Recall@10 of the sharded index against the exact scan (≥ 0.95 at
//! 10⁴ and 10⁵ markers) is deterministic, so that gate is not ignored:
//! plain `cargo test` runs it in a few seconds.

use std::path::Path;
use std::time::Instant;

use typilus::{EncoderKind, GraphConfig, LossKind, TrainedSystem};
use typilus_bench::speed::{median, Pair, SpaceBench, StepBench};
use typilus_bench::{config_for, prepare, train_logged, Scale};
use typilus_nn::{resolve_threads, WorkerPool};
use typilus_serve::{Client, Endpoint, Response, ServeOptions, Server};

/// Interleaved pairs behind each timing gate's median.
const PAIRS: usize = 7;

/// A gate's floor as a fraction of the committed speedup.
const FLOOR: f64 = 0.9;

/// Half the throughput scaling of 4 clients over 1 that the serve
/// benchmark reported when the gate was set (3.877).
const MIN_THROUGHPUT_SCALING: f64 = 1.94;

/// The most the serve engine's panic supervision may add to a
/// predict's p50.
const MAX_SUPERVISION_OVERHEAD: f64 = 1.05;

/// Predict requests per client in one serve throughput run.
const REQUESTS_PER_CLIENT: usize = 20;

fn assert_release() {
    if cfg!(debug_assertions) {
        panic!("speed gates time release code: run them with `cargo test --release`");
    }
}

/// The value of `field` in each record of a committed report, keyed by
/// the `key` field seen last before it (the reports put one field per
/// line).
fn committed(file: &str, key: &str, field: &str) -> Vec<(usize, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read committed {}: {e}", path.display()));
    let mut current = None;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((name, value)) = line.trim().trim_end_matches(',').split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim().trim_matches('"'), value.trim());
        if name == key {
            current = value.parse().ok();
        } else if name == field {
            let k = current.unwrap_or_else(|| panic!("{file}: {field} before any {key}"));
            let v = value
                .parse()
                .unwrap_or_else(|_| panic!("{file}: {field} {value:?} is not a number"));
            out.push((k, v));
        }
    }
    assert!(!out.is_empty(), "{file} has no {field}");
    out
}

/// Prints the spread of a gate's `ratios` beside its `bound` and
/// returns their median.
fn spread(label: &str, ratios: &[f64], bound: &str) -> f64 {
    let got = median(ratios.iter().copied());
    println!(
        "{label}: median {got:.3}x over {} pairs (min {:.3}, max {:.3}), {bound}",
        ratios.len(),
        ratios.iter().copied().fold(f64::INFINITY, f64::min),
        ratios.iter().copied().fold(0.0, f64::max),
    );
    got
}

/// Checks that the median of `ratios` reaches `floor`.
fn at_least(label: &str, ratios: &[f64], floor: f64) -> Result<(), String> {
    let got = spread(label, ratios, &format!("floor {floor:.3}x"));
    if got >= floor {
        Ok(())
    } else {
        Err(format!("{label}: median {got:.3}x < floor {floor:.3}x"))
    }
}

/// The speedups of `pairs`.
fn speedups(pairs: &[Pair]) -> Vec<f64> {
    pairs.iter().map(Pair::speedup).collect()
}

/// Fails with every gate's message, after every gate has run.
fn assert_all(results: Vec<Result<(), String>>) {
    let failures: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[ignore]
fn nn_fast_kernels_keep_their_train_step_speedup() {
    assert_release();
    let results = committed("BENCH_nn.json", "dim", "step_speedup")
        .into_iter()
        .map(|(dim, speedup)| {
            let pairs = StepBench::new(dim).pairs(PAIRS);
            at_least(&format!("nn dim {dim}"), &speedups(&pairs), FLOOR * speedup)
        })
        .collect();
    assert_all(results);
}

/// The gated marker counts; 10⁶ is too slow to build for a gate.
const GATED_MARKERS: [usize; 2] = [10_000, 100_000];

#[test]
#[ignore]
fn sharded_index_keeps_its_query_speedup_over_exact() {
    assert_release();
    let committed = committed("BENCH_space.json", "markers", "query_speedup_vs_exact");
    let pool = WorkerPool::new(resolve_threads(None));
    let results = GATED_MARKERS
        .iter()
        .map(|&n| {
            let (_, speedup) = committed
                .iter()
                .find(|&&(m, _)| m == n)
                .unwrap_or_else(|| panic!("BENCH_space.json has no {n}-marker scale"));
            let mut bench = SpaceBench::new(n, Some(&pool));
            let pairs: Vec<Pair> = (0..PAIRS).map(|_| bench.query_pair().pair()).collect();
            at_least(
                &format!("space {n} markers"),
                &speedups(&pairs),
                FLOOR * speedup,
            )
        })
        .collect();
    assert_all(results);
}

#[test]
fn sharded_index_recall_at_10_holds_the_floor() {
    let pool = WorkerPool::new(resolve_threads(None));
    for n in GATED_MARKERS {
        let recall = SpaceBench::new(n, Some(&pool)).recall_at_10();
        println!("space {n} markers: recall@10 {recall:.4}, floor 0.95");
        assert!(recall >= 0.95, "{n} markers: recall@10 {recall:.4} < 0.95");
    }
}

/// A small trained system and eight of its corpus files as requests.
fn serve_fixture() -> (TrainedSystem, Vec<String>) {
    let scale = Scale::small();
    let graph = GraphConfig::default();
    let (corpus, data) = prepare(&scale, &graph);
    let config = config_for(&scale, EncoderKind::Graph, LossKind::Typilus, graph);
    let system = train_logged("serve", &data, &config);
    let sources = corpus
        .files
        .iter()
        .take(8)
        .map(|f| f.source.clone())
        .collect();
    (system, sources)
}

/// Requests per second of `clients` concurrent clients sending
/// [`REQUESTS_PER_CLIENT`] predicts each, asserting every reply is a
/// prediction.
fn throughput(endpoint: &Endpoint, sources: &[String], clients: usize) -> f64 {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let (endpoint, sources) = (endpoint.clone(), sources.to_vec());
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).expect("connect");
                for r in 0..REQUESTS_PER_CLIENT {
                    let reply = client.predict(&sources[(c + r) % sources.len()]);
                    assert!(
                        matches!(reply, Ok(Response::Predictions(_))),
                        "{clients} clients: error reply {reply:?}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    (clients * REQUESTS_PER_CLIENT) as f64 / wall.elapsed().as_secs_f64()
}

#[test]
#[ignore]
fn serve_throughput_scales_with_concurrent_clients() {
    assert_release();
    let (mut system, sources) = serve_fixture();
    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServeOptions::default(),
    )
    .expect("bind ephemeral port");
    let endpoint = server.endpoint().clone();
    let server_thread = std::thread::spawn(move || server.run(&mut system));
    let scaling: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (one, four) = if i % 2 == 0 {
                let one = throughput(&endpoint, &sources, 1);
                (one, throughput(&endpoint, &sources, 4))
            } else {
                let four = throughput(&endpoint, &sources, 4);
                (throughput(&endpoint, &sources, 1), four)
            };
            four / one
        })
        .collect();
    let reply = Client::connect(&endpoint).and_then(|mut c| c.shutdown());
    assert!(matches!(reply, Ok(Response::Bye)), "shutdown: {reply:?}");
    let summary = server_thread.join().expect("server thread");
    assert_eq!(summary.errors, 0);
    at_least(
        "serve throughput, 4 clients over 1",
        &scaling,
        MIN_THROUGHPUT_SCALING,
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

/// The p50 ratio of predicts inside the engine's `catch_unwind` wrapper
/// over direct calls, the two arms interleaved per request.
fn supervision_overhead(system: &TrainedSystem, sources: &[String]) -> f64 {
    const REPS: usize = 60;
    let time = |supervised: bool, src: &String| {
        let t = Instant::now();
        if supervised {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                system.predict_source(src)
            }));
        } else {
            let _ = system.predict_source(src);
        }
        t.elapsed().as_secs_f64()
    };
    let (mut direct, mut supervised) = (Vec::new(), Vec::new());
    for r in 0..REPS {
        let src = &sources[r % sources.len()];
        // Alternate which arm goes first so warm-up favours neither.
        if r % 2 == 0 {
            direct.push(time(false, src));
            supervised.push(time(true, src));
        } else {
            supervised.push(time(true, src));
            direct.push(time(false, src));
        }
    }
    median(supervised) / median(direct).max(1e-12)
}

#[test]
#[ignore]
fn serve_supervision_costs_under_five_percent_p50() {
    assert_release();
    let (system, sources) = serve_fixture();
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|_| supervision_overhead(&system, &sources))
        .collect();
    let got = spread(
        "serve supervision overhead",
        &ratios,
        &format!("bound < {MAX_SUPERVISION_OVERHEAD}x"),
    );
    assert!(
        got < MAX_SUPERVISION_OVERHEAD,
        "supervision p50 overhead {got:.3}x >= {MAX_SUPERVISION_OVERHEAD}"
    );
}
