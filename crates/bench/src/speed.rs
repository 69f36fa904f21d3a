//! The speed measurements behind the `bench_nn` and `bench_space`
//! reports and the gates in `tests/speed_gates.rs`. Each measurement
//! exists once, here, so a committed report and the gate that reads it
//! always time the same thing.
//!
//! A speedup is a ratio of two arms timed back to back ([`Pair`]), and
//! a report or gate takes the [`median`] over several pairs: host drift
//! then lands on both arms of a pair, and one slow pair cannot move the
//! verdict.

use std::path::Path;
use std::time::Instant;

use typilus::{EncoderKind, GraphConfig, LossKind};
use typilus_models::{PreparedFile, TypeModel};
use typilus_nn::{arena_stats, set_kernel_mode, Adam, KernelMode, WorkerPool};
use typilus_space::{
    build_payload, ExactIndex, Hit, PointStore, QueryScratch, RpForestConfig, SpaceConfig,
    SpaceIndex,
};

use crate::{config_for, prepare, Scale};

/// One interleaved timing pair: the reference arm (naive kernels, exact
/// scan) and the candidate arm (fast kernels, sharded index), timed back
/// to back.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Seconds (or µs) of the reference arm.
    pub reference: f64,
    /// Same unit, candidate arm.
    pub candidate: f64,
}

impl Pair {
    /// How many times faster the candidate arm ran.
    pub fn speedup(&self) -> f64 {
        self.reference / self.candidate.max(1e-12)
    }
}

/// The median of `values` (the upper one of an even count); 0 when
/// empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// The `p`-quantile of an ascending slice (nearest rank); 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Runs `f` once: its value and the wall-clock seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// One GGNN training step (forward + backward + Adam) at a given hidden
/// dim, in both kernel modes. Each mode trains its own clone of one
/// model, so both arms time the same parameter trajectory.
pub struct StepBench {
    prepared: Vec<PreparedFile>,
    batch: Vec<usize>,
    fast: (TypeModel, Adam),
    naive: (TypeModel, Adam),
    /// Fresh arena allocations of one warm fast step.
    pub fresh_fast: u64,
    /// Fresh arena allocations of one warm naive step.
    pub fresh_naive: u64,
    /// Arena reuses of one warm fast step.
    pub reused_fast: u64,
}

impl StepBench {
    /// Prepares a 16-file corpus and one batch, asserts that both kernel
    /// modes give the same loss to the bit, then warms each mode's arena
    /// pool and counts one warm step's allocations.
    pub fn new(dim: usize) -> StepBench {
        let scale = Scale {
            files: 16,
            epochs: 1,
            dim,
            gnn_steps: 3,
            seed: 0,
            common_threshold: 8,
        };
        let graph = GraphConfig::default();
        let (_, data) = prepare(&scale, &graph);
        let config = config_for(&scale, EncoderKind::Graph, LossKind::Typilus, graph);
        let model = TypeModel::new(config.model, &data.graphs_of(&data.split.train));
        let prepared: Vec<PreparedFile> =
            data.files.iter().map(|f| model.prepare(&f.graph)).collect();
        let batch: Vec<usize> = data
            .split
            .train
            .iter()
            .take(config.batch_size)
            .copied()
            .collect();
        let refs: Vec<&PreparedFile> = batch.iter().map(|&i| &prepared[i]).collect();
        let loss = |mode| {
            set_kernel_mode(mode);
            model.train_step(&refs).expect("annotated batch").0
        };
        let (loss_fast, loss_naive) = (loss(KernelMode::Fast), loss(KernelMode::Naive));
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(
            loss_fast.to_bits(),
            loss_naive.to_bits(),
            "dim {dim}: fast loss {loss_fast} != naive loss {loss_naive}"
        );
        let mut bench = StepBench {
            prepared,
            batch,
            fast: (model.clone(), Adam::new(config.lr)),
            naive: (model, Adam::new(config.lr)),
            fresh_fast: 0,
            fresh_naive: 0,
            reused_fast: 0,
        };
        for mode in [KernelMode::Naive, KernelMode::Fast] {
            for _ in 0..3 {
                bench.step_secs(mode);
            }
            let before = arena_stats();
            bench.step_secs(mode);
            let allocs = arena_stats().since(&before);
            match mode {
                KernelMode::Fast => {
                    bench.fresh_fast = allocs.fresh;
                    bench.reused_fast = allocs.reused;
                }
                KernelMode::Naive => bench.fresh_naive = allocs.fresh,
            }
        }
        bench
    }

    /// Times one training step in `mode`, the optimizer update included
    /// as in the pipeline's per-batch work.
    pub fn step_secs(&mut self, mode: KernelMode) -> f64 {
        let (model, adam) = match mode {
            KernelMode::Fast => &mut self.fast,
            KernelMode::Naive => &mut self.naive,
        };
        let batch: Vec<&PreparedFile> = self.batch.iter().map(|&i| &self.prepared[i]).collect();
        set_kernel_mode(mode);
        let (_, secs) = timed(|| {
            let (loss, grads) = model.train_step(&batch).expect("annotated batch");
            adam.step(&mut model.params, grads);
            std::hint::black_box(loss)
        });
        set_kernel_mode(KernelMode::Fast);
        secs
    }

    /// `n` interleaved (naive, fast) step timings; the arm that goes
    /// first alternates so warm-up cannot favour one mode.
    pub fn pairs(&mut self, n: usize) -> Vec<Pair> {
        (0..n)
            .map(|i| {
                let (reference, candidate) = if i % 2 == 0 {
                    let naive = self.step_secs(KernelMode::Naive);
                    (naive, self.step_secs(KernelMode::Fast))
                } else {
                    let fast = self.step_secs(KernelMode::Fast);
                    (self.step_secs(KernelMode::Naive), fast)
                };
                Pair {
                    reference,
                    candidate,
                }
            })
            .collect()
    }
}

/// Width of the synthetic markers of the space benchmark.
pub const SPACE_DIM: usize = 32;

/// Neighbours per query.
const K: usize = 10;

/// Deterministic synthetic markers: `n` points in `dim` dimensions from
/// a fixed LCG, loosely clustered so tree splits stay meaningful.
fn synth_points(n: usize, dim: usize, seed: u64) -> PointStore {
    let mut points = PointStore::new(dim);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let mut row = vec![0.0f32; dim];
    for i in 0..n {
        let center = (i % 97) as f32 * 0.05;
        for slot in row.iter_mut() {
            *slot = center + next();
        }
        points.push(&row);
    }
    points
}

/// The benchmarked index config at `n` markers: 8 shards of 16 trees.
/// The candidate budget grows with the marker count, because a fixed
/// search_k dilutes to vanishing recall at 10⁶ points.
pub fn space_config(n: usize) -> SpaceConfig {
    SpaceConfig {
        shards: 8,
        forest: RpForestConfig {
            trees: 16,
            leaf_size: 32,
            search_k: (n / 64).max(4096),
        },
        rebuild_threshold: 1024,
    }
}

/// Timed query latencies of one [`SpaceBench::query_pair`], in µs.
#[derive(Debug, Clone, Copy)]
pub struct QueryTiming {
    /// Sharded index p50 per query.
    pub sharded_p50_us: f64,
    /// Sharded index p99 per query.
    pub sharded_p99_us: f64,
    /// Exact scan p50 per query.
    pub exact_p50_us: f64,
}

impl QueryTiming {
    /// The p50 pair, exact scan as the reference arm.
    pub fn pair(&self) -> Pair {
        Pair {
            reference: self.exact_p50_us,
            candidate: self.sharded_p50_us,
        }
    }
}

/// The sharded index and the exact scan over `n` synthetic markers,
/// with a fixed query set drawn near the cluster centers.
pub struct SpaceBench {
    index: SpaceIndex,
    exact: ExactIndex,
    queries: PointStore,
    scratch: QueryScratch,
    hits: Vec<Hit>,
}

impl SpaceBench {
    /// Synthesizes the markers and builds the index on `pool` (serially
    /// when `None`; the payload is byte-identical either way).
    pub fn new(n: usize, pool: Option<&WorkerPool>) -> SpaceBench {
        let points = synth_points(n, SPACE_DIM, 11);
        let payload = build_payload(&points, &type_names(n), &space_config(n), 5, pool)
            .expect("sharded build");
        SpaceBench::over(points, payload)
    }

    fn over(points: PointStore, payload: Vec<u8>) -> SpaceBench {
        // Fewer queries at the largest scale: the exact scan is the
        // benchmark's own cost ceiling.
        let queries = if points.len() >= 1_000_000 { 50 } else { 100 };
        SpaceBench {
            index: SpaceIndex::from_payload_vec(payload).expect("open payload"),
            exact: ExactIndex::from_store(points),
            queries: synth_points(queries, SPACE_DIM, 77),
            scratch: QueryScratch::new(),
            hits: Vec::new(),
        }
    }

    /// Recall@10 of the sharded index against the exact scan.
    pub fn recall_at_10(&mut self) -> f64 {
        let (mut overlap, mut total) = (0usize, 0usize);
        for q in self.queries.rows() {
            let truth = self.exact.query(q, K);
            self.index
                .query_into(q, K, &mut self.scratch, &mut self.hits);
            total += truth.len();
            overlap += truth
                .iter()
                .filter(|t| self.hits.iter().any(|h| h.index == t.index))
                .count();
        }
        overlap as f64 / total.max(1) as f64
    }

    /// Per-query latencies over the query set: four timed passes of the
    /// warmed sharded index, then one of the exact scan.
    pub fn query_pair(&mut self) -> QueryTiming {
        for q in self.queries.rows() {
            self.index
                .query_into(q, K, &mut self.scratch, &mut self.hits);
        }
        let mut sharded = Vec::with_capacity(self.queries.len() * 4);
        for _ in 0..4 {
            for q in self.queries.rows() {
                let (_, secs) = timed(|| {
                    self.index
                        .query_into(q, K, &mut self.scratch, &mut self.hits)
                });
                sharded.push(secs * 1e6);
            }
        }
        let mut exact = Vec::with_capacity(self.queries.len());
        for q in self.queries.rows() {
            let (_, secs) = timed(|| {
                self.exact
                    .query_into(q, K, &mut self.scratch, &mut self.hits)
            });
            exact.push(secs * 1e6);
        }
        sharded.sort_by(f64::total_cmp);
        exact.sort_by(f64::total_cmp);
        QueryTiming {
            sharded_p50_us: percentile(&sharded, 0.50),
            sharded_p99_us: percentile(&sharded, 0.99),
            exact_p50_us: percentile(&exact, 0.50),
        }
    }
}

fn type_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("type_{}", i % 64)).collect()
}

/// Everything `bench_space` reports for one marker count.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Marker count.
    pub markers: usize,
    /// Candidate budget of the index at this count.
    pub search_k: usize,
    /// Size of the on-disk payload.
    pub payload_bytes: usize,
    /// Serial build time.
    pub build_serial_s: f64,
    /// Build time on a 4-thread pool.
    pub build_pooled_s: f64,
    /// Recall@10 against the exact scan.
    pub recall_at_10: f64,
    /// Median over the query pairs of the sharded p50, µs.
    pub query_p50_us: f64,
    /// Median over the query pairs of the sharded p99, µs.
    pub query_p99_us: f64,
    /// Median over the query pairs of the exact p50, µs.
    pub exact_p50_us: f64,
    /// Median over the query pairs of exact p50 / sharded p50.
    pub query_speedup_vs_exact: f64,
    /// Opening the written sidecar through the O(header) mmap path.
    pub load_mmap_s: f64,
    /// Opening it plus a full checksum sweep.
    pub load_read_verify_s: f64,
}

/// Measures one marker count: serial vs 4-thread build (asserting the
/// two payloads are byte-identical), recall@10, `pairs` query pairs,
/// and the sidecar load written under `dir`.
pub fn scale_report(n: usize, pairs: usize, dir: &Path) -> ScaleReport {
    let points = synth_points(n, SPACE_DIM, 11);
    let (names, config) = (type_names(n), space_config(n));
    let (serial, build_serial_s) = timed(|| build_payload(&points, &names, &config, 5, None));
    let pool = WorkerPool::new(4);
    let (pooled, build_pooled_s) =
        timed(|| build_payload(&points, &names, &config, 5, Some(&pool)));
    let (serial, pooled) = (serial.expect("serial build"), pooled.expect("pooled build"));
    assert_eq!(
        serial, pooled,
        "sharded build must be byte-identical at any thread count"
    );
    let payload_bytes = pooled.len();
    let mut bench = SpaceBench::over(points, pooled);
    let recall_at_10 = bench.recall_at_10();
    let timings: Vec<QueryTiming> = (0..pairs).map(|_| bench.query_pair()).collect();

    let sidecar = dir.join(format!("bench_{n}.space"));
    typilus::atomic_io::write_artifact(&sidecar, bench.index.payload()).expect("write sidecar");
    let (mapped, load_mmap_s) = timed(|| typilus::open_space_index(&sidecar));
    assert_eq!(mapped.expect("mmap open").file_id(), bench.index.file_id());
    let (swept, load_read_verify_s) = timed(|| {
        let swept = typilus::open_space_index(&sidecar).expect("open");
        swept.verify().map(|_| swept)
    });
    swept.expect("verify");
    std::fs::remove_file(&sidecar).ok();

    ScaleReport {
        markers: n,
        search_k: config.forest.search_k,
        payload_bytes,
        build_serial_s,
        build_pooled_s,
        recall_at_10,
        query_p50_us: median(timings.iter().map(|t| t.sharded_p50_us)),
        query_p99_us: median(timings.iter().map(|t| t.sharded_p99_us)),
        exact_p50_us: median(timings.iter().map(|t| t.exact_p50_us)),
        query_speedup_vs_exact: median(timings.iter().map(|t| t.pair().speedup())),
        load_mmap_s,
        load_read_verify_s,
    }
}
