//! Measures the blocked/fused NN kernels and the arena-backed tape, and
//! writes the numbers to `BENCH_nn.json` (override the path with
//! `TYPILUS_BENCH_OUT`).
//!
//! Three comparisons, each Fast (blocked kernels + arena + fused ops)
//! vs Naive (the pre-arena reference kernels, selected at runtime with
//! `set_kernel_mode`):
//!   * one full training step (forward + backward + Adam) of the GGNN
//!     model at hidden dims 64 and 128 — losses are asserted bitwise
//!     identical between the two modes before timing, and
//!     `step_speedup` is the median over five interleaved naive/fast
//!     step pairs ([`typilus_bench::speed::StepBench`], the measurement
//!     the speed gates run);
//!   * steady-state arena allocations per training step (fresh heap
//!     allocations after the pool is warm vs one allocation per tensor);
//!   * raw matmul / matmul_t / fused aᵀ·b / transpose kernels on
//!     square matrices.
//!
//! The JSON also records which SIMD tile width the dispatcher selected
//! (`sse2` baseline or the widened `avx2` tile). The per-op profiler
//! stays off, so its clock reads never enter these timings.

use typilus_bench::speed::{median, median_secs, write_report, StepBench};
use typilus_nn::{set_kernel_mode, KernelMode, Tensor};

/// Deterministic pseudo-random matrix (xorshift; no rand dependency
/// needed for a timing fixture).
fn fixture(rows: usize, cols: usize, mut state: u64) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.push((state >> 40) as f32 / (1 << 24) as f32 - 0.5);
    }
    Tensor::from_vec(rows, cols, data)
}

struct KernelReport {
    n: usize,
    matmul_fast: f64,
    matmul_naive: f64,
    matmul_t_fast: f64,
    matmul_t_naive: f64,
    matmul_at_b_fast: f64,
    matmul_at_b_naive: f64,
    transpose_fast: f64,
    transpose_naive: f64,
}

fn bench_kernels(n: usize) -> KernelReport {
    let a = fixture(n, n, 1);
    let b = fixture(n, n, 2);
    set_kernel_mode(KernelMode::Fast);
    let fast = a.matmul(&b);
    let fast_at_b = a.matmul_at_b(&b);
    set_kernel_mode(KernelMode::Naive);
    let naive = a.matmul(&b);
    let naive_at_b = a.matmul_at_b(&b);
    assert_eq!(
        fast.as_slice(),
        naive.as_slice(),
        "blocked matmul differs from reference"
    );
    assert_eq!(
        fast_at_b.as_slice(),
        naive_at_b.as_slice(),
        "fused a^T*b differs from reference"
    );

    let time = |mode: KernelMode, f: &dyn Fn() -> Tensor| {
        set_kernel_mode(mode);
        median_secs(7, || {
            std::hint::black_box(f());
        })
    };
    let report = KernelReport {
        n,
        matmul_fast: time(KernelMode::Fast, &|| a.matmul(&b)),
        matmul_naive: time(KernelMode::Naive, &|| a.matmul(&b)),
        matmul_t_fast: time(KernelMode::Fast, &|| a.matmul_t(&b)),
        matmul_t_naive: time(KernelMode::Naive, &|| a.matmul_t(&b)),
        matmul_at_b_fast: time(KernelMode::Fast, &|| a.matmul_at_b(&b)),
        matmul_at_b_naive: time(KernelMode::Naive, &|| a.matmul_at_b(&b)),
        transpose_fast: time(KernelMode::Fast, &|| a.transposed()),
        transpose_naive: time(KernelMode::Naive, &|| a.transposed()),
    };
    set_kernel_mode(KernelMode::Fast);
    report
}

fn main() {
    let mut dim_json = Vec::new();
    for dim in [64usize, 128] {
        eprintln!("timing training steps at dim {dim} (fast vs naive kernels, 5 pairs)...");
        let mut bench = StepBench::new(dim);
        let pairs = bench.pairs(5);
        let (naive, fast) = (
            median(pairs.iter().map(|p| p.reference)),
            median(pairs.iter().map(|p| p.candidate)),
        );
        let speedup = median(pairs.iter().map(|p| p.speedup()));
        let alloc_reduction = bench.fresh_naive as f64 / (bench.fresh_fast.max(1)) as f64;
        eprintln!(
            "  dim {dim}: {naive:.4}s -> {fast:.4}s ({speedup:.2}x), allocs/step {} -> {} ({alloc_reduction:.0}x)",
            bench.fresh_naive, bench.fresh_fast
        );
        dim_json.push(format!(
            "    {{\n      \"dim\": {},\n      \"step_secs_fast\": {:.6},\n      \
             \"step_secs_naive\": {:.6},\n      \"step_speedup\": {:.3},\n      \
             \"fresh_allocs_per_step_fast\": {},\n      \"fresh_allocs_per_step_naive\": {},\n      \
             \"arena_reuses_per_step\": {},\n      \"alloc_reduction\": {:.1}\n    }}",
            dim,
            fast,
            naive,
            speedup,
            bench.fresh_fast,
            bench.fresh_naive,
            bench.reused_fast,
            alloc_reduction,
        ));
    }

    let n = 256;
    eprintln!("timing {n}x{n} matmul / matmul_t / transpose kernels...");
    let k = bench_kernels(n);

    let json = format!(
        "{{\n  \"simd_width\": \"{}\",\n  \"train_step\": [\n{}\n  ],\n  \"kernels\": {{\n    \"n\": {},\n    \
         \"matmul_secs_fast\": {:.9},\n    \"matmul_secs_naive\": {:.9},\n    \
         \"matmul_speedup\": {:.3},\n    \"matmul_t_secs_fast\": {:.9},\n    \
         \"matmul_t_secs_naive\": {:.9},\n    \"matmul_t_speedup\": {:.3},\n    \
         \"matmul_at_b_secs_fast\": {:.9},\n    \"matmul_at_b_secs_naive\": {:.9},\n    \
         \"matmul_at_b_speedup\": {:.3},\n    \
         \"transpose_secs_fast\": {:.9},\n    \"transpose_secs_naive\": {:.9},\n    \
         \"transpose_speedup\": {:.3}\n  }}\n}}\n",
        typilus_nn::simd_width().name(),
        dim_json.join(",\n"),
        k.n,
        k.matmul_fast,
        k.matmul_naive,
        k.matmul_naive / k.matmul_fast.max(1e-12),
        k.matmul_t_fast,
        k.matmul_t_naive,
        k.matmul_t_naive / k.matmul_t_fast.max(1e-12),
        k.matmul_at_b_fast,
        k.matmul_at_b_naive,
        k.matmul_at_b_naive / k.matmul_at_b_fast.max(1e-12),
        k.transpose_fast,
        k.transpose_naive,
        k.transpose_naive / k.transpose_fast.max(1e-12),
    );
    write_report("BENCH_nn.json", &json);
}
