//! `bench_space` — the million-marker TypeSpace index benchmark.
//!
//! For 10⁴, 10⁵ and 10⁶ markers this measures, over a synthetic but
//! deterministic marker set ([`typilus_bench::speed::scale_report`],
//! the measurement the speed gates run):
//!
//! - **build**: serial vs 4-thread pooled sharded build of the on-disk
//!   payload, asserting the two byte streams are identical (the
//!   determinism contract);
//! - **recall@10** of the sharded index against `ExactIndex` over
//!   the same points;
//! - **query latency** p50/p99 of the zero-copy view per query, and
//!   the speedup over the exact scan as the median of five interleaved
//!   query pairs;
//! - **load**: opening the written sidecar through the O(header)
//!   mmap path vs the read-everything path plus a full checksum sweep.
//!
//! Writes `BENCH_space.json` (or `TYPILUS_BENCH_OUT`) and prints it to
//! stdout.

use typilus_bench::speed::{scale_report, space_config, write_report, ScaleReport, SPACE_DIM};

fn main() {
    let bench_dir =
        std::env::temp_dir().join(format!("typilus_bench_space_{}", std::process::id()));
    std::fs::create_dir_all(&bench_dir).expect("bench dir");
    let reports: Vec<ScaleReport> = [10_000, 100_000, 1_000_000]
        .into_iter()
        .map(|n| {
            eprintln!("[space] {n} markers...");
            scale_report(n, 5, &bench_dir)
        })
        .collect();
    std::fs::remove_dir_all(&bench_dir).ok();

    let mut rows = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\n      \"markers\": {},\n      \"search_k\": {},\n      \
             \"payload_bytes\": {},\n      \
             \"build_serial_s\": {:.4},\n      \"build_pooled4_s\": {:.4},\n      \
             \"build_speedup_4t\": {:.2},\n      \"recall_at_10\": {:.4},\n      \
             \"query_p50_us\": {:.1},\n      \"query_p99_us\": {:.1},\n      \
             \"exact_p50_us\": {:.1},\n      \"query_speedup_vs_exact\": {:.2},\n      \
             \"load_mmap_s\": {:.6},\n      \"load_read_verify_s\": {:.6}\n    }}",
            r.markers,
            r.search_k,
            r.payload_bytes,
            r.build_serial_s,
            r.build_pooled_s,
            r.build_serial_s / r.build_pooled_s.max(1e-9),
            r.recall_at_10,
            r.query_p50_us,
            r.query_p99_us,
            r.exact_p50_us,
            r.query_speedup_vs_exact,
            r.load_mmap_s,
            r.load_read_verify_s
        ));
    }
    // The build speedup is only meaningful with >= 4 physical cores;
    // record how many this host had so the ratio can be interpreted.
    let cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let config = space_config(0);
    let json = format!(
        "{{\n  \"bench\": \"space\",\n  \"dim\": {SPACE_DIM},\n  \"shards\": {},\n  \
         \"trees\": {},\n  \"leaf_size\": {},\n  \"k\": 10,\n  \"host_cpus\": {cpus},\n  \
         \"scales\": [\n{rows}\n  ]\n}}\n",
        config.shards, config.forest.trees, config.forest.leaf_size
    );
    write_report("BENCH_space.json", &json);
}
