//! Measures the whole-workspace lint pass — lex, fn/item parse, call
//! graph construction and every rule family — and writes the numbers
//! to `BENCH_lint.json` (override the path with `TYPILUS_BENCH_OUT`).
//!
//! The lint runs on every `cargo run -p typilus-lint` in tier-1, so
//! its wall time is part of the edit-compile-gate loop; this bench
//! pins it down together with the call-graph scale it resolves
//! (files, fns, edges, reachable sets). Sources are read once up
//! front so the measured reps time the analysis, not the filesystem.

use typilus_bench::speed::{median_secs, write_report};
use typilus_lint::lint_files;

fn main() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let paths = typilus_lint::workspace_files(&root).expect("walk workspace");
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            (rel, std::fs::read_to_string(p).expect("read source"))
        })
        .collect();
    let loc: usize = files.iter().map(|(_, s)| s.lines().count()).sum();

    let report = lint_files(&files).expect("workspace lints");
    let st = &report.stats;

    let reps = 11;
    eprintln!("timing the full workspace pass, {reps} reps...");
    let secs = median_secs(reps, || {
        std::hint::black_box(lint_files(&files).expect("workspace lints"));
    });

    let json = format!(
        "{{\n  \"files\": {},\n  \"lines\": {loc},\n  \"fns\": {},\n  \"edges\": {},\n  \
         \"serve_reachable\": {},\n  \"hotpath_reachable\": {},\n  \
         \"suppressions\": {},\n  \"pass_secs\": {secs:.6},\n  \
         \"klines_per_sec\": {:.1}\n}}\n",
        st.files,
        st.fns,
        st.edges,
        st.serve_reachable,
        st.hotpath_reachable,
        st.suppressions,
        loc as f64 / 1000.0 / secs.max(1e-12),
    );
    write_report("BENCH_lint.json", &json);
}
