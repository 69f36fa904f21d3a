//! Fixture tests: every rule fires on a seeded violation and stays
//! quiet on the compliant twin; suppressions silence findings only
//! with a justification; the lexer survives the tricky corners of
//! Rust's grammar it was built for.

use typilus_lint::{lint_source, Rule};

/// Lints a fixture under a synthetic non-test, non-exempt path.
fn diags(src: &str) -> Vec<(Rule, u32)> {
    lint_source("crates/fix/src/lib.rs", src)
        .expect("fixture lexes")
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

fn rules(src: &str) -> Vec<Rule> {
    diags(src).into_iter().map(|(r, _)| r).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_hashmap_for_loop() {
    let src = r#"
use std::collections::HashMap;
fn leak(m: &HashMap<String, usize>) {
    for (k, v) in m {
        println!("{k}={v}");
    }
}
"#;
    assert_eq!(diags(src), vec![(Rule::D1, 4)]);
}

#[test]
fn d1_fires_on_collect_into_vec() {
    let src = r#"
use std::collections::HashMap;
fn leak(m: HashMap<String, usize>) -> Vec<String> {
    m.into_iter().map(|(k, _)| k).collect()
}
"#;
    assert_eq!(rules(src), vec![Rule::D1]);
}

#[test]
fn d1_quiet_on_btreemap() {
    let src = r#"
use std::collections::BTreeMap;
fn ordered(m: &BTreeMap<String, usize>) {
    for (k, v) in m {
        println!("{k}={v}");
    }
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d1_quiet_on_order_insensitive_consumers() {
    let src = r#"
use std::collections::HashMap;
fn fine(m: &HashMap<String, usize>) -> (usize, bool) {
    (m.values().count(), m.values().any(|&v| v > 3))
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d1_quiet_on_integer_sum() {
    // Integer addition is commutative-exact: order cannot matter.
    let src = r#"
use std::collections::HashMap;
fn total(m: &HashMap<String, usize>) -> usize {
    m.values().sum()
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d1_fires_on_serialized_hashmap_field() {
    let src = r#"
use std::collections::HashMap;
#[derive(Serialize)]
struct Artifact {
    counts: HashMap<String, usize>,
}
"#;
    assert_eq!(diags(src), vec![(Rule::D1, 5)]);
}

#[test]
fn d1_quiet_on_serialized_btreemap_field() {
    let src = r#"
use std::collections::BTreeMap;
#[derive(Serialize)]
struct Artifact {
    counts: BTreeMap<String, usize>,
}
"#;
    assert!(diags(src).is_empty());
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_float_sum_over_hashmap() {
    let src = r#"
use std::collections::HashMap;
fn mean(m: &HashMap<String, f32>) -> f32 {
    m.values().sum::<f32>() / m.len() as f32
}
"#;
    assert_eq!(rules(src), vec![Rule::D2]);
}

#[test]
fn d2_fires_on_fold_over_hashset() {
    let src = r#"
use std::collections::HashSet;
fn acc(s: &HashSet<u32>) -> f64 {
    s.iter().fold(0.0, |a, &x| a + f64::from(x))
}
"#;
    assert_eq!(rules(src), vec![Rule::D2]);
}

#[test]
fn d2_quiet_on_float_sum_over_slice() {
    let src = r#"
fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}
"#;
    assert!(diags(src).is_empty());
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_fires_on_ad_hoc_env_read() {
    let src = r#"
fn threads() -> usize {
    std::env::var("THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}
"#;
    assert_eq!(diags(src), vec![(Rule::D3, 3)]);
}

#[test]
fn d3_quiet_in_designated_module() {
    let src = r#"
fn threads() -> usize {
    std::env::var("THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}
"#;
    let d = lint_source("crates/nn/src/par.rs", src).unwrap();
    assert!(d.is_empty(), "{d:?}");
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_fires_on_unwrap_in_spawned_closure() {
    let src = r#"
fn run(xs: Vec<String>) {
    std::thread::spawn(move || {
        let n: usize = xs[0].parse().unwrap();
        println!("{n}");
    });
}
"#;
    assert_eq!(diags(src), vec![(Rule::D4, 4)]);
}

#[test]
fn d4_fires_on_expect_in_map_ordered() {
    let src = r#"
fn run(pool: &WorkerPool, xs: &[String]) -> Vec<usize> {
    pool.map_ordered(xs, |_, x| x.parse().expect("numeric"))
}
"#;
    assert_eq!(rules(src), vec![Rule::D4]);
}

#[test]
fn d4_quiet_outside_worker_closures() {
    let src = r#"
fn run(xs: &[String]) -> usize {
    xs[0].parse().unwrap()
}
"#;
    assert!(diags(src).is_empty());
}

// ---------------------------------------------------------------- D5

#[test]
fn d5_fires_on_undocumented_unsafe() {
    let src = r#"
fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_eq!(diags(src), vec![(Rule::D5, 3)]);
}

#[test]
fn d5_quiet_with_adjacent_safety_comment() {
    let src = r#"
fn read(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d5_safety_comment_reaches_through_a_run_of_lines() {
    // "SAFETY:" on the first line of a multi-line explanation still
    // covers the unsafe token under the run's last line.
    let src = r#"
fn read(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads and the
    // allocation lives for the duration of this call, per the
    // contract documented on `read`.
    unsafe { *p }
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d5_fires_on_undocumented_unsafe_impl() {
    let src = r#"
struct P(*mut u8);
unsafe impl Send for P {}
"#;
    assert_eq!(diags(src), vec![(Rule::D5, 3)]);
}

// ---------------------------------------------------------------- D6

#[test]
fn d6_fires_on_instant_now() {
    let src = r#"
fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    assert_eq!(diags(src), vec![(Rule::D6, 3)]);
}

#[test]
fn d6_fires_on_thread_sleep() {
    let src = r#"
fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
"#;
    assert_eq!(rules(src), vec![Rule::D6]);
}

#[test]
fn d6_quiet_in_bench_paths() {
    let src = r#"
fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    let d = lint_source("crates/bench/src/lib.rs", src).unwrap();
    assert!(d.is_empty(), "{d:?}");
}

// ---------------------------------------------------------------- D7

#[test]
fn d7_fires_on_direct_fs_write() {
    let src = r#"
fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}
"#;
    assert_eq!(diags(src), vec![(Rule::D7, 3)]);
}

#[test]
fn d7_fires_on_file_create() {
    let src = r#"
use std::fs::File;
fn open(path: &std::path::Path) -> std::io::Result<File> {
    File::create(path)
}
"#;
    assert_eq!(diags(src), vec![(Rule::D7, 4)]);
}

#[test]
fn d7_quiet_on_reads_and_dir_creation() {
    let src = r#"
fn load(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    std::fs::create_dir_all(path.parent().unwrap())?;
    std::fs::read(path)
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d7_quiet_on_writer_method_calls() {
    let src = r#"
use std::io::Write;
fn emit(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    w.write(bytes).map(|_| ())
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn d7_quiet_in_designated_atomic_io_module() {
    let src = r#"
fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}
"#;
    let d = lint_source("crates/core/src/atomic_io.rs", src).unwrap();
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn d7_suppressible_with_justification() {
    let src = r#"
fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    // lint: allow(D7) — advisory report, never read back
    std::fs::write(path, bytes)
}
"#;
    assert!(diags(src).is_empty());
}

// ------------------------------------------------------- suppressions

#[test]
fn suppression_with_justification_silences_finding() {
    let src = r#"
use std::collections::HashMap;
fn jaccard(m: &HashMap<String, usize>) -> usize {
    let mut total = 0;
    // lint: allow(D1) — integer min-sum is commutative-exact
    for (_, &v) in m {
        total = total.max(v);
    }
    total
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn suppression_without_justification_is_itself_a_finding() {
    let src = r#"
use std::collections::HashMap;
fn leak(m: &HashMap<String, usize>) {
    // lint: allow(D1)
    for (k, v) in m {
        println!("{k}={v}");
    }
}
"#;
    let found = rules(src);
    assert!(found.contains(&Rule::Allow), "{found:?}");
}

#[test]
fn suppression_for_unknown_rule_is_rejected() {
    let src = r#"
fn f() {
    // lint: allow(D9) — no such rule
    let x = 1;
    let _ = x;
}
"#;
    assert!(rules(src).contains(&Rule::Allow));
}

#[test]
fn suppression_only_covers_the_next_code_line() {
    let src = r#"
use std::collections::HashMap;
fn leak(m: &HashMap<String, usize>) {
    // lint: allow(D1) — documented exception
    let _pairs: Vec<(&String, &usize)> = m.iter().collect();
    for (k, v) in m {
        println!("{k}={v}");
    }
}
"#;
    assert_eq!(diags(src), vec![(Rule::D1, 6)]);
}

// -------------------------------------------------- test-code exemption

#[test]
fn test_paths_are_exempt() {
    let src = r#"
use std::collections::HashMap;
fn leak(m: &HashMap<String, usize>) {
    for (k, v) in m {
        println!("{k}={v}");
    }
}
"#;
    let d = lint_source("crates/fix/tests/it.rs", src).unwrap();
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn cfg_test_regions_are_exempt() {
    let src = r#"
use std::collections::HashMap;

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn order_free() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (k, v) in &m {
            println!("{k}={v}");
        }
    }
}
"#;
    assert!(diags(src).is_empty());
}

// ------------------------------------------------- S: panic freedom

use typilus_lint::{lint_files, LintReport};

/// Lints a synthetic multi-file workspace; the call graph spans it.
fn workspace(files: &[(&str, &str)]) -> LintReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files(&owned).expect("fixture lexes")
}

#[test]
fn s1_fires_on_unwrap_reached_from_a_serve_root() {
    let src = r#"
// lint: root(serve)
fn handle(x: &str) -> usize {
    helper(x)
}
fn helper(x: &str) -> usize {
    x.parse().unwrap()
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::S1], "{:?}", report.diagnostics);
    // The message carries the offending call chain.
    assert!(
        report.diagnostics[0].message.contains("handle → helper"),
        "{}",
        report.diagnostics[0].message
    );
}

#[test]
fn s2_fires_on_panic_macro_and_s3_on_indexing() {
    let src = r#"
// lint: root(serve)
fn handle(xs: &[u32], i: usize) -> u32 {
    if i > xs.len() {
        panic!("bad index");
    }
    xs[i]
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::S2, Rule::S3], "{:?}", report.diagnostics);
}

#[test]
fn s_rules_quiet_off_the_reachable_set() {
    // Same panicking code, but no root reaches it: S stays quiet.
    let src = r#"
fn handle(x: &str) -> usize {
    x.parse().unwrap()
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn s_rules_quiet_in_test_code() {
    let src = r#"
// lint: root(serve)
fn handle(x: &str) -> usize {
    x.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Vec<u32> = vec![1];
        assert_eq!(v[0], 1);
    }
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn s1_suppressible_on_the_fn_header_with_justification() {
    let src = r#"
// lint: root(serve)
fn handle(x: &str) -> usize {
    helper(x)
}
// lint: allow(S) — input is validated by the framing layer first
fn helper(x: &str) -> usize {
    x.parse().unwrap()
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
}

// ------------------------------------ S: catch_unwind supervision

#[test]
fn s_rules_quiet_inside_a_catch_unwind_extent() {
    // The panic unwinds into the supervisor, not the client
    // connection: a supervised batch is a legitimate panic sink.
    let src = r#"
use std::panic::{catch_unwind, AssertUnwindSafe};

// lint: root(serve)
fn handle(x: &str) -> usize {
    let got = catch_unwind(AssertUnwindSafe(|| x.parse().unwrap()));
    got.unwrap_or(0)
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn s_rules_quiet_on_a_callee_reached_only_through_catch_unwind() {
    // Serve reachability must not flow through the supervised call, so
    // the helper's unwrap/indexing never become daemon killers.
    let src = r#"
use std::panic::{catch_unwind, AssertUnwindSafe};

// lint: root(serve)
fn handle(xs: &[u32]) -> u32 {
    catch_unwind(AssertUnwindSafe(|| risky(xs))).unwrap_or(0)
}
fn risky(xs: &[u32]) -> u32 {
    xs[0]
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn s_rules_fire_when_an_uncaught_edge_also_reaches_the_callee() {
    // The same helper called both under supervision and directly: the
    // direct edge keeps it serve-reachable and S3 must still fire.
    let src = r#"
use std::panic::{catch_unwind, AssertUnwindSafe};

// lint: root(serve)
fn handle(xs: &[u32]) -> u32 {
    let first = catch_unwind(AssertUnwindSafe(|| risky(xs))).unwrap_or(0);
    first + risky(xs)
}
fn risky(xs: &[u32]) -> u32 {
    xs[0]
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::S3], "{:?}", report.diagnostics);
}

#[test]
fn a1_still_fires_through_catch_unwind() {
    // Catching a panic does not undo allocations: hotpath reachability
    // keeps flowing through supervised calls.
    let src = r#"
use std::panic::{catch_unwind, AssertUnwindSafe};

// lint: root(hotpath)
fn query(xs: &[u32]) -> usize {
    catch_unwind(AssertUnwindSafe(|| scan(xs))).unwrap_or(0)
}
fn scan(xs: &[u32]) -> usize {
    let held: Vec<u32> = xs.to_vec();
    held.len()
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::A1], "{:?}", report.diagnostics);
}

// ----------------------------------------- A: hot-path allocations

#[test]
fn a1_fires_on_allocation_reached_from_a_hotpath_root() {
    let src = r#"
// lint: root(hotpath)
fn query(xs: &[u32]) -> usize {
    scan(xs)
}
fn scan(xs: &[u32]) -> usize {
    let held: Vec<u32> = xs.to_vec();
    held.len()
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::A1], "{:?}", report.diagnostics);
    assert!(
        report.diagnostics[0].message.contains("query → scan"),
        "{}",
        report.diagnostics[0].message
    );
}

#[test]
fn a1_quiet_on_serve_only_paths() {
    // Serve-reachable code may allocate; only hotpath roots forbid it.
    let src = r#"
// lint: root(serve)
fn handle(xs: &[u32]) -> Vec<u32> {
    xs.to_vec()
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

// ------------------------------------------- U: unsafe invariants

#[test]
fn u1_fires_on_unsafe_fn_without_safety_doc() {
    let src = r#"
/// Reads a raw byte.
unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid.
    unsafe { *p }
}
"#;
    assert_eq!(rules(src), vec![Rule::U1]);
}

#[test]
fn u1_quiet_with_safety_doc_section() {
    let src = r#"
/// Reads a raw byte.
///
/// # Safety
///
/// `p` must be valid for reads.
unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid, per the doc contract.
    unsafe { *p }
}
"#;
    assert!(diags(src).is_empty());
}

#[test]
fn u2_fires_on_pub_safe_fn_exposing_raw_pointer() {
    let src = r#"
pub fn base_ptr(xs: &[u8]) -> *const u8 {
    xs.as_ptr()
}
"#;
    assert_eq!(rules(src), vec![Rule::U2]);
}

#[test]
fn u2_quiet_on_private_and_unsafe_signatures() {
    let src = r#"
fn base_ptr(xs: &[u8]) -> *const u8 {
    xs.as_ptr()
}
"#;
    assert!(diags(src).is_empty());
}

// ------------------------------------------------ root annotations

#[test]
fn malformed_root_annotation_is_a_finding() {
    let src = r#"
// lint: root(serve
fn handle() {}
"#;
    assert!(rules(src).contains(&Rule::Allow));
}

#[test]
fn unknown_root_family_is_a_finding() {
    let src = r#"
// lint: root(fastpath)
fn handle() {}
"#;
    assert!(rules(src).contains(&Rule::Allow));
}

#[test]
fn floating_root_annotation_is_a_finding() {
    let src = r#"
// lint: root(serve)

struct NotAFn;
"#;
    assert!(rules(src).contains(&Rule::Allow));
}

// ---------------------------------------------- stale suppressions

#[test]
fn unused_suppression_is_reported_stale() {
    let src = r#"
// lint: allow(S1) — nothing here actually unwraps
fn calm(x: usize) -> usize {
    x + 1
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    assert_eq!(report.stale[0].line, 2);
    assert_eq!(report.stale[0].rules, vec![Rule::S1]);
}

#[test]
fn used_suppression_is_not_stale() {
    let src = r#"
use std::collections::HashMap;
fn leak(m: &HashMap<String, usize>) {
    // lint: allow(D1) — display order does not matter here
    for (k, v) in m {
        println!("{k}={v}");
    }
}
"#;
    let report = workspace(&[("crates/fix/src/lib.rs", src)]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
}

// ------------------------------------------------------ call graph

#[test]
fn call_graph_resolves_cross_crate_edges_within_declared_deps() {
    // `fix` depends on `util` (the `typilus_util` ident below declares
    // it); the chain handle → fetch → pick crosses the crate boundary
    // and still carries S3 back to the indexing site.
    let caller = r#"
use typilus_util::fetch;

// lint: root(serve)
fn handle(xs: &[u32]) -> u32 {
    fetch(xs)
}
"#;
    let callee = r#"
pub fn fetch(xs: &[u32]) -> u32 {
    pick(xs)
}
fn pick(xs: &[u32]) -> u32 {
    xs[0]
}
"#;
    let report = workspace(&[
        ("crates/fix/src/lib.rs", caller),
        ("crates/util/src/lib.rs", callee),
    ]);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::S3], "{:?}", report.diagnostics);
    assert!(
        report.diagnostics[0]
            .message
            .contains("handle → fetch → pick"),
        "{}",
        report.diagnostics[0].message
    );
    assert!(report.stats.edges >= 2, "{:?}", report.stats);
    assert!(report.stats.serve_reachable >= 3, "{:?}", report.stats);
}

#[test]
fn call_graph_refuses_edges_outside_the_dependency_closure() {
    // No `typilus_util` ident in the caller: same-named free fns in an
    // undeclared crate must not produce an edge, so nothing is
    // reachable and S stays quiet.
    let caller = r#"
// lint: root(serve)
fn handle(xs: &[u32]) -> u32 {
    fetch(xs)
}
fn fetch(xs: &[u32]) -> u32 {
    xs.len() as u32
}
"#;
    let callee = r#"
pub fn fetch(xs: &[u32]) -> u32 {
    xs[0]
}
"#;
    let report = workspace(&[
        ("crates/fix/src/lib.rs", caller),
        ("crates/util/src/lib.rs", callee),
    ]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}
