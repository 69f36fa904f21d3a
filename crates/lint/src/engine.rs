//! The lint engine: file classification, `#[cfg(test)]` region
//! tracking, suppression parsing, workspace walking, and rule dispatch.

use crate::callgraph::{close_deps, crate_and_stem, CallGraph, CrateDeps};
use crate::diag::{Diagnostic, LintReport, LintStats, Rule, StaleSuppression};
use crate::lexer::{lex, LexError, TokKind};
use crate::parse::{parse_fns, FnItem, RootKind};
use crate::{rules, sau};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A code token projected out of the raw stream: kind, text slice and
/// line. Comments are kept in a separate list (they drive suppressions
/// and `SAFETY:` checks, not the rule patterns).
#[derive(Debug, Clone, Copy)]
pub struct Ct<'a> {
    /// Token kind (never a comment kind in [`FileCx::code`]).
    pub kind: TokKind,
    /// The token's text.
    pub text: &'a str,
    /// 1-based start line.
    pub line: u32,
}

/// A comment with its line extent.
#[derive(Debug, Clone, Copy)]
pub struct Comment<'a> {
    /// Full comment text including the `//` or `/*` markers.
    pub text: &'a str,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based line of the last byte (equals `line` for line comments).
    pub end_line: u32,
}

/// Path-derived lint classification of one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Test code: every rule is off (`tests/`, `benches/`, `src/tests.rs`).
    pub test: bool,
    /// Designated environment-config module: D3 is off.
    pub env_module: bool,
    /// Bench/profile code: D6 is off.
    pub timing_exempt: bool,
    /// Designated atomic artifact-I/O module: D7 is off.
    pub artifact_io_module: bool,
    /// Leaf code (benches, examples, the lint itself) that nothing on a
    /// serve path can call: excluded from the call graph so its method
    /// names never absorb `.name(…)` resolution edges. File-local rules
    /// (D, U) still apply.
    pub graph_exempt: bool,
}

/// Modules allowed to read process environment variables (rule D3).
/// Everything else must go through the parse-once accessors these
/// modules export.
pub const ENV_MODULES: &[&str] = &[
    "crates/nn/src/par.rs",    // TYPILUS_THREADS (parse-once)
    "crates/bench/src/lib.rs", // bench scale/output knobs
];

/// Modules allowed to open files for writing directly (rule D7). All
/// artifact writes elsewhere must go through the atomic, checksummed
/// writer this module exports — a crash mid-`std::fs::write` leaves a
/// torn file that nothing can detect.
pub const ARTIFACT_IO_MODULES: &[&str] = &[
    "crates/core/src/atomic_io.rs", // the atomic writer itself
];

impl FileClass {
    /// Derives the class from a workspace-relative, `/`-separated path.
    pub fn from_path(path: &str) -> FileClass {
        let test = path.contains("/tests/")
            || path.starts_with("tests/")
            || path.ends_with("/tests.rs")
            || path.contains("/benches/");
        let env_module = ENV_MODULES.contains(&path);
        let timing_exempt = path.starts_with("crates/bench/")
            || path.ends_with("/profile.rs")
            || path.contains("/benches/");
        let artifact_io_module = ARTIFACT_IO_MODULES.contains(&path);
        let graph_exempt = path.starts_with("crates/bench/")
            || path.starts_with("crates/lint/")
            || path.starts_with("examples/")
            || path.contains("/examples/");
        FileClass {
            test,
            env_module,
            timing_exempt,
            artifact_io_module,
            graph_exempt,
        }
    }
}

/// Everything the rules need to know about one source file.
pub struct FileCx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Non-comment tokens in order.
    pub code: Vec<Ct<'a>>,
    /// Comment tokens in order.
    pub comments: Vec<Comment<'a>>,
    /// Path-derived classification.
    pub class: FileClass,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(u32, u32)>,
}

impl<'a> FileCx<'a> {
    /// Whether a line is inside test-only code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.class.test
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Index of the token matching `open` (`(`, `[` or `{`) at `idx`.
    /// Returns the last token index if unbalanced (never out of range).
    pub fn matching_close(&self, idx: usize) -> usize {
        let open = self.code[idx].text.as_bytes()[0];
        let close = match open {
            b'(' => ")",
            b'[' => "]",
            b'{' => "}",
            _ => return idx,
        };
        let open = &self.code[idx].text;
        let mut depth = 0usize;
        for (j, t) in self.code.iter().enumerate().skip(idx) {
            if t.kind == TokKind::Punct {
                if t.text == *open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
            }
        }
        self.code.len() - 1
    }

    /// The first code line strictly after `line` (for suppression scope).
    fn next_code_line(&self, line: u32) -> Option<u32> {
        self.code.iter().map(|t| t.line).filter(|&l| l > line).min()
    }
}

/// A parsed `// lint: allow(...)` comment.
struct Suppression {
    rules: Vec<Rule>,
    /// 1-based line of the comment (for stale reporting).
    line: u32,
    /// Inclusive line ranges the suppression covers: its own line, the
    /// next code line, and — when it sits on a fn header — the whole fn.
    ranges: Vec<(u32, u32)>,
    /// Whether it suppressed at least one diagnostic this run.
    used: bool,
}

/// The suppression marker. Written split here so the lint does not
/// flag its own engine source as a (malformed) suppression comment.
const MARKER: &str = concat!("lint:", " allow(");

/// The reachability-root marker, split for the same reason.
const ROOT_MARKER: &str = concat!("lint:", " root(");

/// Scope of a comment at `line`/`next` (next code line): when either
/// lands in a fn's header region, the comment governs the whole fn.
fn fn_scope(fns: &[FnItem], line: u32, next: Option<u32>) -> Option<(u32, u32)> {
    let hits = |l: u32| {
        fns.iter()
            .find(|f| f.header_lines.0 <= l && l <= f.header_lines.1)
    };
    hits(line).or_else(|| next.and_then(hits)).map(|f| f.lines)
}

/// Parses suppressions out of the comments; malformed ones become
/// `allow` diagnostics. A suppression covers its own line and the next
/// code line; placed on a fn header (doc/attribute/signature lines), it
/// covers the whole fn — that is how invariant-bounded kernels carry
/// one justification instead of one per indexing expression.
fn parse_suppressions(
    cx: &FileCx,
    fns: &[FnItem],
    diags: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &cx.comments {
        // Doc comments describe the syntax; only plain comments carry
        // live suppressions.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find(MARKER) else {
            continue;
        };
        let rest = &c.text[at + MARKER.len()..];
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic {
                file: cx.path.to_string(),
                line: c.line,
                rule: Rule::Allow,
                message: "malformed suppression: missing `)`".to_string(),
            });
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for name in rest[..close].split(',') {
            let name = name.trim();
            match Rule::parse_family(name) {
                Some(rs) => rules.extend(rs),
                None => {
                    bad = true;
                    diags.push(Diagnostic {
                        file: cx.path.to_string(),
                        line: c.line,
                        rule: Rule::Allow,
                        message: format!("unknown rule {name:?} in suppression"),
                    });
                }
            }
        }
        // Justification: whatever follows the closing paren, minus
        // separator punctuation. It is mandatory.
        let justification = rest[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':' | '·')
            })
            .trim_end_matches("*/")
            .trim();
        if justification.is_empty() {
            diags.push(Diagnostic {
                file: cx.path.to_string(),
                line: c.line,
                rule: Rule::Allow,
                message: "suppression lacks a justification (\"lint: allow(Dn) — why\")"
                    .to_string(),
            });
            continue;
        }
        if !bad && !rules.is_empty() {
            let next = cx.next_code_line(c.end_line);
            let mut ranges = vec![(c.end_line, c.end_line)];
            if let Some(n) = next {
                ranges.push((n, n));
            }
            if let Some(span) = fn_scope(fns, c.line, next) {
                ranges.push(span);
            }
            out.push(Suppression {
                rules,
                line: c.line,
                ranges,
                used: false,
            });
        }
    }
    out
}

/// Attaches engine-owned facts to the parsed fns: test membership,
/// graph membership, `# Safety` doc sections, and `root(...)`
/// annotations. Malformed or floating root annotations become `allow`
/// diagnostics — a root that silently fails to attach would silently
/// turn the whole S/A analysis off.
fn annotate_fns(cx: &FileCx, fns: &mut [FnItem], diags: &mut Vec<Diagnostic>) {
    for f in fns.iter_mut() {
        f.is_test = cx.class.test
            || cx
                .test_regions
                .iter()
                .any(|&(lo, hi)| lo <= f.item_line && f.item_line <= hi);
        f.in_graph = !f.is_test && !cx.class.graph_exempt;
    }
    for c in &cx.comments {
        let next = cx.next_code_line(c.end_line);
        let is_doc = c.text.starts_with("///") || c.text.starts_with("/**");
        if is_doc && c.text.contains("# Safety") {
            if let Some(f) = fns.iter_mut().find(|f| {
                let hit = |l: u32| f.header_lines.0 <= l && l <= f.header_lines.1;
                hit(c.line) || next.is_some_and(hit)
            }) {
                f.doc_has_safety = true;
            }
            continue;
        }
        let Some(at) = c.text.find(ROOT_MARKER) else {
            continue;
        };
        if is_doc || c.text.starts_with("//!") {
            continue;
        }
        let rest = &c.text[at + ROOT_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic {
                file: cx.path.to_string(),
                line: c.line,
                rule: Rule::Allow,
                message: "malformed root annotation: missing `)`".to_string(),
            });
            continue;
        };
        let name = rest[..close].trim();
        let Some(kind) = RootKind::parse(name) else {
            diags.push(Diagnostic {
                file: cx.path.to_string(),
                line: c.line,
                rule: Rule::Allow,
                message: format!("unknown root family {name:?} (expected serve or hotpath)"),
            });
            continue;
        };
        let attached = fns.iter_mut().find(|f| {
            let hit = |l: u32| f.header_lines.0 <= l && l <= f.header_lines.1;
            hit(c.line) || next.is_some_and(hit)
        });
        match attached {
            Some(f) => {
                if !f.roots.contains(&kind) {
                    f.roots.push(kind);
                }
            }
            None => diags.push(Diagnostic {
                file: cx.path.to_string(),
                line: c.line,
                rule: Rule::Allow,
                message: format!(
                    "root({name}) annotation is not on a fn header — it anchors nothing"
                ),
            }),
        }
    }
}

/// Marks the line ranges of items behind `#[cfg(test)]` or `#[test]`.
fn find_test_regions(code: &[Ct]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < code.len() {
        if !(code[i].text == "#" && code[i + 1].text == "[") {
            i += 1;
            continue;
        }
        // Attribute contents: up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        let mut saw_not = false;
        while j < code.len() {
            match code[j].text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "cfg" => saw_cfg = true,
                // `#[cfg(not(test))]` is the opposite of a test region.
                "not" if saw_cfg => saw_not = true,
                "test" if (saw_cfg && !saw_not) || j == i + 2 => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr || j >= code.len() {
            i = j.max(i + 1);
            continue;
        }
        // Skip any further attributes, then find the item's brace block.
        let mut k = j + 1;
        while k + 1 < code.len() && code[k].text == "#" && code[k + 1].text == "[" {
            let mut d = 0usize;
            while k < code.len() {
                match code[k].text {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // Find the opening `{` of the item (a `;` first means no body).
        let mut open = None;
        while k < code.len() {
            match code[k].text {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => k += 1,
            }
        }
        if let Some(open_idx) = open {
            let mut depth = 0usize;
            let mut end = open_idx;
            for (m, t) in code.iter().enumerate().skip(open_idx) {
                match t.text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end = m;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            out.push((code[i].line, code[end].line));
            i = end + 1;
        } else {
            i = k + 1;
        }
    }
    out
}

/// Builds one file's lint context: lexes, splits code from comments,
/// and marks the test regions.
fn build_cx<'a>(path: &'a str, src: &'a str) -> Result<FileCx<'a>, LexError> {
    let toks = lex(src)?;
    let mut code = Vec::new();
    let mut comments = Vec::new();
    for t in &toks {
        let text = &src[t.start..t.end];
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => comments.push(Comment {
                text,
                line: t.line,
                end_line: t.line + text.matches('\n').count() as u32,
            }),
            _ => code.push(Ct {
                kind: t.kind,
                text,
                line: t.line,
            }),
        }
    }
    let test_regions = find_test_regions(&code);
    Ok(FileCx {
        path,
        code,
        comments,
        class: FileClass::from_path(path),
        test_regions,
    })
}

/// The two-phase analysis over an in-memory file set.
///
/// Phase 1 is per-file: lex, parse fn items, attach roots/test/doc
/// facts. Phase 2 is global: build the call graph, run reachability
/// (S/A), then the file-local rules (D, U), then apply suppressions
/// with usage tracking so unused ones surface as stale.
fn lint_files_inner(files: &[(String, String)]) -> Result<LintReport, (String, LexError)> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut cxs: Vec<FileCx> = Vec::with_capacity(files.len());
    let mut parsed: Vec<(String, Vec<FnItem>)> = Vec::with_capacity(files.len());
    let mut direct_deps = CrateDeps::new();
    for (path, src) in files {
        let cx = build_cx(path, src).map_err(|e| (path.clone(), e))?;
        let mut fns = parse_fns(&cx.code);
        annotate_fns(&cx, &mut fns, &mut diags);
        // `use typilus_x::…` (or any `typilus_x` path ident) marks a
        // crate dependency; the call graph refuses edges outside the
        // resulting closure.
        let (krate, _) = crate_and_stem(path);
        for t in &cx.code {
            if t.kind == TokKind::Ident {
                // The core crate's lib is plain `typilus`; every other
                // workspace crate is `typilus_<dir>`.
                let dep = match t.text {
                    "typilus" => Some("core"),
                    other => other.strip_prefix("typilus_").filter(|d| !d.is_empty()),
                };
                if let Some(dep) = dep {
                    if dep != krate {
                        direct_deps
                            .entry(krate.to_string())
                            .or_default()
                            .insert(dep.to_string());
                    }
                }
            }
        }
        cxs.push(cx);
        parsed.push((path.clone(), fns));
    }

    let deps = close_deps(&direct_deps);
    let graph = CallGraph::build(&parsed, &deps);
    sau::run_reachability_rules(&graph, &mut diags);

    let mut suppressions: Vec<Vec<Suppression>> = Vec::with_capacity(files.len());
    for (cx, (_, fns)) in cxs.iter().zip(&parsed) {
        rules::run_all(cx, &mut diags);
        if !cx.class.test {
            sau::run_unsafe_rules(cx.path, &cx.code, fns, &mut diags);
        }
        suppressions.push(parse_suppressions(cx, fns, &mut diags));
    }

    let file_idx: BTreeMap<&str, usize> =
        cxs.iter().enumerate().map(|(i, c)| (c.path, i)).collect();
    diags.retain(|d| {
        if d.rule == Rule::Allow {
            return true;
        }
        let Some(&fi) = file_idx.get(d.file.as_str()) else {
            return true;
        };
        for s in &mut suppressions[fi] {
            if s.rules.contains(&d.rule)
                && s.ranges
                    .iter()
                    .any(|&(lo, hi)| lo <= d.line && d.line <= hi)
            {
                s.used = true;
                return false;
            }
        }
        true
    });
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let mut stale = Vec::new();
    let mut total_supps = 0usize;
    for (cx, file_supps) in cxs.iter().zip(&suppressions) {
        total_supps += file_supps.len();
        for s in file_supps {
            if !s.used {
                stale.push(StaleSuppression {
                    file: cx.path.to_string(),
                    line: s.line,
                    rules: s.rules.clone(),
                });
            }
        }
    }

    let stats = LintStats {
        files: files.len(),
        fns: graph.nodes.len(),
        edges: graph.edge_count(),
        serve_reachable: graph.reachable_count(RootKind::Serve),
        hotpath_reachable: graph.reachable_count(RootKind::Hotpath),
        suppressions: total_supps,
    };
    Ok(LintReport {
        diagnostics: diags,
        stale,
        stats,
    })
}

/// Lints an in-memory set of `(path, source)` files as one workspace:
/// the call graph spans all of them. Paths must be workspace-relative
/// with forward slashes.
///
/// # Errors
///
/// Returns a message naming the first file that fails to lex.
pub fn lint_files(files: &[(String, String)]) -> Result<LintReport, String> {
    lint_files_inner(files).map_err(|(path, e)| format!("lexing {path}: {e}"))
}

/// Lints one file's source text. `path` must be workspace-relative with
/// forward slashes — it drives the per-path rule exemptions. The call
/// graph is file-local; stale-suppression info is dropped.
///
/// # Errors
///
/// Returns the lexer's error when the file is not valid-enough Rust.
pub fn lint_source(path: &str, src: &str) -> Result<Vec<Diagnostic>, LexError> {
    let files = [(path.to_string(), src.to_string())];
    match lint_files_inner(&files) {
        Ok(report) => Ok(report.diagnostics),
        Err((_, e)) => Err(e),
    }
}

/// Recursively collects the workspace's `.rs` files (skipping `target`,
/// `vendor` and dot-directories), sorted for deterministic output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name.starts_with('.') {
                    continue;
                }
                walk(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Lints every workspace `.rs` file under `root` as one unit: the call
/// graph spans the whole workspace.
///
/// # Errors
///
/// Returns an error string for I/O or lexing failures (those are gate
/// failures of their own, not diagnostics).
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let paths = workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut files = Vec::with_capacity(paths.len());
    for file in &paths {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        files.push((rel, src));
    }
    lint_files(&files)
}
