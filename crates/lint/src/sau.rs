//! The serve-era rule families.
//!
//! - **S-rules** (S1 unwrap/expect, S2 panicking macros, S3 slice
//!   indexing): no panic-capable expression may sit on a path reachable
//!   from a `// lint: root(serve)` function. This generalizes D4 —
//!   which only watched worker closures — to the whole interprocedural
//!   serve surface.
//! - **A-rule** (A1): nothing reachable from a `// lint: root(hotpath)`
//!   function may allocate. This static rule is the only check of the
//!   serve query path's zero-allocation claim: no test or benchmark
//!   counts heap allocations there.
//! - **U-rules** (U1, U2): `unsafe fn` must carry a `# Safety` doc
//!   section, and raw pointers must not appear in effectively-public
//!   signatures. D5 audits unsafe *blocks*; U audits the unsafe
//!   *contract surface*.
//!
//! S/A are interprocedural (driven by [`crate::callgraph`]); U is
//! file-local over the parsed items.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Rule};
use crate::engine::Ct;
use crate::lexer::TokKind;
use crate::parse::{FnItem, PanicKind, RootKind};

/// Runs S over every serve-reachable node and A over every
/// hotpath-reachable node.
pub fn run_reachability_rules(graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    for (id, node) in graph.nodes.iter().enumerate() {
        if graph.reachable(RootKind::Serve, id) {
            let chain = graph.chain(RootKind::Serve, id);
            for p in graph.live_panics(id) {
                let (rule, message) = match p.kind {
                    PanicKind::UnwrapExpect => (
                        Rule::S1,
                        format!(
                            "`{}()` on a serve-reachable path ({chain}): a client \
                             request must never panic the engine — return a typed \
                             error, or allow with a why",
                            p.what
                        ),
                    ),
                    PanicKind::Macro => (
                        Rule::S2,
                        format!(
                            "`{}` on a serve-reachable path ({chain}): a failed check \
                             takes the whole daemon down — make it a typed error, or \
                             allow with a why naming the invariant that holds",
                            p.what
                        ),
                    ),
                    PanicKind::Indexing => (
                        Rule::S3,
                        format!(
                            "indexing `{}[…]` on a serve-reachable path ({chain}): an \
                             out-of-bounds panic kills the engine — use `.get()`, an \
                             iterator, or allow with a why naming the bound",
                            p.what
                        ),
                    ),
                };
                diags.push(Diagnostic {
                    file: node.path.to_string(),
                    line: p.line,
                    rule,
                    message,
                });
            }
        }
        if graph.reachable(RootKind::Hotpath, id) {
            let chain = graph.chain(RootKind::Hotpath, id);
            for a in &node.item.allocs {
                diags.push(Diagnostic {
                    file: node.path.to_string(),
                    line: a.line,
                    rule: Rule::A1,
                    message: format!(
                        "allocation (`{}`) on the allocation-free hot path ({chain}): \
                         the serve query path must stay at zero allocations per \
                         query — reuse the scratch buffers, or allow with a why",
                        a.what
                    ),
                });
            }
        }
    }
}

/// Runs U1/U2 over one file's parsed fns. `code` is the file's token
/// stream (for U2's signature scan); test fns are skipped.
pub fn run_unsafe_rules(path: &str, code: &[Ct], fns: &[FnItem], diags: &mut Vec<Diagnostic>) {
    for f in fns {
        if f.is_test {
            continue;
        }
        if f.is_unsafe && !f.doc_has_safety {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: f.item_line,
                rule: Rule::U1,
                message: format!(
                    "`unsafe fn {}` without a `# Safety` doc section: callers cannot \
                     see their obligations — document the invariant they must uphold",
                    f.name
                ),
            });
        }
        if f.effectively_pub && !f.is_unsafe {
            // Raw pointer in the signature: `* const` / `* mut` in type
            // position. `*` as deref/multiply is never followed by the
            // `const`/`mut` keyword.
            let (lo, hi) = f.sig_range;
            for w in lo..=hi.min(code.len().saturating_sub(2)) {
                if code[w].text == "*"
                    && code[w + 1].kind == TokKind::Ident
                    && matches!(code[w + 1].text, "const" | "mut")
                {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line: code[w].line,
                        rule: Rule::U2,
                        message: format!(
                            "raw pointer in the public signature of `fn {}`: raw \
                             pointers must not escape public APIs — return a safe \
                             wrapper, mark the fn `unsafe` with a `# Safety` \
                             contract, or narrow the visibility",
                            f.name
                        ),
                    });
                    break;
                }
            }
        }
    }
}
