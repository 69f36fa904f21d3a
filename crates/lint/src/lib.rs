//! # typilus-lint
//!
//! A dependency-free static-analysis pass that machine-checks this
//! workspace's two hardest contracts:
//!
//! - the *determinism contract* (PRs 1–3): training, inference and
//!   every serialized artifact must be bit-identical at any thread
//!   count and across runs — rules `D1`–`D7`;
//! - the *serve contract* (PR 8): no client-reachable path may panic
//!   the engine, the query hot path performs zero allocations, and the
//!   unsafe surface carries explicit caller obligations — rule families
//!   `S`, `A` and `U`, driven by a workspace-wide call graph built from
//!   a lightweight item/block parser ([`parse`]) over the same
//!   dependency-free lexer.
//!
//! | Rule | What it catches |
//! |------|-----------------|
//! | `D1` | `HashMap`/`HashSet` iteration whose order can reach output, serialization or a reduction |
//! | `D2` | Floating-point reductions over unordered sources |
//! | `D3` | `std::env::var` reads outside the designated config modules |
//! | `D4` | `unwrap()`/`expect()` inside worker-pool / spawned-thread closures |
//! | `D5` | `unsafe` without an adjacent `// SAFETY:` comment |
//! | `D6` | `Instant::now` / `SystemTime` / `thread::sleep` in deterministic result paths |
//! | `D7` | Direct artifact writes outside the atomic-I/O module |
//! | `S1` | `unwrap()`/`expect()` on a serve-reachable path |
//! | `S2` | Panicking macros (`panic!`, `assert!`, …) on a serve-reachable path |
//! | `S3` | Slice/array indexing on a serve-reachable path |
//! | `A1` | Allocation reachable from the `hotpath` roots |
//! | `U1` | `unsafe fn` without a `# Safety` doc section |
//! | `U2` | Raw pointers in public API signatures |
//!
//! Reachability starts at annotated roots (`// lint: root(serve)` on
//! the engine thread and connection handlers, `// lint: root(hotpath)`
//! on the allocation-free query entry points) and flows through the
//! [`callgraph`] — conservative name-based resolution that can only
//! over-approximate, never hide, reachability.
//!
//! A finding is either fixed or explicitly carried with an inline
//! suppression whose justification is mandatory (a family name like
//! `S` covers all its rules; on a fn header it covers the whole fn):
//!
//! ```text
//! // lint: allow(D6) — epoch timing is display-only and never serialized
//! // lint: allow(S3) — row bounds checked against dim on entry
//! ```
//!
//! Suppressions that no longer suppress anything are reported as
//! *stale* and gate tier-1 under `--deny-stale`: the finding they once
//! carried is gone, but the justification keeps claiming it.
//!
//! The binary (`cargo run -p typilus-lint --release`) walks every
//! workspace `.rs` file, prints `file:line: rule: message` diagnostics
//! (or a full `--json` report with stale suppressions and call-graph
//! stats), and exits non-zero on any unsuppressed finding — it runs as
//! a tier-1 gate next to the determinism matrix test
//! (`tests/determinism.rs`) and the CLI serve round trip
//! (`crates/cli/tests/cli_pipeline.rs`), the dynamic witnesses of the
//! same contracts.

#![warn(missing_docs)]

pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sau;

pub use callgraph::{CallGraph, FnId};
pub use diag::{
    report_to_json, to_json, Diagnostic, LintReport, LintStats, Rule, StaleSuppression,
};
pub use engine::{lint_files, lint_source, lint_workspace, workspace_files, FileClass};
pub use lexer::{lex, LexError, Tok, TokKind};
pub use parse::{parse_fns, FnItem, RootKind};
