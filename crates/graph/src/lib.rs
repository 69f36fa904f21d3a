//! # typilus-graph
//!
//! Program-graph extraction for the Typilus reproduction: converts a
//! parsed Python file into the graph representation of the paper
//! (Sec. 5.1) — token, non-terminal, vocabulary and symbol nodes,
//! connected by the eight edge labels of Table 1 — with annotations
//! erased so models predict rather than read them. Edge-set filters
//! support the Table 4 ablations.
//!
//! The builder walks the AST through `typilus_pyast`'s one child
//! enumeration (`Stmt::for_each_child`, `Stmt::blocks`): CHILD edges, and
//! so node ids, follow its source order, and annotation children are
//! dropped when annotations are erased. [`shape`] only names the
//! non-terminals.
//!
//! ```
//! use typilus_graph::{build_graph, GraphConfig};
//! use typilus_pyast::{parse, SymbolTable};
//!
//! # fn main() -> Result<(), typilus_pyast::ParseError> {
//! let parsed = parse("def double(n: int) -> int:\n    return n * 2\n")?;
//! let table = SymbolTable::build(&parsed.module);
//! let graph = build_graph(&parsed, &table, &GraphConfig::default(), "example.py");
//! // `n` (parameter) and the function return are prediction targets.
//! assert_eq!(graph.targets.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod dataflow;
pub mod edge;
pub mod shape;
pub mod subtoken;

pub use builder::{build_graph, GraphConfig, GraphNode, NodeKind, ProgramGraph, TargetSymbol};
pub use edge::{Edge, EdgeLabel, EdgeSet};
pub use subtoken::subtokens;

#[cfg(test)]
mod tests;
