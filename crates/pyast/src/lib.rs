//! # typilus-pyast
//!
//! A lexer, parser, AST and symbol table for a substantial subset of
//! Python 3, built for the Rust reproduction of *Typilus: Neural Type
//! Hints* (Allamanis et al., PLDI 2020). It plays the role of CPython's
//! `typed_ast` and `symtable` modules in the original system: everything
//! the program-graph builder, the corpus tooling and the optional type
//! checker need to see about a source file.
//!
//! It is also the one place that knows the AST's shape: which fields of
//! a node are its children, and in what order.
//! [`Stmt::for_each_child`] / [`Expr::for_each_child`] enumerate them in
//! source order (the order of the program graph's CHILD edges, and so of
//! every graph node id), marking annotation children as
//! [`ChildRef::Annotation`]; [`Stmt::blocks`] yields a statement's nested
//! statement blocks; and the [`visit`] walker is a pre-order recursion
//! over that enumeration. A new syntactic form is taught to these
//! functions once, plus to the semantic passes that give it meaning (the
//! symbol table, the graph's dataflow pass, the checker).
//!
//! ## Quick example
//!
//! ```
//! use typilus_pyast::{parse, SymbolTable};
//!
//! # fn main() -> Result<(), typilus_pyast::ParseError> {
//! let parsed = parse("def add(a: int, b: int) -> int:\n    return a + b\n")?;
//! let table = SymbolTable::build(&parsed.module);
//! let annotated: Vec<_> = table
//!     .annotatable_symbols()
//!     .filter(|s| s.annotation.is_some())
//!     .map(|s| (s.name.as_str(), s.annotation.as_deref().unwrap()))
//!     .collect();
//! assert!(annotated.contains(&("a", "int")));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod span;
pub mod symtable;
pub mod token;
pub mod visit;

pub use ast::{ChildRef, Expr, ExprKind, Module, NodeId, NodeMeta, Param, Stmt, StmtKind};
pub use error::{ParseError, ParseErrorKind};
pub use lexer::tokenize;
pub use parser::{parse, Parsed};
pub use span::{Pos, Span};
pub use symtable::{Scope, ScopeId, ScopeKind, Symbol, SymbolId, SymbolKind, SymbolTable};
pub use token::{Token, TokenKind};
