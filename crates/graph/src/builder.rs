//! Program-graph construction (paper Sec. 5.1, Fig. 3).
//!
//! Builds the four-node-category, eight-edge-label graph from a parsed
//! file and its symbol table. Annotations are erased by default so that a
//! model trained on these graphs predicts the original annotations rather
//! than reading them off.

use crate::dataflow::may_use_edges;
use crate::edge::{Edge, EdgeLabel, EdgeSet};
use crate::shape::{expr_label, stmt_label};
use crate::subtoken::subtokens;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use typilus_pyast::ast::{ChildRef, Expr, ExprKind, NodeId, Stmt, StmtKind};
use typilus_pyast::symtable::{SymbolId, SymbolKind, SymbolTable};
use typilus_pyast::{Parsed, Span, TokenKind};

/// The category of a graph node (paper Sec. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A raw lexeme of the program.
    Token,
    /// A non-terminal of the syntax tree.
    NonTerminal,
    /// A subtoken vocabulary node shared across identifiers.
    Vocabulary,
    /// A unique symbol from the symbol table (the "supernode").
    Symbol,
}

/// One node of the program graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphNode {
    /// Node category.
    pub kind: NodeKind,
    /// Text used to derive the node's initial representation: a lexeme
    /// for tokens, a non-terminal label for syntax nodes, the subtoken
    /// for vocabulary nodes, the symbol name for symbol nodes.
    pub label: String,
}

/// A prediction target: an annotatable symbol and its ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetSymbol {
    /// Index of the symbol's graph node.
    pub node: u32,
    /// Symbol id in the file's symbol table.
    pub symbol: SymbolId,
    /// Symbol name.
    pub name: String,
    /// Variable / parameter / return.
    pub kind: SymbolKind,
    /// Ground-truth annotation text, if the source was annotated.
    pub annotation: Option<String>,
}

/// The program graph of one source file.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProgramGraph {
    /// All nodes; indices are edge endpoints.
    pub nodes: Vec<GraphNode>,
    /// All directed labelled edges.
    pub edges: Vec<Edge>,
    /// Prediction targets (annotatable symbols).
    pub targets: Vec<TargetSymbol>,
    /// Source-file label, for provenance in corpora.
    pub file: String,
}

impl ProgramGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edges of one label.
    pub fn edges_with(&self, label: EdgeLabel) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.label == label)
    }
}

/// Configuration of the graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Erase type annotations from the graph (the default for training
    /// and prediction; the model must not see the labels).
    pub erase_annotations: bool,
    /// Which edge labels to emit (ablation studies disable some).
    pub edges: EdgeSet,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            erase_annotations: true,
            edges: EdgeSet::all(),
        }
    }
}

/// Builds the program graph of a parsed file.
pub fn build_graph(
    parsed: &Parsed,
    table: &SymbolTable,
    config: &GraphConfig,
    file: &str,
) -> ProgramGraph {
    Builder::new(parsed, table, *config).run(file)
}

struct Builder<'a> {
    parsed: &'a Parsed,
    table: &'a SymbolTable,
    config: GraphConfig,
    graph: ProgramGraph,
    /// token index -> graph node (only for included tokens).
    token_nodes: HashMap<usize, u32>,
    /// token start offset -> graph node.
    token_by_offset: HashMap<usize, u32>,
    /// AST node id -> graph node.
    ast_nodes: HashMap<NodeId, u32>,
    /// subtoken -> vocabulary node.
    vocab_nodes: HashMap<String, u32>,
    /// symbol -> symbol node.
    symbol_nodes: HashMap<SymbolId, u32>,
    /// Spans of erased annotation expressions.
    erased_spans: Vec<Span>,
    /// Spans of the children built so far, one run per open level of
    /// `build_ast` (a stack shared by the recursion).
    child_spans: Vec<Span>,
    /// Included token indices in order.
    included_tokens: Vec<usize>,
    /// Sorted start offsets of included tokens (parallel to included_tokens).
    token_offsets: Vec<usize>,
    /// Graph node of the function whose body `build_ast` is in: `None`
    /// at module level and in class and lambda bodies.
    function: Option<u32>,
    /// RETURNS_TO edges found by `build_ast`, in source order; drawn by
    /// `build_returns_to`.
    returns_to: Vec<(u32, u32)>,
}

impl<'a> Builder<'a> {
    fn new(parsed: &'a Parsed, table: &'a SymbolTable, config: GraphConfig) -> Self {
        Builder {
            parsed,
            table,
            config,
            graph: ProgramGraph::default(),
            token_nodes: HashMap::new(),
            token_by_offset: HashMap::new(),
            ast_nodes: HashMap::new(),
            vocab_nodes: HashMap::new(),
            symbol_nodes: HashMap::new(),
            erased_spans: Vec::new(),
            child_spans: Vec::new(),
            included_tokens: Vec::new(),
            token_offsets: Vec::new(),
            function: None,
            returns_to: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> u32 {
        let idx = self.graph.nodes.len() as u32;
        self.graph.nodes.push(GraphNode {
            kind,
            label: label.into(),
        });
        idx
    }

    fn add_edge(&mut self, src: u32, dst: u32, label: EdgeLabel) {
        if self.config.edges.contains(label) {
            self.graph.edges.push(Edge { src, dst, label });
        }
    }

    fn run(mut self, file: &str) -> ProgramGraph {
        let parsed = self.parsed;
        self.graph.file = file.to_string();
        if self.config.erase_annotations {
            self.collect_erased(&parsed.module.body);
        }
        self.build_token_nodes();
        // Module root node.
        let root = self.add_node(NodeKind::NonTerminal, "module");
        for stmt in &parsed.module.body {
            self.build_child(root, ChildRef::Stmt(stmt));
        }
        self.attach_tokens(root, parsed.module.meta.span, 0);
        self.build_symbol_nodes();
        self.build_use_edges();
        self.build_returns_to();
        for stmt in &parsed.module.body {
            self.build_assigned_from(stmt);
        }
        self.collect_targets();
        self.graph
    }

    /// Records the spans of all annotation children so that the token
    /// pass skips their tokens.
    fn collect_erased(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            stmt.for_each_child(|child| {
                if let ChildRef::Annotation(a) = child {
                    self.erased_spans.push(a.meta.span);
                }
            });
            for block in stmt.blocks() {
                self.collect_erased(block);
            }
        }
    }

    fn is_erased_offset(&self, offset: usize) -> bool {
        self.erased_spans
            .iter()
            .any(|s| offset >= s.start.offset && offset < s.end.offset)
    }

    fn build_token_nodes(&mut self) {
        let mut prev: Option<u32> = None;
        for (i, tok) in self.parsed.tokens.iter().enumerate() {
            if tok.kind.is_layout() {
                continue;
            }
            if self.config.erase_annotations {
                if tok.kind == TokenKind::Arrow {
                    continue;
                }
                if self.is_erased_offset(tok.span.start.offset) {
                    continue;
                }
            }
            let node = self.add_node(NodeKind::Token, tok.lexeme.clone());
            self.token_nodes.insert(i, node);
            self.token_by_offset.insert(tok.span.start.offset, node);
            self.included_tokens.push(i);
            self.token_offsets.push(tok.span.start.offset);
            if let Some(p) = prev {
                self.add_edge(p, node, EdgeLabel::NextToken);
            }
            prev = Some(node);
            // SUBTOKEN_OF for identifiers.
            if tok.kind == TokenKind::Name {
                for sub in subtokens(&tok.lexeme) {
                    let v = match self.vocab_nodes.get(&sub) {
                        Some(&v) => v,
                        None => {
                            let v = self.add_node(NodeKind::Vocabulary, sub.clone());
                            self.vocab_nodes.insert(sub, v);
                            v
                        }
                    };
                    self.add_edge(node, v, EdgeLabel::SubtokenOf);
                }
            }
        }
    }

    /// Builds the non-terminal node for one AST element and recurses.
    /// Erased annotation children get no node. Records every `return`
    /// and every yield, at any expression depth, with the function it
    /// returns to.
    fn build_ast(&mut self, child: ChildRef<'_>) -> u32 {
        let (label, meta) = match child {
            ChildRef::Stmt(s) => (stmt_label(s), s.meta),
            ChildRef::Expr(e) | ChildRef::Annotation(e) => (expr_label(e), e.meta),
        };
        let node = self.add_node(NodeKind::NonTerminal, label);
        self.ast_nodes.insert(meta.id, node);
        let exits = match child {
            ChildRef::Stmt(s) => matches!(s.kind, StmtKind::Return(_)),
            ChildRef::Expr(e) | ChildRef::Annotation(e) => {
                matches!(e.kind, ExprKind::Yield(_) | ExprKind::YieldFrom(_))
            }
        };
        if let (true, Some(f)) = (exits, self.function) {
            self.returns_to.push((node, f));
        }
        let first_child = self.child_spans.len();
        let erase = self.config.erase_annotations;
        let outer = self.function;
        match child {
            ChildRef::Stmt(s) => {
                // A def's decorators, defaults and annotations belong to
                // the enclosing scope; only its body statements are inside.
                let body = match s.kind {
                    StmtKind::FunctionDef(_) => Some(node),
                    StmtKind::ClassDef(_) => None,
                    _ => outer,
                };
                s.for_each_child(|k| {
                    if !(erase && matches!(k, ChildRef::Annotation(_))) {
                        let in_body = matches!(k, ChildRef::Stmt(_));
                        self.function = if in_body { body } else { outer };
                        self.build_child(node, k);
                    }
                });
            }
            ChildRef::Expr(e) | ChildRef::Annotation(e) => {
                let lambda_body = match &e.kind {
                    ExprKind::Lambda { body, .. } => Some(&**body),
                    _ => None,
                };
                e.for_each_child(|k| {
                    let in_lambda = lambda_body.is_some_and(|b| std::ptr::eq(b, k));
                    self.function = if in_lambda { None } else { outer };
                    self.build_child(node, ChildRef::Expr(k));
                });
            }
        }
        self.function = outer;
        self.attach_tokens(node, meta.span, first_child);
        node
    }

    /// Builds `child` under `parent` and records its span for the
    /// parent's `attach_tokens`.
    fn build_child(&mut self, parent: u32, child: ChildRef<'_>) {
        let c = self.build_ast(child);
        self.add_edge(parent, c, EdgeLabel::Child);
        self.child_spans.push(child.span());
    }

    /// CHILD edges from a syntax node to the tokens in its span that are
    /// not covered by any of its children, whose spans are
    /// `child_spans[first_child..]`; pops those spans.
    fn attach_tokens(&mut self, node: u32, span: Span, first_child: usize) {
        let lo = self
            .token_offsets
            .partition_point(|&o| o < span.start.offset);
        let hi = self.token_offsets.partition_point(|&o| o < span.end.offset);
        for i in lo..hi {
            let off = self.token_offsets[i];
            if self.child_spans[first_child..]
                .iter()
                .any(|s| off >= s.start.offset && off < s.end.offset)
            {
                continue;
            }
            let tok_idx = self.included_tokens[i];
            if let Some(&t) = self.token_nodes.get(&tok_idx) {
                self.add_edge(node, t, EdgeLabel::Child);
            }
        }
        self.child_spans.truncate(first_child);
    }

    fn build_symbol_nodes(&mut self) {
        for sym in self.table.symbols() {
            let needs_node = !sym.occurrences.is_empty()
                || sym.kind == SymbolKind::Return
                || sym.is_annotatable();
            if !needs_node {
                continue;
            }
            let node = self.add_node(NodeKind::Symbol, sym.name.clone());
            self.symbol_nodes.insert(sym.id, node);
            // OCCURRENCE_OF from every bound token to the symbol node.
            for span in sym.occurrences.clone() {
                if let Some(&t) = self.token_by_offset.get(&span.start.offset) {
                    self.add_edge(t, node, EdgeLabel::OccurrenceOf);
                }
            }
        }
        let parsed = self.parsed;
        self.link_return_symbols(&parsed.module.body);
    }

    /// OCCURRENCE_OF from each function-def syntax node, at any nesting
    /// depth, to its return symbol.
    fn link_return_symbols(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            if let StmtKind::FunctionDef(_) = stmt.kind {
                if let Some(ret) = self.table.return_symbol(stmt.meta.id) {
                    if let (Some(&f), Some(&s)) = (
                        self.ast_nodes.get(&stmt.meta.id),
                        self.symbol_nodes.get(&ret.id),
                    ) {
                        self.add_edge(f, s, EdgeLabel::OccurrenceOf);
                    }
                }
            }
            for block in stmt.blocks() {
                self.link_return_symbols(block);
            }
        }
    }

    fn build_use_edges(&mut self) {
        // NEXT_LEXICAL_USE: consecutive occurrences of a symbol. Free
        // (unresolved) names are still variables from the graph's view.
        for sym in self.table.symbols() {
            if !matches!(
                sym.kind,
                SymbolKind::Variable
                    | SymbolKind::Parameter
                    | SymbolKind::ClassMember
                    | SymbolKind::Unresolved
            ) {
                continue;
            }
            let nodes: Vec<u32> = sym
                .occurrences
                .iter()
                .filter_map(|s| self.token_by_offset.get(&s.start.offset).copied())
                .collect();
            for pair in nodes.windows(2) {
                self.add_edge(pair[0], pair[1], EdgeLabel::NextLexicalUse);
            }
        }
        // NEXT_MAY_USE via dataflow.
        if self.config.edges.contains(EdgeLabel::NextMayUse) {
            let parsed = self.parsed;
            for (from, to) in may_use_edges(&parsed.module.body, self.table) {
                if let (Some(&a), Some(&b)) = (
                    self.token_by_offset.get(&from),
                    self.token_by_offset.get(&to),
                ) {
                    self.add_edge(a, b, EdgeLabel::NextMayUse);
                }
            }
        }
    }

    /// RETURNS_TO from every `return` and yield to its function, in the
    /// order `build_ast` found them.
    fn build_returns_to(&mut self) {
        for (exit, function) in std::mem::take(&mut self.returns_to) {
            self.add_edge(exit, function, EdgeLabel::ReturnsTo);
        }
    }

    fn build_assigned_from(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Assign { targets, value } => {
                for t in targets {
                    self.assigned_from(value, t);
                }
            }
            StmtKind::AnnAssign {
                target,
                value: Some(v),
                ..
            } => {
                self.assigned_from(v, target);
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.assigned_from(value, target);
            }
            _ => {}
        }
        // Recurse uniformly; walrus assignments can occur in any
        // expression position (if tests, call arguments, ...).
        let erase = self.config.erase_annotations;
        stmt.for_each_child(|child| match child {
            ChildRef::Stmt(s) => self.build_assigned_from(s),
            ChildRef::Annotation(_) if erase => {}
            ChildRef::Expr(e) | ChildRef::Annotation(e) => self.build_assigned_from_exprs(e),
        });
    }

    /// Walrus expressions also carry ASSIGNED_FROM edges.
    fn build_assigned_from_exprs(&mut self, expr: &Expr) {
        if let ExprKind::Walrus { target, value } = &expr.kind {
            self.assigned_from(value, target);
        }
        expr.for_each_child(|e| self.build_assigned_from_exprs(e));
    }

    fn assigned_from(&mut self, value: &Expr, target: &Expr) {
        if let (Some(&v), Some(&t)) = (
            self.ast_nodes.get(&value.meta.id),
            self.ast_nodes.get(&target.meta.id),
        ) {
            self.add_edge(v, t, EdgeLabel::AssignedFrom);
        }
    }

    fn collect_targets(&mut self) {
        for sym in self.table.symbols() {
            if !sym.is_annotatable() {
                continue;
            }
            if let Some(&node) = self.symbol_nodes.get(&sym.id) {
                self.graph.targets.push(TargetSymbol {
                    node,
                    symbol: sym.id,
                    name: sym.name.clone(),
                    kind: sym.kind,
                    annotation: sym.annotation.clone(),
                });
            }
        }
    }
}
