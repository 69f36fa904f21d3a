//! Abstract syntax tree for the Python subset.
//!
//! Every statement and expression node carries a [`NodeMeta`] with a unique
//! [`NodeId`] (unique within one parsed [`Module`]) and a source [`Span`].
//! The graph builder uses node identities to create non-terminal graph
//! nodes, and spans to associate tokens with the AST nodes that own them.
//!
//! This module is also the one place that knows the tree's shape:
//! [`Stmt::for_each_child`] and [`Expr::for_each_child`] enumerate a
//! node's direct children in source order, and [`Stmt::blocks`] yields a
//! statement's nested statement blocks. The graph's CHILD edges follow
//! that order, so it fixes every graph node id; the visitor, the graph
//! builder and the checker's walkers all recurse through these three
//! functions rather than matching on every variant themselves.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an AST node, unique within a single [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identity and location shared by all AST nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeMeta {
    /// Unique id of this node within its module.
    pub id: NodeId,
    /// Source region the node covers.
    pub span: Span,
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// Metadata of the module node itself.
    pub meta: NodeMeta,
    /// Number of AST nodes allocated while parsing this module; all node
    /// ids are in `0..node_count`.
    pub node_count: u32,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// Node identity and span.
    pub meta: NodeMeta,
    /// Statement payload.
    pub kind: StmtKind,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Span of the name token.
    pub name_span: Span,
    /// Optional type annotation.
    pub annotation: Option<Expr>,
    /// Optional default value.
    pub default: Option<Expr>,
    /// Positional / *args / **kwargs.
    pub kind: ParamKind,
}

/// The calling convention of a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// Ordinary positional-or-keyword parameter.
    Plain,
    /// `*args` variadic positional parameter.
    VarArgs,
    /// `**kwargs` variadic keyword parameter.
    KwArgs,
    /// Keyword-only parameter (declared after a bare `*`).
    KwOnly,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Span of the name token.
    pub name_span: Span,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Optional return annotation (the expression after `->`).
    pub returns: Option<Expr>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Decorator expressions, outermost first.
    pub decorators: Vec<Expr>,
    /// Whether declared with `async def`.
    pub is_async: bool,
}

/// A class definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Span of the name token.
    pub name_span: Span,
    /// Base class expressions.
    pub bases: Vec<Expr>,
    /// Keyword arguments in the class header (e.g. `metaclass=...`).
    pub keywords: Vec<Keyword>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Decorator expressions, outermost first.
    pub decorators: Vec<Expr>,
}

/// An `except` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExceptHandler {
    /// The exception type expression, if present.
    pub exc_type: Option<Expr>,
    /// The bound name (`except E as name`), if present.
    pub name: Option<String>,
    /// Span of the bound name token, if present.
    pub name_span: Option<Span>,
    /// Handler body.
    pub body: Vec<Stmt>,
}

/// An import alias: `name` or `name as asname`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alias {
    /// Dotted module or symbol path being imported.
    pub name: String,
    /// Optional rebinding name.
    pub asname: Option<String>,
    /// Span of the binding occurrence (the `asname` token if present,
    /// otherwise the first component of `name`).
    pub bind_span: Span,
}

/// One `with` item: a context expression and an optional `as` target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WithItem {
    /// The context-manager expression.
    pub context: Expr,
    /// Optional target bound with `as`.
    pub target: Option<Expr>,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// `def` / `async def`.
    FunctionDef(FunctionDef),
    /// `class`.
    ClassDef(ClassDef),
    /// `return`, with an optional value.
    Return(Option<Expr>),
    /// Plain assignment with one or more targets: `a = b = value`.
    Assign {
        /// Assignment targets, left to right.
        targets: Vec<Expr>,
        /// The assigned value.
        value: Expr,
    },
    /// Augmented assignment such as `a += b`; `op` is the operator text
    /// without the trailing `=` (e.g. `"+"`).
    AugAssign {
        /// Target of the update.
        target: Expr,
        /// Operator, e.g. `+`, `-`, `//`.
        op: String,
        /// Right-hand side.
        value: Expr,
    },
    /// Annotated assignment: `x: T` or `x: T = value`.
    AnnAssign {
        /// Target being annotated.
        target: Expr,
        /// The annotation expression.
        annotation: Expr,
        /// Optional assigned value.
        value: Option<Expr>,
    },
    /// `for target in iter: body [else: orelse]`.
    For {
        /// Loop target.
        target: Expr,
        /// Iterated expression.
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// `else` clause body.
        orelse: Vec<Stmt>,
        /// Whether declared with `async for`.
        is_async: bool,
    },
    /// `while test: body [else: orelse]`.
    While {
        /// Loop condition.
        test: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// `else` clause body.
        orelse: Vec<Stmt>,
    },
    /// `if test: body [elif/else: orelse]`.
    If {
        /// Condition.
        test: Expr,
        /// Then-branch.
        body: Vec<Stmt>,
        /// Else-branch (an `elif` parses as a nested `If` here).
        orelse: Vec<Stmt>,
    },
    /// `with item, ...: body`.
    With {
        /// Context items.
        items: Vec<WithItem>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `raise [exc [from cause]]`.
    Raise {
        /// Raised exception.
        exc: Option<Expr>,
        /// `from` cause.
        cause: Option<Expr>,
    },
    /// `try` statement.
    Try {
        /// Protected body.
        body: Vec<Stmt>,
        /// `except` clauses.
        handlers: Vec<ExceptHandler>,
        /// `else` clause body.
        orelse: Vec<Stmt>,
        /// `finally` clause body.
        finalbody: Vec<Stmt>,
    },
    /// `assert test [, msg]`.
    Assert {
        /// The asserted condition.
        test: Expr,
        /// Optional message.
        msg: Option<Expr>,
    },
    /// `import a.b as c, d`.
    Import(Vec<Alias>),
    /// `from module import names` (`module` empty for relative-only).
    ImportFrom {
        /// Source module path.
        module: String,
        /// Imported names (a single `*` alias for star-imports).
        names: Vec<Alias>,
        /// Number of leading dots (relative import level).
        level: u32,
    },
    /// `global names`.
    Global(Vec<String>),
    /// `nonlocal names`.
    Nonlocal(Vec<String>),
    /// A bare expression used as a statement.
    Expr(Expr),
    /// `pass`.
    Pass,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `del targets`.
    Delete(Vec<Expr>),
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expr {
    /// Node identity and span.
    pub meta: NodeMeta,
    /// Expression payload.
    pub kind: ExprKind,
}

/// A keyword argument at a call site: `name=value` or `**value`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Keyword {
    /// Argument name; `None` for `**value` splats.
    pub arg: Option<String>,
    /// Argument value.
    pub value: Expr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `<<`
    LShift,
    /// `>>`
    RShift,
    /// `|`
    BitOr,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `@` (matrix multiplication)
    MatMul,
}

impl BinOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::LShift => "<<",
            BinOp::RShift => ">>",
            BinOp::BitOr => "|",
            BinOp::BitAnd => "&",
            BinOp::BitXor => "^",
            BinOp::MatMul => "@",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `+`
    Pos,
    /// `~`
    Invert,
    /// `not`
    Not,
}

/// Boolean combinators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoolOp {
    /// `and`
    And,
    /// `or`
    Or,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `is`
    Is,
    /// `is not`
    IsNot,
    /// `in`
    In,
    /// `not in`
    NotIn,
}

impl CmpOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::NotEq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Is => "is",
            CmpOp::IsNot => "is not",
            CmpOp::In => "in",
            CmpOp::NotIn => "not in",
        }
    }
}

/// The flavour of a comprehension expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompKind {
    /// `[x for ...]`
    List,
    /// `{x for ...}`
    Set,
    /// `{k: v for ...}`
    Dict,
    /// `(x for ...)`
    Generator,
}

/// One `for ... in ... [if ...]` clause of a comprehension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompClause {
    /// The bound target.
    pub target: Expr,
    /// The iterated expression.
    pub iter: Expr,
    /// Filtering conditions.
    pub ifs: Vec<Expr>,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExprKind {
    /// An identifier reference.
    Name(String),
    /// A numeric literal (original lexeme preserved).
    Num(String),
    /// A string literal (original lexeme, quotes included).
    Str(String),
    /// `True` / `False`.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// `...`
    EllipsisLit,
    /// Tuple display or bare comma expression.
    Tuple(Vec<Expr>),
    /// List display.
    List(Vec<Expr>),
    /// Set display.
    Set(Vec<Expr>),
    /// Dict display. A `None` key marks a `**splat` entry.
    Dict {
        /// Keys, aligned with `values`.
        keys: Vec<Option<Expr>>,
        /// Values.
        values: Vec<Expr>,
    },
    /// Binary operation.
    BinOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `and` / `or` chain.
    BoolOp {
        /// Combinator.
        op: BoolOp,
        /// Operands (two or more).
        values: Vec<Expr>,
    },
    /// Chained comparison: `left op0 c0 op1 c1 ...`.
    Compare {
        /// First operand.
        left: Box<Expr>,
        /// Operators.
        ops: Vec<CmpOp>,
        /// Subsequent operands, aligned with `ops`.
        comparators: Vec<Expr>,
    },
    /// Function or constructor call.
    Call {
        /// Callee.
        func: Box<Expr>,
        /// Positional arguments (including `*splat` as `Starred`).
        args: Vec<Expr>,
        /// Keyword arguments.
        keywords: Vec<Keyword>,
    },
    /// Attribute access `value.attr`.
    Attribute {
        /// Receiver.
        value: Box<Expr>,
        /// Attribute name.
        attr: String,
        /// Span of the attribute name token.
        attr_span: Span,
    },
    /// Subscription `value[index]`.
    Subscript {
        /// Receiver.
        value: Box<Expr>,
        /// Index expression (possibly a [`ExprKind::Slice`] or tuple).
        index: Box<Expr>,
    },
    /// A slice `lower:upper[:step]` inside a subscription.
    Slice {
        /// Lower bound.
        lower: Option<Box<Expr>>,
        /// Upper bound.
        upper: Option<Box<Expr>>,
        /// Step.
        step: Option<Box<Expr>>,
    },
    /// `lambda params: body`.
    Lambda {
        /// Parameters (annotations are always absent in lambdas).
        params: Vec<Param>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// Conditional expression `body if test else orelse`.
    IfExp {
        /// Condition.
        test: Box<Expr>,
        /// Value when true.
        body: Box<Expr>,
        /// Value when false.
        orelse: Box<Expr>,
    },
    /// `*expr` in a call or display.
    Starred(Box<Expr>),
    /// A comprehension of any flavour.
    Comprehension {
        /// Which flavour of comprehension.
        kind: CompKind,
        /// The produced element (key for dict comprehensions).
        element: Box<Expr>,
        /// The produced value for dict comprehensions.
        value: Option<Box<Expr>>,
        /// `for`/`if` clauses.
        clauses: Vec<CompClause>,
    },
    /// `yield [value]`.
    Yield(Option<Box<Expr>>),
    /// `yield from value`.
    YieldFrom(Box<Expr>),
    /// `await value`.
    Await(Box<Expr>),
    /// `target := value`.
    Walrus {
        /// Bound name.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
    },
    /// Formatted string; holds the raw lexeme. Interpolations are not
    /// analysed (treated as an opaque string value).
    FString(String),
}

/// A direct child of a statement, as enumerated by
/// [`Stmt::for_each_child`].
#[derive(Debug, Clone, Copy)]
pub enum ChildRef<'a> {
    /// A nested statement (a body, handler, `else` or `finally` block).
    Stmt(&'a Stmt),
    /// An expression.
    Expr(&'a Expr),
    /// A type annotation: a parameter annotation, a `-> returns`
    /// expression or the annotation of an `AnnAssign`. Graphs built from
    /// annotation-erased code drop these children.
    Annotation(&'a Expr),
}

impl ChildRef<'_> {
    /// The child's source span.
    pub fn span(&self) -> Span {
        match self {
            ChildRef::Stmt(s) => s.meta.span,
            ChildRef::Expr(e) | ChildRef::Annotation(e) => e.meta.span,
        }
    }
}

impl Stmt {
    /// Calls `f` on each direct child of the statement, in source order.
    ///
    /// This order is canonical: the program graph's CHILD edges follow
    /// it. A def's children are its decorators, then per parameter its
    /// annotation and default, then the return annotation, then the body.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(ChildRef<'a>)) {
        let f = &mut f;
        match &self.kind {
            StmtKind::FunctionDef(def) => {
                def.decorators.iter().map(ChildRef::Expr).for_each(&mut *f);
                for p in &def.params {
                    if let Some(a) = &p.annotation {
                        f(ChildRef::Annotation(a));
                    }
                    if let Some(d) = &p.default {
                        f(ChildRef::Expr(d));
                    }
                }
                if let Some(r) = &def.returns {
                    f(ChildRef::Annotation(r));
                }
                def.body.iter().map(ChildRef::Stmt).for_each(f);
            }
            StmtKind::ClassDef(c) => {
                c.decorators.iter().map(ChildRef::Expr).for_each(&mut *f);
                c.bases.iter().map(ChildRef::Expr).for_each(&mut *f);
                c.keywords
                    .iter()
                    .map(|k| ChildRef::Expr(&k.value))
                    .for_each(&mut *f);
                c.body.iter().map(ChildRef::Stmt).for_each(f);
            }
            StmtKind::Return(value) => value.iter().map(ChildRef::Expr).for_each(f),
            StmtKind::Assign { targets, value } => {
                targets.iter().map(ChildRef::Expr).for_each(&mut *f);
                f(ChildRef::Expr(value));
            }
            StmtKind::AugAssign { target, value, .. } => {
                f(ChildRef::Expr(target));
                f(ChildRef::Expr(value));
            }
            StmtKind::AnnAssign {
                target,
                annotation,
                value,
            } => {
                f(ChildRef::Expr(target));
                f(ChildRef::Annotation(annotation));
                value.iter().map(ChildRef::Expr).for_each(f);
            }
            StmtKind::For {
                target,
                iter,
                body,
                orelse,
                ..
            } => {
                f(ChildRef::Expr(target));
                f(ChildRef::Expr(iter));
                body.iter().chain(orelse).map(ChildRef::Stmt).for_each(f);
            }
            StmtKind::While { test, body, orelse } | StmtKind::If { test, body, orelse } => {
                f(ChildRef::Expr(test));
                body.iter().chain(orelse).map(ChildRef::Stmt).for_each(f);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    f(ChildRef::Expr(&item.context));
                    if let Some(t) = &item.target {
                        f(ChildRef::Expr(t));
                    }
                }
                body.iter().map(ChildRef::Stmt).for_each(f);
            }
            StmtKind::Raise { exc, cause } => {
                exc.iter().chain(cause).map(ChildRef::Expr).for_each(f);
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                body.iter().map(ChildRef::Stmt).for_each(&mut *f);
                for h in handlers {
                    if let Some(e) = &h.exc_type {
                        f(ChildRef::Expr(e));
                    }
                    h.body.iter().map(ChildRef::Stmt).for_each(&mut *f);
                }
                orelse
                    .iter()
                    .chain(finalbody)
                    .map(ChildRef::Stmt)
                    .for_each(f);
            }
            StmtKind::Assert { test, msg } => {
                f(ChildRef::Expr(test));
                msg.iter().map(ChildRef::Expr).for_each(f);
            }
            StmtKind::Expr(e) => f(ChildRef::Expr(e)),
            StmtKind::Delete(targets) => targets.iter().map(ChildRef::Expr).for_each(f),
            StmtKind::Import(_)
            | StmtKind::ImportFrom { .. }
            | StmtKind::Global(_)
            | StmtKind::Nonlocal(_)
            | StmtKind::Pass
            | StmtKind::Break
            | StmtKind::Continue => {}
        }
    }

    /// The statement's nested statement blocks in source order: the body,
    /// each `except` handler's body, the `else` block, then `finally`.
    /// Some blocks may be empty.
    ///
    /// A def's or class's body is a block too: a walker that must stay in
    /// one scope matches `FunctionDef`/`ClassDef` before it recurses.
    pub fn blocks(&self) -> impl Iterator<Item = &[Stmt]> {
        let (body, handlers, orelse, finalbody): (&[Stmt], &[ExceptHandler], &[Stmt], &[Stmt]) =
            match &self.kind {
                StmtKind::FunctionDef(f) => (&f.body, &[], &[], &[]),
                StmtKind::ClassDef(c) => (&c.body, &[], &[], &[]),
                StmtKind::For { body, orelse, .. }
                | StmtKind::While { body, orelse, .. }
                | StmtKind::If { body, orelse, .. } => (body, &[], orelse, &[]),
                StmtKind::With { body, .. } => (body, &[], &[], &[]),
                StmtKind::Try {
                    body,
                    handlers,
                    orelse,
                    finalbody,
                } => (body, handlers, orelse, finalbody),
                StmtKind::Return(_)
                | StmtKind::Assign { .. }
                | StmtKind::AugAssign { .. }
                | StmtKind::AnnAssign { .. }
                | StmtKind::Raise { .. }
                | StmtKind::Assert { .. }
                | StmtKind::Import(_)
                | StmtKind::ImportFrom { .. }
                | StmtKind::Global(_)
                | StmtKind::Nonlocal(_)
                | StmtKind::Expr(_)
                | StmtKind::Pass
                | StmtKind::Break
                | StmtKind::Continue
                | StmtKind::Delete(_) => (&[], &[], &[], &[]),
            };
        std::iter::once(body)
            .chain(handlers.iter().map(|h| h.body.as_slice()))
            .chain([orelse, finalbody])
    }
}

impl Expr {
    /// Calls `f` on each direct child of the expression, in source order
    /// (the canonical order of [`Stmt::for_each_child`]): a dict's keys
    /// and values interleave, a conditional expression yields its body
    /// before its test, and a comprehension its element (and value)
    /// before its clauses. A lambda's children are its parameter defaults
    /// and its body.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        let f = &mut f;
        match &self.kind {
            ExprKind::Name(_)
            | ExprKind::Num(_)
            | ExprKind::Str(_)
            | ExprKind::FString(_)
            | ExprKind::Bool(_)
            | ExprKind::NoneLit
            | ExprKind::EllipsisLit => {}
            ExprKind::Tuple(items) | ExprKind::List(items) | ExprKind::Set(items) => {
                items.iter().for_each(f);
            }
            ExprKind::Dict { keys, values } => {
                for (k, v) in keys.iter().zip(values) {
                    if let Some(k) = k {
                        f(k);
                    }
                    f(v);
                }
            }
            ExprKind::BinOp { left, right, .. } => {
                f(left);
                f(right);
            }
            ExprKind::UnaryOp { operand, .. } => f(operand),
            ExprKind::BoolOp { values, .. } => values.iter().for_each(f),
            ExprKind::Compare {
                left, comparators, ..
            } => {
                f(left);
                comparators.iter().for_each(f);
            }
            ExprKind::Call {
                func,
                args,
                keywords,
            } => {
                f(func);
                args.iter().for_each(&mut *f);
                keywords.iter().map(|k| &k.value).for_each(f);
            }
            ExprKind::Attribute { value, .. } => f(value),
            ExprKind::Subscript { value, index } => {
                f(value);
                f(index);
            }
            ExprKind::Slice { lower, upper, step } => {
                for e in [lower, upper, step].into_iter().flatten() {
                    f(e);
                }
            }
            ExprKind::Lambda { params, body } => {
                params
                    .iter()
                    .filter_map(|p| p.default.as_ref())
                    .for_each(&mut *f);
                f(body);
            }
            ExprKind::IfExp { test, body, orelse } => {
                f(body);
                f(test);
                f(orelse);
            }
            ExprKind::Starred(inner) => f(inner),
            ExprKind::Comprehension {
                element,
                value,
                clauses,
                ..
            } => {
                f(element);
                if let Some(v) = value {
                    f(v);
                }
                for c in clauses {
                    f(&c.target);
                    f(&c.iter);
                    c.ifs.iter().for_each(&mut *f);
                }
            }
            ExprKind::Yield(value) => {
                if let Some(e) = value {
                    f(e);
                }
            }
            ExprKind::YieldFrom(e) | ExprKind::Await(e) => f(e),
            ExprKind::Walrus { target, value } => {
                f(target);
                f(value);
            }
        }
    }

    /// Renders an annotation-like expression back to compact source text,
    /// e.g. `Dict[str, List[int]]` or `torch.Tensor`. Used to hand
    /// annotations to the type crate without a dependency in either
    /// direction. Returns `None` for expressions that cannot appear in a
    /// (supported) type annotation.
    pub fn annotation_text(&self) -> Option<String> {
        match &self.kind {
            ExprKind::Name(n) => Some(n.clone()),
            ExprKind::NoneLit => Some("None".to_string()),
            ExprKind::EllipsisLit => Some("...".to_string()),
            ExprKind::Str(s) => {
                // Forward-reference annotation: 'Foo' -> Foo.
                let trimmed = s.trim_matches(|c| c == '\'' || c == '"');
                Some(trimmed.to_string())
            }
            ExprKind::Attribute { value, attr, .. } => {
                Some(format!("{}.{}", value.annotation_text()?, attr))
            }
            ExprKind::Subscript { value, index } => {
                let base = value.annotation_text()?;
                let inner = match &index.kind {
                    ExprKind::Tuple(items) => {
                        let parts: Option<Vec<String>> =
                            items.iter().map(|e| e.annotation_text()).collect();
                        parts?.join(", ")
                    }
                    _ => index.annotation_text()?,
                };
                Some(format!("{base}[{inner}]"))
            }
            ExprKind::Tuple(items) => {
                let parts: Option<Vec<String>> =
                    items.iter().map(|e| e.annotation_text()).collect();
                Some(parts?.join(", "))
            }
            ExprKind::List(items) => {
                // Callable[[A, B], R] argument lists.
                let parts: Option<Vec<String>> =
                    items.iter().map(|e| e.annotation_text()).collect();
                Some(format!("[{}]", parts?.join(", ")))
            }
            ExprKind::BinOp {
                left,
                op: BinOp::BitOr,
                right,
            } => {
                // PEP 604 unions: `int | None`.
                Some(format!(
                    "{} | {}",
                    left.annotation_text()?,
                    right.annotation_text()?
                ))
            }
            _ => None,
        }
    }

    /// Whether the expression is a plain identifier.
    pub fn as_name(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Name(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Pos;

    fn expr(kind: ExprKind) -> Expr {
        Expr {
            meta: NodeMeta {
                id: NodeId(0),
                span: Span::point(Pos::START),
            },
            kind,
        }
    }

    #[test]
    fn annotation_text_simple() {
        assert_eq!(
            expr(ExprKind::Name("int".into()))
                .annotation_text()
                .unwrap(),
            "int"
        );
        assert_eq!(expr(ExprKind::NoneLit).annotation_text().unwrap(), "None");
    }

    #[test]
    fn annotation_text_generic() {
        let inner = expr(ExprKind::Tuple(vec![
            expr(ExprKind::Name("str".into())),
            expr(ExprKind::Name("int".into())),
        ]));
        let sub = expr(ExprKind::Subscript {
            value: Box::new(expr(ExprKind::Name("Dict".into()))),
            index: Box::new(inner),
        });
        assert_eq!(sub.annotation_text().unwrap(), "Dict[str, int]");
    }

    #[test]
    fn annotation_text_dotted() {
        let attr = expr(ExprKind::Attribute {
            value: Box::new(expr(ExprKind::Name("torch".into()))),
            attr: "Tensor".into(),
            attr_span: Span::point(Pos::START),
        });
        assert_eq!(attr.annotation_text().unwrap(), "torch.Tensor");
    }

    #[test]
    fn annotation_text_forward_reference() {
        assert_eq!(
            expr(ExprKind::Str("'Foo'".into()))
                .annotation_text()
                .unwrap(),
            "Foo"
        );
    }

    #[test]
    fn annotation_text_rejects_calls() {
        let call = expr(ExprKind::Call {
            func: Box::new(expr(ExprKind::Name("f".into()))),
            args: vec![],
            keywords: vec![],
        });
        assert_eq!(call.annotation_text(), None);
    }

    fn short(e: &Expr) -> String {
        match &e.kind {
            ExprKind::Name(n) | ExprKind::Num(n) => n.clone(),
            other => format!("{other:?}")
                .split([' ', '('])
                .next()
                .unwrap_or_default()
                .to_string(),
        }
    }

    /// The direct children of `value` in `r = value`.
    fn value_children(src: &str) -> Vec<String> {
        let parsed = crate::parse(&format!("r = {src}\n")).unwrap();
        let StmtKind::Assign { value, .. } = &parsed.module.body[0].kind else {
            panic!("expected assign");
        };
        let mut out = Vec::new();
        value.for_each_child(|c| out.push(short(c)));
        out
    }

    fn first_stmt_children(src: &str) -> Vec<String> {
        let parsed = crate::parse(src).unwrap();
        let mut out = Vec::new();
        parsed.module.body[0].for_each_child(|c| {
            out.push(match c {
                ChildRef::Stmt(s) => format!("stmt {:?}", s.meta.span.start.line),
                ChildRef::Expr(e) => format!("expr {}", short(e)),
                ChildRef::Annotation(e) => format!("ann {}", short(e)),
            })
        });
        out
    }

    #[test]
    fn dict_children_interleave_keys_and_values() {
        assert_eq!(
            value_children("{k1: v1, **s, k2: v2}"),
            ["k1", "v1", "s", "k2", "v2"]
        );
    }

    #[test]
    fn if_exp_children_follow_the_source() {
        assert_eq!(value_children("a if t else b"), ["a", "t", "b"]);
    }

    #[test]
    fn comprehension_children_put_the_element_first() {
        assert_eq!(
            value_children("{k: v for x in xs if c for y in ys}"),
            ["k", "v", "x", "xs", "c", "y", "ys"]
        );
    }

    #[test]
    fn children_cover_call_parts() {
        assert_eq!(
            value_children("f(x, *rest, key=y)"),
            ["f", "x", "Starred", "y"]
        );
    }

    #[test]
    fn function_children_mark_annotations() {
        let src = "@dec\ndef f(a: int = 1, b=2) -> str:\n    pass\n    return a\n";
        assert_eq!(
            first_stmt_children(src),
            ["expr dec", "ann int", "expr 1", "expr 2", "ann str", "stmt 3", "stmt 4"]
        );
        assert_eq!(
            first_stmt_children("x: List[int] = []\n"),
            ["expr x", "ann Subscript", "expr List"]
        );
    }

    #[test]
    fn blocks_come_in_source_order() {
        let src = "\
try:
    a = 1
except E:
    b = 2
except F:
    c = 3
else:
    d = 4
finally:
    e = 5
";
        let parsed = crate::parse(src).unwrap();
        let lines: Vec<Vec<u32>> = parsed.module.body[0]
            .blocks()
            .map(|b| b.iter().map(|s| s.meta.span.start.line).collect())
            .collect();
        assert_eq!(lines, [[2], [4], [6], [8], [10]]);
        let parsed = crate::parse("if t:\n    a = 1\nx = 2\n").unwrap();
        let sizes: Vec<usize> = parsed.module.body[0].blocks().map(<[Stmt]>::len).collect();
        assert_eq!(sizes, [1, 0, 0]);
        assert_eq!(parsed.module.body[1].blocks().flatten().count(), 0);
    }

    #[test]
    fn operator_symbols() {
        assert_eq!(BinOp::FloorDiv.symbol(), "//");
        assert_eq!(CmpOp::NotIn.symbol(), "not in");
    }
}
