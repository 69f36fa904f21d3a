//! The optional type checker: statement walking and issue reporting.
//!
//! Two profiles mirror the paper's two checkers (Sec. 6.3): the
//! mypy-like profile reasons only from explicit annotations; the
//! pytype-like profile additionally infers types of unannotated locals
//! from assignments, so it can disprove more type assignments. Both are
//! best-effort and silent wherever the partial context leaves a type
//! unknown — the defining property of optional typing.

use crate::builtins::{element_of, known_not_iterable, method_on, MethodLookup};
use crate::env::TypeEnv;
use crate::infer::{binop_valid, Inferencer};
use typilus_pyast::ast::{Expr, ExprKind, NodeId, Stmt, StmtKind};
use typilus_pyast::symtable::{SymbolId, SymbolKind, SymbolTable};
use typilus_pyast::visit::{walk_stmt, Visitor};
use typilus_pyast::{Parsed, Span};
use typilus_types::{PyType, TypeHierarchy};

/// Which checker to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckerProfile {
    /// Annotation-driven only (mypy-like).
    Mypy,
    /// Annotation-driven plus local type inference (pytype-like).
    Pytype,
}

/// Category of a reported type error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueCode {
    /// Assigned value is not a subtype of the declared target type.
    IncompatibleAssignment,
    /// Returned value is not a subtype of the declared return type.
    IncompatibleReturn,
    /// Function declares a non-optional return type but never returns.
    MissingReturn,
    /// Call argument incompatible with the declared parameter type.
    BadArgument,
    /// Call has too many / too few positional arguments.
    WrongArity,
    /// Keyword argument name not accepted by the callee.
    UnknownKeyword,
    /// Binary operation between incompatible types.
    InvalidOperand,
    /// Iterating a value known not to be iterable.
    NotIterable,
    /// Attribute not present on the receiver's type.
    AttrError,
    /// Subscripting a non-subscriptable value.
    NotSubscriptable,
}

/// One reported type error.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeIssue {
    /// Where the error was detected.
    pub span: Span,
    /// Error category.
    pub code: IssueCode,
    /// Human-readable description.
    pub message: String,
}

/// The optional type checker.
#[derive(Debug, Clone, Copy)]
pub struct TypeChecker {
    /// The emulated checker profile.
    pub profile: CheckerProfile,
}

impl TypeChecker {
    /// Creates a checker with the given profile.
    pub fn new(profile: CheckerProfile) -> TypeChecker {
        TypeChecker { profile }
    }

    /// Checks a module as written.
    pub fn check(&self, parsed: &Parsed, table: &SymbolTable) -> Vec<TypeIssue> {
        let mut hierarchy = TypeHierarchy::new();
        let env = TypeEnv::build(parsed, table, &mut hierarchy);
        self.check_with_env(parsed, table, &env, &hierarchy)
    }

    /// Checks a module after substituting `ty` as the annotation of
    /// `symbol` — one step of the paper's Sec. 6.3 experiment.
    pub fn check_with_override(
        &self,
        parsed: &Parsed,
        table: &SymbolTable,
        symbol: SymbolId,
        ty: PyType,
    ) -> Vec<TypeIssue> {
        let mut hierarchy = TypeHierarchy::new();
        let mut env = TypeEnv::build(parsed, table, &mut hierarchy);
        env.override_symbol(symbol, ty);
        self.check_with_env(parsed, table, &env, &hierarchy)
    }

    /// Checks a module under an explicit environment.
    pub fn check_with_env(
        &self,
        parsed: &Parsed,
        table: &SymbolTable,
        env: &TypeEnv,
        hierarchy: &TypeHierarchy,
    ) -> Vec<TypeIssue> {
        let mut inferencer = Inferencer::new(env, table, hierarchy);
        if self.profile == CheckerProfile::Pytype {
            inferencer.infer_locals(&parsed.module.body);
        }
        let mut walker = Walker {
            inf: inferencer,
            env,
            table,
            hierarchy,
            issues: Vec::new(),
            func_stack: Vec::new(),
        };
        walker.check_block(&parsed.module.body);
        walker.issues
    }
}

struct Walker<'a> {
    inf: Inferencer<'a>,
    env: &'a TypeEnv,
    table: &'a SymbolTable,
    hierarchy: &'a TypeHierarchy,
    issues: Vec<TypeIssue>,
    func_stack: Vec<NodeId>,
}

impl Walker<'_> {
    fn report(&mut self, span: Span, code: IssueCode, message: impl Into<String>) {
        self.issues.push(TypeIssue {
            span,
            code,
            message: message.into(),
        });
    }

    fn assignable(&self, value: &PyType, declared: &PyType) -> bool {
        self.hierarchy.is_subtype(value, declared)
    }

    fn check_block(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            self.check_stmt(stmt);
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::FunctionDef(f) => {
                for d in &f.decorators {
                    self.check_expr(d);
                }
                for p in &f.params {
                    if let (Some(default), Some(sym)) =
                        (&p.default, self.table.symbol_at(p.name_span))
                    {
                        self.check_expr(default);
                        if let (Some(dt), Some(declared)) =
                            (self.inf.infer(default), self.env.type_of(sym.id))
                        {
                            // `x: T = None` is conventionally allowed as
                            // an implicit Optional by both checkers.
                            if dt != PyType::None && !self.assignable(&dt, declared) {
                                self.report(
                                    p.name_span,
                                    IssueCode::IncompatibleAssignment,
                                    format!(
                                        "default of type {dt} incompatible with parameter annotation {declared}"
                                    ),
                                );
                            }
                        }
                    }
                }
                self.func_stack.push(stmt.meta.id);
                self.check_block(&f.body);
                self.func_stack.pop();
                self.check_missing_return(stmt, f);
            }
            StmtKind::ClassDef(c) => self.check_block(&c.body),
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    self.check_expr(v);
                }
                self.check_return(stmt, value.as_ref());
            }
            StmtKind::Assign { targets, value } => {
                self.check_expr(value);
                for target in targets {
                    self.check_expr(target);
                    self.check_assignment(target, value);
                }
            }
            StmtKind::AnnAssign {
                target,
                value: Some(v),
                ..
            } => {
                self.check_expr(v);
                self.check_assignment(target, v);
            }
            StmtKind::AnnAssign { .. } => {}
            StmtKind::AugAssign { target, op, value } => {
                self.check_expr(target);
                self.check_expr(value);
                if let (Some(tt), Some(vt)) = (self.infer_target(target), self.inf.infer(value)) {
                    if let Some(binop) = aug_op(op) {
                        if !binop_valid(binop, &tt, &vt) {
                            self.report(
                                stmt.meta.span,
                                IssueCode::InvalidOperand,
                                format!("unsupported operand types for {op}=: {tt} and {vt}"),
                            );
                        }
                    }
                }
            }
            StmtKind::For {
                target,
                iter,
                body,
                orelse,
                ..
            } => {
                self.check_expr(iter);
                if let Some(it) = self.inf.infer(iter) {
                    if known_not_iterable(&it) {
                        self.report(
                            iter.meta.span,
                            IssueCode::NotIterable,
                            format!("{it} is not iterable"),
                        );
                    } else if let (Some(elem), Some(name)) = (element_of(&it), target.as_name()) {
                        // Loop variable with an explicit annotation.
                        if let Some(declared) = self.inf.symbol_type(target.meta.span) {
                            if self
                                .table
                                .symbol_at(target.meta.span)
                                .and_then(|s| s.annotation.as_ref())
                                .is_some()
                                && !self.assignable(&elem, &declared)
                            {
                                self.report(
                                    target.meta.span,
                                    IssueCode::IncompatibleAssignment,
                                    format!("loop variable {name}: iterating {it} yields {elem}, not {declared}"),
                                );
                            }
                        }
                    }
                }
                self.check_block(body);
                self.check_block(orelse);
            }
            StmtKind::While { test, body, orelse } => {
                self.check_expr(test);
                self.check_block(body);
                self.check_block(orelse);
            }
            StmtKind::If { test, body, orelse } => {
                self.check_expr(test);
                // Flow-sensitive Optional narrowing, as both mypy and
                // pytype perform: `x is None` / `x is not None` /
                // truthiness tests split Union[T, None] across branches.
                match self.narrowing_from_test(test) {
                    Some((sym, then_ty, else_ty)) => {
                        let prev = match then_ty {
                            Some(t) => Some(self.inf.narrow(sym, t)),
                            None => None,
                        };
                        self.check_block(body);
                        if let Some(p) = prev {
                            self.inf.restore(sym, p);
                        }
                        let prev = match else_ty {
                            Some(t) => Some(self.inf.narrow(sym, t)),
                            None => None,
                        };
                        self.check_block(orelse);
                        if let Some(p) = prev {
                            self.inf.restore(sym, p);
                        }
                    }
                    None => {
                        self.check_block(body);
                        self.check_block(orelse);
                    }
                }
            }
            StmtKind::With { items, body } => {
                for item in items {
                    self.check_expr(&item.context);
                }
                self.check_block(body);
            }
            StmtKind::Raise { exc, cause } => {
                for e in [exc, cause].into_iter().flatten() {
                    self.check_expr(e);
                }
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                self.check_block(body);
                for h in handlers {
                    self.check_block(&h.body);
                }
                self.check_block(orelse);
                self.check_block(finalbody);
            }
            StmtKind::Assert { test, msg } => {
                self.check_expr(test);
                if let Some(m) = msg {
                    self.check_expr(m);
                }
            }
            StmtKind::Expr(e) => self.check_expr(e),
            StmtKind::Delete(targets) => {
                for t in targets {
                    self.check_expr(t);
                }
            }
            _ => {}
        }
    }

    /// Extracts an Optional-narrowing from an `if` test: returns the
    /// symbol plus the types to assume in the then- and else-branches.
    /// Only fires when the tested symbol currently has an Optional type.
    fn narrowing_from_test(
        &self,
        test: &Expr,
    ) -> Option<(SymbolId, Option<PyType>, Option<PyType>)> {
        use typilus_pyast::ast::CmpOp;
        let (name_expr, op) = match &test.kind {
            ExprKind::Compare {
                left,
                ops,
                comparators,
            } if ops.len() == 1
                && matches!(ops[0], CmpOp::Is | CmpOp::IsNot)
                && matches!(comparators[0].kind, ExprKind::NoneLit) =>
            {
                (left.as_ref(), Some(ops[0]))
            }
            ExprKind::Name(_) => (test, None),
            _ => return None,
        };
        let sym = self.table.symbol_at(name_expr.meta.span)?;
        let current = self.inf.symbol_type(name_expr.meta.span)?;
        let PyType::Union(members) = &current else {
            return None;
        };
        if !members.contains(&PyType::None) {
            return None;
        }
        let stripped = PyType::union(
            members
                .iter()
                .filter(|m| **m != PyType::None)
                .cloned()
                .collect(),
        );
        Some(match op {
            Some(CmpOp::Is) => (sym.id, Some(PyType::None), Some(stripped)),
            Some(CmpOp::IsNot) => (sym.id, Some(stripped), Some(PyType::None)),
            // `if x:` — truthy branch excludes None; the falsy branch
            // may still be a falsy T, so it stays unnarrowed.
            _ => (sym.id, Some(stripped), None),
        })
    }

    /// The declared/inferred type of an assignment target.
    fn infer_target(&self, target: &Expr) -> Option<PyType> {
        match &target.kind {
            ExprKind::Name(_) => self.inf.symbol_type(target.meta.span),
            ExprKind::Attribute { attr_span, .. } => self.inf.symbol_type(*attr_span),
            _ => self.inf.infer(target),
        }
    }

    fn check_assignment(&mut self, target: &Expr, value: &Expr) {
        match &target.kind {
            ExprKind::Name(name) => {
                let Some(sym) = self.table.symbol_at(target.meta.span) else {
                    return;
                };
                let Some(declared) = self.env.type_of(sym.id) else {
                    return;
                };
                let Some(vt) = self.inf.infer(value) else {
                    return;
                };
                if !self.assignable(&vt, declared) {
                    self.report(
                        target.meta.span,
                        IssueCode::IncompatibleAssignment,
                        format!("cannot assign {vt} to {name}: {declared}"),
                    );
                }
            }
            ExprKind::Attribute {
                value: recv,
                attr,
                attr_span,
            } => {
                if recv.as_name() != Some("self") {
                    return;
                }
                let Some(sym) = self.table.symbol_at(*attr_span) else {
                    return;
                };
                let Some(declared) = self.env.type_of(sym.id) else {
                    return;
                };
                let Some(vt) = self.inf.infer(value) else {
                    return;
                };
                if !self.assignable(&vt, declared) {
                    self.report(
                        *attr_span,
                        IssueCode::IncompatibleAssignment,
                        format!("cannot assign {vt} to self.{attr}: {declared}"),
                    );
                }
            }
            ExprKind::Tuple(items) => {
                // Pairwise when the value is a literal tuple.
                if let ExprKind::Tuple(values) = &value.kind {
                    if items.len() == values.len() {
                        for (t, v) in items.iter().zip(values) {
                            self.check_assignment(t, v);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn check_return(&mut self, stmt: &Stmt, value: Option<&Expr>) {
        let Some(&func) = self.func_stack.last() else {
            return;
        };
        let Some(&ret_sym) = self.env.return_symbols.get(&func) else {
            return;
        };
        let Some(declared) = self.env.type_of(ret_sym) else {
            return;
        };
        if *declared == PyType::Any {
            return;
        }
        let vt = match value {
            Some(v) => match self.inf.infer(v) {
                Some(t) => t,
                None => return,
            },
            None => PyType::None,
        };
        if !self.assignable(&vt, declared) {
            self.report(
                stmt.meta.span,
                IssueCode::IncompatibleReturn,
                format!("returning {vt} from a function declared to return {declared}"),
            );
        }
    }

    fn check_missing_return(&mut self, stmt: &Stmt, f: &typilus_pyast::ast::FunctionDef) {
        let Some(&ret_sym) = self.env.return_symbols.get(&stmt.meta.id) else {
            return;
        };
        let Some(declared) = self.env.type_of(ret_sym) else {
            return;
        };
        if *declared == PyType::None
            || *declared == PyType::Any
            || matches!(declared, PyType::Union(members) if members.contains(&PyType::None))
            || matches!(
                declared.base_name(),
                "Generator" | "Iterator" | "Iterable" | "Coroutine" | "Awaitable"
            )
        {
            return;
        }
        if f.is_async {
            return;
        }
        if !(body_returns_value(&f.body) || body_yields(&f.body)) {
            self.report(
                f.name_span,
                IssueCode::MissingReturn,
                format!("function declared to return {declared} never returns a value"),
            );
        }
    }

    fn check_expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::BinOp { left, op, right } => {
                self.check_expr(left);
                self.check_expr(right);
                if let (Some(lt), Some(rt)) = (self.inf.infer(left), self.inf.infer(right)) {
                    if !binop_valid(*op, &lt, &rt) {
                        self.report(
                            expr.meta.span,
                            IssueCode::InvalidOperand,
                            format!(
                                "unsupported operand types for {}: {lt} and {rt}",
                                op.symbol()
                            ),
                        );
                    }
                }
            }
            ExprKind::Call {
                func,
                args,
                keywords,
            } => {
                self.check_expr(func);
                for a in args {
                    self.check_expr(a);
                }
                for k in keywords {
                    self.check_expr(&k.value);
                }
                self.check_call(expr, func, args, keywords);
            }
            ExprKind::Attribute {
                value,
                attr,
                attr_span,
            } => {
                self.check_expr(value);
                // A member access `self.x` resolves via the symbol table.
                if self.table.symbol_at(*attr_span).is_some() {
                    return;
                }
                if let Some(recv) = self.inf.infer(value) {
                    if matches!(method_on(&recv, attr), MethodLookup::UnknownAttribute) {
                        self.report(
                            *attr_span,
                            IssueCode::AttrError,
                            format!("{recv} has no attribute `{attr}`"),
                        );
                    }
                }
            }
            ExprKind::Subscript { value, index } => {
                self.check_expr(value);
                self.check_expr(index);
                if let Some(recv) = self.inf.infer(value) {
                    if known_not_iterable(&recv) {
                        self.report(
                            expr.meta.span,
                            IssueCode::NotSubscriptable,
                            format!("{recv} is not subscriptable"),
                        );
                    }
                }
            }
            // Recurse generically for everything else.
            ExprKind::Tuple(items) | ExprKind::List(items) | ExprKind::Set(items) => {
                for e in items {
                    self.check_expr(e);
                }
            }
            ExprKind::Dict { keys, values } => {
                for k in keys.iter().flatten() {
                    self.check_expr(k);
                }
                for v in values {
                    self.check_expr(v);
                }
            }
            ExprKind::UnaryOp { operand, .. } => self.check_expr(operand),
            ExprKind::BoolOp { values, .. } => {
                for v in values {
                    self.check_expr(v);
                }
            }
            ExprKind::Compare {
                left, comparators, ..
            } => {
                self.check_expr(left);
                for c in comparators {
                    self.check_expr(c);
                }
            }
            ExprKind::Slice { lower, upper, step } => {
                for e in [lower, upper, step].into_iter().flatten() {
                    self.check_expr(e);
                }
            }
            ExprKind::Lambda { body, .. } => self.check_expr(body),
            ExprKind::IfExp { test, body, orelse } => {
                self.check_expr(test);
                self.check_expr(body);
                self.check_expr(orelse);
            }
            ExprKind::Starred(inner) => self.check_expr(inner),
            ExprKind::Comprehension {
                element,
                value,
                clauses,
                ..
            } => {
                for c in clauses {
                    self.check_expr(&c.iter);
                    for i in &c.ifs {
                        self.check_expr(i);
                    }
                }
                self.check_expr(element);
                if let Some(v) = value {
                    self.check_expr(v);
                }
            }
            ExprKind::Yield(Some(v)) => self.check_expr(v),
            ExprKind::YieldFrom(v) | ExprKind::Await(v) => self.check_expr(v),
            ExprKind::Walrus { value, .. } => self.check_expr(value),
            _ => {}
        }
    }

    fn check_call(
        &mut self,
        call: &Expr,
        func: &Expr,
        args: &[Expr],
        keywords: &[typilus_pyast::ast::Keyword],
    ) {
        // Resolve the callee's signature.
        let (sig_sym, skip_receiver) = match &func.kind {
            ExprKind::Name(_) => {
                let Some(sym) = self.table.symbol_at(func.meta.span) else {
                    return;
                };
                match sym.kind {
                    SymbolKind::Function => (sym.id, false),
                    SymbolKind::Class => {
                        // Constructor: check against __init__ skipping self.
                        match self.env.methods.get(&(sym.name.clone(), "__init__".into())) {
                            Some(&init) => (init, true),
                            None => return,
                        }
                    }
                    _ => return,
                }
            }
            ExprKind::Attribute { value, attr, .. } => {
                let Some(recv) = self.inf.infer(value) else {
                    return;
                };
                let PyType::Named { name, .. } = &recv else {
                    return;
                };
                match self.env.methods.get(&(name.clone(), attr.clone())) {
                    Some(&m) => (m, true),
                    None => return,
                }
            }
            _ => return,
        };
        let Some(sig) = self.env.functions.get(&sig_sym) else {
            return;
        };
        let params: Vec<_> = if skip_receiver && sig.is_method {
            sig.params.iter().skip(1).collect()
        } else {
            sig.params.iter().collect()
        };
        let has_splat = args.iter().any(|a| matches!(a.kind, ExprKind::Starred(_)))
            || keywords.iter().any(|k| k.arg.is_none());
        // Arity.
        if !sig.variadic && !has_splat {
            let required = params
                .iter()
                .filter(|(_, _, has_default)| !has_default)
                .count();
            let supplied = args.len() + keywords.len();
            if args.len() > params.len() || supplied < required {
                self.report(
                    call.meta.span,
                    IssueCode::WrongArity,
                    format!(
                        "call supplies {} positional argument(s); callee takes {} (of which {} required)",
                        args.len(),
                        params.len(),
                        required
                    ),
                );
                return;
            }
        }
        // Keyword names.
        if !sig.variadic {
            for k in keywords {
                if let Some(name) = &k.arg {
                    if !params.iter().any(|(p, _, _)| p == name) {
                        self.report(
                            k.value.meta.span,
                            IssueCode::UnknownKeyword,
                            format!("unexpected keyword argument `{name}`"),
                        );
                    }
                }
            }
        }
        // Positional argument types.
        for (arg, (pname, psym, _)) in args.iter().zip(params.iter()) {
            if matches!(arg.kind, ExprKind::Starred(_)) {
                break;
            }
            let Some(declared) = psym.and_then(|s| self.env.type_of(s)) else {
                continue;
            };
            let Some(at) = self.inf.infer(arg) else {
                continue;
            };
            if at != PyType::None && !self.assignable(&at, declared) {
                self.report(
                    arg.meta.span,
                    IssueCode::BadArgument,
                    format!("argument `{pname}` expects {declared}, got {at}"),
                );
            }
        }
        // Keyword argument types.
        for k in keywords {
            let Some(name) = &k.arg else { continue };
            let Some((pname, psym, _)) = params.iter().find(|(p, _, _)| p == name) else {
                continue;
            };
            let Some(declared) = psym.and_then(|s| self.env.type_of(s)) else {
                continue;
            };
            let Some(at) = self.inf.infer(&k.value) else {
                continue;
            };
            if at != PyType::None && !self.assignable(&at, declared) {
                self.report(
                    k.value.meta.span,
                    IssueCode::BadArgument,
                    format!("argument `{pname}` expects {declared}, got {at}"),
                );
            }
        }
    }
}

fn aug_op(op: &str) -> Option<typilus_pyast::ast::BinOp> {
    use typilus_pyast::ast::BinOp::*;
    Some(match op {
        "+" => Add,
        "-" => Sub,
        "*" => Mul,
        "/" => Div,
        "//" => FloorDiv,
        "%" => Mod,
        "**" => Pow,
        "<<" => LShift,
        ">>" => RShift,
        "|" => BitOr,
        "&" => BitAnd,
        "^" => BitXor,
        "@" => MatMul,
        _ => return None,
    })
}

fn body_returns_value(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|stmt| match &stmt.kind {
        StmtKind::Return(Some(_)) => true,
        StmtKind::FunctionDef(_) | StmtKind::ClassDef(_) => false,
        _ => stmt.blocks().any(body_returns_value),
    })
}

/// Whether the body yields, in any expression position, outside nested
/// defs, classes and lambdas: then the function is a generator.
fn body_yields(stmts: &[Stmt]) -> bool {
    struct YieldScan {
        found: bool,
        /// Body spans of the lambdas walked so far: their yields belong
        /// to the lambda. Lambda nodes are visited before their bodies.
        lambda_bodies: Vec<Span>,
    }
    impl Visitor for YieldScan {
        fn visit_expr(&mut self, expr: &Expr) {
            let start = expr.meta.span.start.offset;
            if self
                .lambda_bodies
                .iter()
                .any(|b| b.start.offset <= start && start < b.end.offset)
            {
                return;
            }
            match &expr.kind {
                ExprKind::Lambda { body, .. } => self.lambda_bodies.push(body.meta.span),
                ExprKind::Yield(_) | ExprKind::YieldFrom(_) => self.found = true,
                _ => {}
            }
        }
        fn enter_scopes(&self) -> bool {
            false
        }
    }
    let mut scan = YieldScan {
        found: false,
        lambda_bodies: Vec::new(),
    };
    for stmt in stmts {
        walk_stmt(&mut scan, stmt);
    }
    scan.found
}
