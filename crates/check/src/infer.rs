//! Best-effort expression type inference over partial annotations.
//!
//! Inference is deliberately *optional-typing shaped*: an expression the
//! engine cannot type yields `None` and downstream checks stay silent,
//! mirroring how mypy/pytype reason over partial contexts. The
//! pytype-like profile additionally runs a flow-insensitive assignment
//! inference pre-pass so unannotated locals get types too.

use crate::builtins::{builtin_call, element_of, method_on, MethodLookup};
use crate::env::TypeEnv;
use std::collections::HashMap;
use typilus_pyast::ast::{BinOp, ChildRef, Expr, ExprKind, Stmt, StmtKind, UnaryOp};
use typilus_pyast::symtable::{SymbolId, SymbolKind, SymbolTable};
use typilus_types::{PyType, TypeHierarchy};

/// Expression type inference over a [`TypeEnv`].
pub struct Inferencer<'a> {
    /// The typing environment.
    pub env: &'a TypeEnv,
    /// The module's symbol table.
    pub table: &'a SymbolTable,
    /// The (class-extended) type hierarchy.
    pub hierarchy: &'a TypeHierarchy,
    /// Types inferred for unannotated locals (pytype profile); empty for
    /// the mypy profile.
    pub local_inferred: HashMap<SymbolId, PyType>,
    /// Flow-sensitive narrowings currently in force (`if x is not None:`
    /// branches). Overrides both annotations and local inference.
    pub narrowed: HashMap<SymbolId, PyType>,
}

impl<'a> Inferencer<'a> {
    /// Creates an inferencer without local inference (mypy-like).
    pub fn new(env: &'a TypeEnv, table: &'a SymbolTable, hierarchy: &'a TypeHierarchy) -> Self {
        Inferencer {
            env,
            table,
            hierarchy,
            local_inferred: HashMap::new(),
            narrowed: HashMap::new(),
        }
    }

    /// Runs the flow-insensitive assignment inference pre-pass over the
    /// module (pytype-like profile): unannotated variables get the union
    /// of their inferable assigned types.
    pub fn infer_locals(&mut self, body: &[Stmt]) {
        // Two rounds so chained assignments (y = x after x = 1) resolve.
        for _ in 0..2 {
            let mut updates: Vec<(SymbolId, PyType)> = Vec::new();
            self.collect_assignments(body, &mut updates);
            for (sym, ty) in updates {
                let entry = self.local_inferred.entry(sym).or_insert_with(|| ty.clone());
                if *entry != ty {
                    *entry = PyType::union(vec![entry.clone(), ty]);
                }
            }
        }
    }

    fn collect_assignments(&self, body: &[Stmt], out: &mut Vec<(SymbolId, PyType)>) {
        for stmt in body {
            self.collect_expr_bindings(stmt, out);
            match &stmt.kind {
                StmtKind::Assign { targets, value } => {
                    if let Some(vt) = self.infer(value) {
                        for t in targets {
                            self.bind_target(t, &vt, out);
                        }
                    }
                }
                StmtKind::For { target, iter, .. } => {
                    if let Some(it) = self.infer(iter) {
                        if let Some(elem) = element_of(&it) {
                            self.bind_target(target, &elem, out);
                        }
                    }
                }
                _ => {}
            }
            for block in stmt.blocks() {
                self.collect_assignments(block, out);
            }
        }
    }

    /// Binds comprehension clause targets and walrus assignments found in
    /// `stmt`'s own expressions. Nested blocks are left to
    /// [`Self::collect_assignments`], so each expression is scanned once.
    fn collect_expr_bindings(&self, stmt: &Stmt, out: &mut Vec<(SymbolId, PyType)>) {
        struct Scan<'x, 'a> {
            inf: &'x Inferencer<'a>,
            out: &'x mut Vec<(SymbolId, PyType)>,
        }
        impl typilus_pyast::visit::Visitor for Scan<'_, '_> {
            fn visit_expr(&mut self, expr: &Expr) {
                match &expr.kind {
                    ExprKind::Comprehension { clauses, .. } => {
                        for c in clauses {
                            if let Some(it) = self.inf.infer(&c.iter) {
                                if let Some(elem) = element_of(&it) {
                                    self.inf.bind_target(&c.target, &elem, self.out);
                                }
                            }
                        }
                    }
                    ExprKind::Walrus { target, value } => {
                        if let Some(vt) = self.inf.infer(value) {
                            self.inf.bind_target(target, &vt, self.out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut scan = Scan { inf: self, out };
        stmt.for_each_child(|child| match child {
            ChildRef::Expr(e) | ChildRef::Annotation(e) => {
                typilus_pyast::visit::walk_expr(&mut scan, e);
            }
            ChildRef::Stmt(_) => {}
        });
    }

    fn bind_target(&self, target: &Expr, ty: &PyType, out: &mut Vec<(SymbolId, PyType)>) {
        match &target.kind {
            ExprKind::Name(_) => {
                if let Some(sym) = self.table.symbol_at(target.meta.span) {
                    // Only variables without an explicit annotation.
                    if matches!(sym.kind, SymbolKind::Variable) && sym.annotation.is_none() {
                        out.push((sym.id, ty.clone()));
                    }
                }
            }
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                // Unpack a Tuple type elementwise if arities match.
                if let PyType::Named { name, args } = ty {
                    if name == "Tuple" && args.len() == items.len() {
                        for (item, a) in items.iter().zip(args) {
                            self.bind_target(item, a, out);
                        }
                        return;
                    }
                }
                if let Some(elem) = element_of(ty) {
                    for item in items {
                        self.bind_target(item, &elem, out);
                    }
                }
            }
            _ => {}
        }
    }

    /// The declared or inferred type of the symbol at a name occurrence.
    /// Flow-sensitive narrowings take precedence over declarations.
    pub fn symbol_type(&self, span: typilus_pyast::Span) -> Option<PyType> {
        let sym = self.table.symbol_at(span)?;
        if let Some(ty) = self.narrowed.get(&sym.id) {
            return Some(ty.clone());
        }
        if let Some(ty) = self.env.annotations.get(&sym.id) {
            return Some(ty.clone());
        }
        self.local_inferred.get(&sym.id).cloned()
    }

    /// Installs a narrowing; returns the previous one, for restoration.
    pub fn narrow(&mut self, sym: SymbolId, ty: PyType) -> Option<PyType> {
        self.narrowed.insert(sym, ty)
    }

    /// Restores a narrowing saved by [`Inferencer::narrow`].
    pub fn restore(&mut self, sym: SymbolId, previous: Option<PyType>) {
        match previous {
            Some(ty) => {
                self.narrowed.insert(sym, ty);
            }
            None => {
                self.narrowed.remove(&sym);
            }
        }
    }

    /// Infers the type of an expression, if the engine understands it.
    pub fn infer(&self, expr: &Expr) -> Option<PyType> {
        match &expr.kind {
            ExprKind::Num(text) => Some(infer_number(text)),
            ExprKind::Str(text) => {
                let is_bytes = text
                    .bytes()
                    .take_while(|b| !matches!(b, b'"' | b'\''))
                    .any(|b| b.eq_ignore_ascii_case(&b'b'));
                Some(if is_bytes {
                    PyType::named("bytes")
                } else {
                    PyType::named("str")
                })
            }
            ExprKind::FString(_) => Some(PyType::named("str")),
            ExprKind::Bool(_) => Some(PyType::named("bool")),
            ExprKind::NoneLit => Some(PyType::None),
            ExprKind::EllipsisLit => None,
            ExprKind::Name(name) => {
                if let Some(ty) = self.symbol_type(expr.meta.span) {
                    return Some(ty);
                }
                // A reference to a class is a Type value; calls handle
                // construction separately.
                let sym = self.table.symbol_at(expr.meta.span)?;
                if sym.kind == SymbolKind::Class {
                    return Some(PyType::generic("Type", vec![PyType::named(name)]));
                }
                None
            }
            ExprKind::Tuple(items) => {
                let args: Vec<PyType> = items
                    .iter()
                    .map(|e| self.infer(e).unwrap_or(PyType::Any))
                    .collect();
                Some(PyType::generic("Tuple", args))
            }
            ExprKind::List(items) => Some(PyType::generic("List", vec![self.join_elements(items)])),
            ExprKind::Set(items) => Some(PyType::generic("Set", vec![self.join_elements(items)])),
            ExprKind::Dict { keys, values } => {
                let key_items: Vec<Expr> = keys.iter().flatten().cloned().collect();
                let k = self.join_elements(&key_items);
                let v = self.join_elements(values);
                Some(PyType::generic("Dict", vec![k, v]))
            }
            ExprKind::BinOp { left, op, right } => {
                let lt = self.infer(left);
                let rt = self.infer(right);
                binop_result(*op, lt.as_ref()?, rt.as_ref()?)
            }
            ExprKind::UnaryOp { op, operand } => match op {
                UnaryOp::Not => Some(PyType::named("bool")),
                UnaryOp::Neg | UnaryOp::Pos => self.infer(operand),
                UnaryOp::Invert => Some(PyType::named("int")),
            },
            ExprKind::BoolOp { values, .. } => {
                let parts: Option<Vec<PyType>> = values.iter().map(|v| self.infer(v)).collect();
                parts.map(PyType::union)
            }
            ExprKind::Compare { .. } => Some(PyType::named("bool")),
            ExprKind::Call { func, args, .. } => self.infer_call(func, args),
            ExprKind::Attribute {
                value,
                attr,
                attr_span,
            } => {
                // Class members (`self.x`).
                if let Some(ty) = self.symbol_type(*attr_span) {
                    return Some(ty);
                }
                let recv = self.infer(value)?;
                match method_on(&recv, attr) {
                    MethodLookup::Returns(ty) => {
                        // Attribute access to a method yields a callable;
                        // the call case extracts the return type. Here we
                        // conservatively produce a Callable.
                        Some(PyType::Callable {
                            params: None,
                            ret: Box::new(ty),
                        })
                    }
                    _ => None,
                }
            }
            ExprKind::Subscript { value, index } => {
                let recv = self.infer(value)?;
                self.subscript_result(&recv, index)
            }
            ExprKind::Slice { .. } => None,
            ExprKind::Lambda { .. } => Some(PyType::Callable {
                params: None,
                ret: Box::new(PyType::Any),
            }),
            ExprKind::IfExp { body, orelse, .. } => {
                let a = self.infer(body)?;
                let b = self.infer(orelse)?;
                Some(PyType::union(vec![a, b]))
            }
            ExprKind::Starred(inner) => self.infer(inner),
            ExprKind::Comprehension {
                kind,
                element,
                value,
                ..
            } => {
                use typilus_pyast::ast::CompKind;
                let elem = self.infer(element).unwrap_or(PyType::Any);
                Some(match kind {
                    CompKind::List => PyType::generic("List", vec![elem]),
                    CompKind::Set => PyType::generic("Set", vec![elem]),
                    CompKind::Generator => PyType::generic("Generator", vec![elem]),
                    CompKind::Dict => {
                        let v = value
                            .as_ref()
                            .and_then(|v| self.infer(v))
                            .unwrap_or(PyType::Any);
                        PyType::generic("Dict", vec![elem, v])
                    }
                })
            }
            ExprKind::Yield(_) | ExprKind::YieldFrom(_) => None,
            ExprKind::Await(_) => None,
            ExprKind::Walrus { value, .. } => self.infer(value),
        }
    }

    fn join_elements(&self, items: &[Expr]) -> PyType {
        let mut types: Vec<PyType> = Vec::new();
        for item in items {
            match self.infer(item) {
                Some(t) => types.push(t),
                None => return PyType::Any,
            }
        }
        if types.is_empty() {
            PyType::Any
        } else {
            PyType::union(types)
        }
    }

    fn infer_call(&self, func: &Expr, args: &[Expr]) -> Option<PyType> {
        match &func.kind {
            ExprKind::Name(name) => {
                if let Some(sym) = self.table.symbol_at(func.meta.span) {
                    match sym.kind {
                        SymbolKind::Class => return Some(PyType::named(&sym.name)),
                        SymbolKind::Function => {
                            let sig = self.env.functions.get(&sym.id)?;
                            let ret = sig.ret?;
                            return self.env.annotations.get(&ret).cloned();
                        }
                        _ => {}
                    }
                }
                let arg_types: Vec<Option<PyType>> = args.iter().map(|a| self.infer(a)).collect();
                builtin_call(name, &arg_types)
            }
            ExprKind::Attribute { value, attr, .. } => {
                // User-class method call: obj.m() where obj: C.
                if let Some(recv) = self.infer(value) {
                    if let PyType::Named { name, .. } = &recv {
                        if let Some(&func_sym) = self.env.methods.get(&(name.clone(), attr.clone()))
                        {
                            let sig = self.env.functions.get(&func_sym)?;
                            let ret = sig.ret?;
                            return self.env.annotations.get(&ret).cloned();
                        }
                    }
                    return match method_on(&recv, attr) {
                        MethodLookup::Returns(ty) => Some(ty),
                        _ => None,
                    };
                }
                None
            }
            _ => None,
        }
    }

    fn subscript_result(&self, recv: &PyType, index: &Expr) -> Option<PyType> {
        let index_ty = self.infer(index);
        match recv.base_name() {
            "List" | "Sequence" | "MutableSequence" => {
                if matches!(index.kind, ExprKind::Slice { .. }) {
                    Some(recv.clone())
                } else {
                    element_of(recv)
                }
            }
            "str" | "bytes" => Some(recv.clone()),
            "Dict" | "Mapping" | "MutableMapping" => match recv {
                PyType::Named { args, .. } if args.len() > 1 => Some(args[1].clone()),
                _ => Some(PyType::Any),
            },
            "Tuple" => {
                if let (PyType::Named { args, .. }, ExprKind::Num(n)) = (recv, &index.kind) {
                    if let Ok(i) = n.parse::<usize>() {
                        if i < args.len() {
                            return Some(args[i].clone());
                        }
                    }
                    if !args.is_empty() {
                        return Some(PyType::union(args.clone()));
                    }
                }
                Some(PyType::Any)
            }
            _ => {
                let _ = index_ty;
                None
            }
        }
    }
}

/// The numeric literal's type.
pub fn infer_number(text: &str) -> PyType {
    let lower = text.to_ascii_lowercase();
    if lower.ends_with('j') {
        PyType::named("complex")
    } else if !lower.starts_with("0x")
        && !lower.starts_with("0o")
        && !lower.starts_with("0b")
        && (lower.contains('.') || lower.contains('e'))
    {
        PyType::named("float")
    } else {
        PyType::named("int")
    }
}

/// The result type of a binary operation on known operand types, or
/// `None` when the combination is not understood (including the
/// *invalid* combinations — the checker decides which is which via
/// [`binop_valid`]).
pub fn binop_result(op: BinOp, left: &PyType, right: &PyType) -> Option<PyType> {
    let l = left.base_name();
    let r = right.base_name();
    let numeric = ["bool", "int", "float", "complex"];
    let rank = |n: &str| numeric.iter().position(|&x| x == n);
    if *left == PyType::Any || *right == PyType::Any {
        return Some(PyType::Any);
    }
    match op {
        BinOp::Add => {
            if let (Some(a), Some(b)) = (rank(l), rank(r)) {
                let top = a.max(b).max(1); // bool + bool = int
                return Some(PyType::named(numeric[top]));
            }
            match (l, r) {
                ("str", "str") => Some(PyType::named("str")),
                ("bytes", "bytes") => Some(PyType::named("bytes")),
                ("List", "List") => Some(PyType::union(vec![left.clone(), right.clone()])),
                ("Tuple", "Tuple") => Some(PyType::named("Tuple")),
                _ => None,
            }
        }
        BinOp::Sub => match (rank(l), rank(r)) {
            (Some(a), Some(b)) => Some(PyType::named(numeric[a.max(b).max(1)])),
            _ => {
                if l == "Set" && r == "Set" {
                    Some(left.clone())
                } else {
                    None
                }
            }
        },
        BinOp::Mul => {
            if let (Some(a), Some(b)) = (rank(l), rank(r)) {
                return Some(PyType::named(numeric[a.max(b).max(1)]));
            }
            match (l, r) {
                ("str", "int") | ("int", "str") => Some(PyType::named("str")),
                ("List", "int") | ("int", "List") => Some(if l == "List" {
                    left.clone()
                } else {
                    right.clone()
                }),
                _ => None,
            }
        }
        BinOp::Div => match (rank(l), rank(r)) {
            (Some(a), Some(b)) => {
                // True division yields float (complex stays complex).
                Some(PyType::named(numeric[a.max(b).max(2)]))
            }
            _ => None,
        },
        BinOp::FloorDiv => match (rank(l), rank(r)) {
            (Some(a), Some(b)) => Some(PyType::named(numeric[a.max(b).max(1)])),
            _ => None,
        },
        BinOp::Mod => match (l, r) {
            ("str", _) => Some(PyType::named("str")),
            _ => match (rank(l), rank(r)) {
                (Some(a), Some(b)) => Some(PyType::named(numeric[a.max(b).max(1)])),
                _ => None,
            },
        },
        BinOp::Pow => match (rank(l), rank(r)) {
            (Some(a), Some(b)) => Some(PyType::named(numeric[a.max(b).max(1)])),
            _ => None,
        },
        BinOp::LShift | BinOp::RShift | BinOp::BitAnd | BinOp::BitXor => match (l, r) {
            ("int", "int") | ("bool", "bool") | ("int", "bool") | ("bool", "int") => {
                Some(PyType::named("int"))
            }
            ("Set", "Set") => Some(left.clone()),
            _ => None,
        },
        BinOp::BitOr => match (l, r) {
            ("int", "int") | ("bool", "bool") | ("int", "bool") | ("bool", "int") => {
                Some(PyType::named("int"))
            }
            ("Set", "Set") => Some(left.clone()),
            ("Dict", "Dict") => Some(left.clone()),
            _ => None,
        },
        BinOp::MatMul => None,
    }
}

/// Whether a binary operation between two *known* types is valid. The
/// checker flags `binop_valid == false` combinations; unknown operands
/// are never flagged.
pub fn binop_valid(op: BinOp, left: &PyType, right: &PyType) -> bool {
    if *left == PyType::Any || *right == PyType::Any {
        return true;
    }
    // Untracked user types may overload anything.
    let tracked = |t: &PyType| {
        matches!(
            t.base_name(),
            "int"
                | "float"
                | "bool"
                | "complex"
                | "str"
                | "bytes"
                | "List"
                | "Tuple"
                | "Set"
                | "Dict"
                | "FrozenSet"
        ) || *t == PyType::None
    };
    if !tracked(left) || !tracked(right) {
        return true;
    }
    binop_result(op, left, right).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TypeEnv;
    use typilus_pyast::parse;

    fn with_inferencer<T>(
        src: &str,
        infer_locals: bool,
        f: impl FnOnce(&Inferencer<'_>, &typilus_pyast::Parsed) -> T,
    ) -> T {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        let mut hierarchy = TypeHierarchy::new();
        let env = TypeEnv::build(&parsed, &table, &mut hierarchy);
        let mut inf = Inferencer::new(&env, &table, &hierarchy);
        if infer_locals {
            inf.infer_locals(&parsed.module.body);
        }
        f(&inf, &parsed)
    }

    /// A comprehension and a walrus four blocks deep, under a def.
    const DEEP_BINDINGS: &str = "\
from typing import List
def f(xs: List[int], n: int):
    for x in xs:
        if x > 0:
            while n:
                ys = [y for y in xs]
                if (m := n + 1):
                    n = 0
    return ys
";

    #[test]
    fn deep_expression_bindings_are_scanned_once() {
        with_inferencer(DEEP_BINDINGS, true, |inf, parsed| {
            let mut locals: Vec<(String, String)> = inf
                .local_inferred
                .iter()
                .map(|(&id, ty)| (inf.table.symbol(id).name.clone(), ty.to_string()))
                .collect();
            locals.sort();
            // `ys` keeps round one's `List[Any]`, read before `y` was typed.
            let want = [
                ("m", "int"),
                ("x", "int"),
                ("y", "int"),
                ("ys", "Union[List[Any], List[int]]"),
            ];
            let want: Vec<(String, String)> = want
                .iter()
                .map(|&(n, t)| (n.to_string(), t.to_string()))
                .collect();
            assert_eq!(locals, want);

            // One round records each binding site once, however deep.
            let mut updates = Vec::new();
            inf.collect_assignments(&parsed.module.body, &mut updates);
            let mut names: Vec<&str> = updates
                .iter()
                .map(|&(id, _)| inf.table.symbol(id).name.as_str())
                .collect();
            names.sort_unstable();
            assert_eq!(names, ["m", "x", "y", "ys"]);
        });
    }

    /// Infers the type of the value of the last assignment statement.
    fn last_value_type(src: &str, infer_locals: bool) -> Option<String> {
        with_inferencer(src, infer_locals, |inf, parsed| {
            let value = parsed
                .module
                .body
                .iter()
                .rev()
                .find_map(|s| match &s.kind {
                    StmtKind::Assign { value, .. } => Some(value),
                    StmtKind::Expr(e) => Some(e),
                    _ => None,
                })?;
            inf.infer(value).map(|t| t.to_string())
        })
    }

    #[test]
    fn literals() {
        assert_eq!(last_value_type("x = 42\n", false).unwrap(), "int");
        assert_eq!(last_value_type("x = 4.2\n", false).unwrap(), "float");
        assert_eq!(last_value_type("x = 2j\n", false).unwrap(), "complex");
        assert_eq!(last_value_type("x = 'hi'\n", false).unwrap(), "str");
        assert_eq!(last_value_type("x = b'hi'\n", false).unwrap(), "bytes");
        assert_eq!(last_value_type("x = True\n", false).unwrap(), "bool");
        assert_eq!(last_value_type("x = None\n", false).unwrap(), "None");
        assert_eq!(last_value_type("x = f'{a}'\n", false).unwrap(), "str");
    }

    #[test]
    fn collections() {
        assert_eq!(last_value_type("x = [1, 2]\n", false).unwrap(), "List[int]");
        assert_eq!(
            last_value_type("x = {'a': 1}\n", false).unwrap(),
            "Dict[str, int]"
        );
        assert_eq!(
            last_value_type("x = (1, 'a')\n", false).unwrap(),
            "Tuple[int, str]"
        );
        assert_eq!(last_value_type("x = {1, 2}\n", false).unwrap(), "Set[int]");
        assert_eq!(
            last_value_type("x = [1, 'a']\n", false).unwrap(),
            "List[Union[int, str]]"
        );
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(last_value_type("x = 1 + 2\n", false).unwrap(), "int");
        assert_eq!(last_value_type("x = 1 + 2.0\n", false).unwrap(), "float");
        assert_eq!(last_value_type("x = 1 / 2\n", false).unwrap(), "float");
        assert_eq!(last_value_type("x = 7 // 2\n", false).unwrap(), "int");
        assert_eq!(last_value_type("x = 'a' + 'b'\n", false).unwrap(), "str");
        assert_eq!(last_value_type("x = 'a' * 3\n", false).unwrap(), "str");
        assert_eq!(last_value_type("x = True + True\n", false).unwrap(), "int");
    }

    #[test]
    fn annotated_names_resolve() {
        let src = "def f(a: int, items: List[str]):\n    x = a + 1\n    y = items[0]\n";
        with_inferencer(src, false, |inf, parsed| {
            let body = match &parsed.module.body[0].kind {
                StmtKind::FunctionDef(f) => &f.body,
                other => panic!("expected function, got {other:?}"),
            };
            let x_val = match &body[0].kind {
                StmtKind::Assign { value, .. } => value,
                other => panic!("expected assign, got {other:?}"),
            };
            assert_eq!(inf.infer(x_val).unwrap().to_string(), "int");
            let y_val = match &body[1].kind {
                StmtKind::Assign { value, .. } => value,
                other => panic!("expected assign, got {other:?}"),
            };
            assert_eq!(inf.infer(y_val).unwrap().to_string(), "str");
        });
    }

    #[test]
    fn method_and_builtin_calls() {
        assert_eq!(
            last_value_type("s: str = 'a'\nx = s.split()\n", false).unwrap(),
            "List[str]"
        );
        assert_eq!(
            last_value_type("xs: List[int] = []\nx = len(xs)\n", false).unwrap(),
            "int"
        );
        assert_eq!(
            last_value_type("d: Dict[str, int] = {}\nx = d.get('a')\n", false).unwrap(),
            "Optional[int]"
        );
    }

    #[test]
    fn user_function_and_class_calls() {
        let src = "\
class Point:
    pass

def make() -> Point:
    return Point()

p = make()
q = Point()
";
        assert_eq!(last_value_type(src, false), Some("Point".to_string()));
    }

    #[test]
    fn local_inference_only_in_pytype_profile() {
        let src = "count = 1\ntotal = count + 1\nx = total\n";
        assert_eq!(
            last_value_type(src, false),
            None,
            "mypy profile knows nothing"
        );
        assert_eq!(last_value_type(src, true).unwrap(), "int");
    }

    #[test]
    fn local_inference_unions_conflicts() {
        let src = "\
if cond:
    v = 1
else:
    v = 'a'
x = v
";
        let ty = last_value_type(src, true).unwrap();
        assert_eq!(ty, "Union[int, str]");
    }

    #[test]
    fn for_target_inference() {
        let src = "items: List[str] = []\nfor s in items:\n    x = s\nlast = x\n";
        assert_eq!(last_value_type(src, true).unwrap(), "str");
    }

    #[test]
    fn binop_validity() {
        let t = |s: &str| s.parse::<PyType>().unwrap();
        assert!(!binop_valid(BinOp::Add, &t("str"), &t("int")));
        assert!(!binop_valid(BinOp::Sub, &t("str"), &t("str")));
        assert!(binop_valid(BinOp::Add, &t("int"), &t("float")));
        assert!(
            binop_valid(BinOp::Add, &t("torch.Tensor"), &t("int")),
            "untracked is permissive"
        );
        assert!(binop_valid(BinOp::Add, &PyType::Any, &t("int")));
    }

    #[test]
    fn comprehension_types() {
        assert_eq!(
            last_value_type("xs: List[int] = []\ny = [x * 2 for x in xs]\n", true).unwrap(),
            "List[int]"
        );
    }

    #[test]
    fn ternary_joins() {
        assert_eq!(
            last_value_type("x = 1 if c else 'a'\n", false).unwrap(),
            "Union[int, str]"
        );
    }
}
