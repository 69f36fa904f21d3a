//! Generic AST traversal.
//!
//! Implement [`Visitor`] and override the hooks you care about; the `walk_*`
//! free functions perform the recursive descent. Hooks are called *before*
//! children are walked (pre-order), and children are walked in the source
//! order of [`Stmt::for_each_child`] / [`Expr::for_each_child`], the one
//! child enumeration of the AST. Annotation children are walked like any
//! other expression.

use crate::ast::*;

/// A read-only AST visitor with pre-order hooks.
pub trait Visitor {
    /// Called for every statement before its children.
    fn visit_stmt(&mut self, _stmt: &Stmt) {}
    /// Called for every expression before its children.
    fn visit_expr(&mut self, _expr: &Expr) {}

    /// Controls whether the walker descends into nested function/class
    /// bodies. Defaults to `true`. When `false`, a def's decorators,
    /// parameters and return annotation and a class's decorators, bases
    /// and keywords are still walked: they are evaluated in the enclosing
    /// scope.
    fn enter_scopes(&self) -> bool {
        true
    }
}

/// Walks a whole module.
pub fn walk_module<V: Visitor>(v: &mut V, module: &Module) {
    for stmt in &module.body {
        walk_stmt(v, stmt);
    }
}

/// Walks one statement and its children.
pub fn walk_stmt<V: Visitor>(v: &mut V, stmt: &Stmt) {
    v.visit_stmt(stmt);
    let enter =
        v.enter_scopes() || !matches!(stmt.kind, StmtKind::FunctionDef(_) | StmtKind::ClassDef(_));
    stmt.for_each_child(|child| match child {
        ChildRef::Stmt(s) => {
            if enter {
                walk_stmt(v, s);
            }
        }
        ChildRef::Expr(e) | ChildRef::Annotation(e) => walk_expr(v, e),
    });
}

/// Walks one expression and its children.
pub fn walk_expr<V: Visitor>(v: &mut V, expr: &Expr) {
    v.visit_expr(expr);
    expr.for_each_child(|e| walk_expr(v, e));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    struct Counter {
        stmts: usize,
        exprs: usize,
        names: Vec<String>,
    }

    impl Visitor for Counter {
        fn visit_stmt(&mut self, _s: &Stmt) {
            self.stmts += 1;
        }
        fn visit_expr(&mut self, e: &Expr) {
            self.exprs += 1;
            if let ExprKind::Name(n) = &e.kind {
                self.names.push(n.clone());
            }
        }
    }

    #[test]
    fn visits_all_names() {
        let parsed = parse("def f(a, b):\n    c = a + b\n    return c\n").unwrap();
        let mut v = Counter {
            stmts: 0,
            exprs: 0,
            names: Vec::new(),
        };
        walk_module(&mut v, &parsed.module);
        assert_eq!(v.stmts, 3); // def, assign, return
        assert_eq!(v.names, vec!["c", "a", "b", "c"]);
    }

    #[test]
    fn scope_skipping() {
        struct TopOnly {
            stmts: usize,
            names: Vec<String>,
        }
        impl Visitor for TopOnly {
            fn visit_stmt(&mut self, _s: &Stmt) {
                self.stmts += 1;
            }
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Name(n) = &e.kind {
                    self.names.push(n.clone());
                }
            }
            fn enter_scopes(&self) -> bool {
                false
            }
        }
        let src = "\
@d(a)
def f(p: T = dflt) -> R:
    x = inner
class C(B, metaclass=M):
    y = member
z = 3
";
        let parsed = parse(src).unwrap();
        let mut v = TopOnly {
            stmts: 0,
            names: Vec::new(),
        };
        walk_module(&mut v, &parsed.module);
        assert_eq!(v.stmts, 3); // def, class, z assignment; bodies skipped
                                // Headers are walked: they are evaluated in the enclosing scope.
        assert_eq!(v.names, ["d", "a", "T", "dflt", "R", "B", "M", "z"]);
    }

    #[test]
    fn visits_in_source_order() {
        let parsed =
            parse("d = {k1: v1, k2: v2}\ne = a if t else b\nl = [el for x in xs]\n").unwrap();
        let mut v = Counter {
            stmts: 0,
            exprs: 0,
            names: Vec::new(),
        };
        walk_module(&mut v, &parsed.module);
        assert_eq!(
            v.names,
            ["d", "k1", "v1", "k2", "v2", "e", "a", "t", "b", "l", "el", "x", "xs"]
        );
    }

    #[test]
    fn visits_comprehension_parts() {
        let parsed = parse("r = [f(x) for x in xs if x]\n").unwrap();
        let mut v = Counter {
            stmts: 0,
            exprs: 0,
            names: Vec::new(),
        };
        walk_module(&mut v, &parsed.module);
        assert!(v.names.contains(&"xs".to_string()));
        assert!(v.names.contains(&"f".to_string()));
    }
}
