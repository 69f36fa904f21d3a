//! Non-terminal labels of AST nodes.
//!
//! [`stmt_label`] / [`expr_label`] name the non-terminal that seeds a
//! syntax node's initial embedding. Which children a node has, and in
//! what order, is not decided here: the builder follows the one child
//! enumeration of `typilus_pyast` ([`Stmt::for_each_child`]).

use typilus_pyast::ast::{Expr, ExprKind, Stmt, StmtKind};

/// The non-terminal label of a statement, used as node text in the graph.
pub fn stmt_label(stmt: &Stmt) -> String {
    match &stmt.kind {
        StmtKind::FunctionDef(f) if f.is_async => "async_function_def".into(),
        StmtKind::FunctionDef(_) => "function_def".into(),
        StmtKind::ClassDef(_) => "class_def".into(),
        StmtKind::Return(_) => "return_stmt".into(),
        StmtKind::Assign { .. } => "assign".into(),
        StmtKind::AugAssign { op, .. } => format!("aug_assign_{}", op_word(op)),
        StmtKind::AnnAssign { .. } => "ann_assign".into(),
        StmtKind::For { .. } => "for_stmt".into(),
        StmtKind::While { .. } => "while_stmt".into(),
        StmtKind::If { .. } => "if_stmt".into(),
        StmtKind::With { .. } => "with_stmt".into(),
        StmtKind::Raise { .. } => "raise_stmt".into(),
        StmtKind::Try { .. } => "try_stmt".into(),
        StmtKind::Assert { .. } => "assert_stmt".into(),
        StmtKind::Import(_) => "import_stmt".into(),
        StmtKind::ImportFrom { .. } => "import_from".into(),
        StmtKind::Global(_) => "global_stmt".into(),
        StmtKind::Nonlocal(_) => "nonlocal_stmt".into(),
        StmtKind::Expr(_) => "expr_stmt".into(),
        StmtKind::Pass => "pass_stmt".into(),
        StmtKind::Break => "break_stmt".into(),
        StmtKind::Continue => "continue_stmt".into(),
        StmtKind::Delete(_) => "delete_stmt".into(),
    }
}

fn op_word(op: &str) -> &'static str {
    match op {
        "+" => "add",
        "-" => "sub",
        "*" => "mul",
        "/" => "div",
        "//" => "floordiv",
        "%" => "mod",
        "**" => "pow",
        "<<" => "lshift",
        ">>" => "rshift",
        "|" => "bitor",
        "&" => "bitand",
        "^" => "bitxor",
        "@" => "matmul",
        _ => "op",
    }
}

/// The non-terminal label of an expression.
pub fn expr_label(expr: &Expr) -> String {
    use typilus_pyast::ast::{BinOp, BoolOp, UnaryOp};
    match &expr.kind {
        ExprKind::Name(_) => "name".into(),
        ExprKind::Num(_) => "number".into(),
        ExprKind::Str(_) | ExprKind::FString(_) => "string".into(),
        ExprKind::Bool(_) => "bool_literal".into(),
        ExprKind::NoneLit => "none_literal".into(),
        ExprKind::EllipsisLit => "ellipsis_literal".into(),
        ExprKind::Tuple(_) => "tuple_expr".into(),
        ExprKind::List(_) => "list_expr".into(),
        ExprKind::Set(_) => "set_expr".into(),
        ExprKind::Dict { .. } => "dict_expr".into(),
        ExprKind::BinOp { op, .. } => format!(
            "binop_{}",
            match op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::Mul => "mul",
                BinOp::Div => "div",
                BinOp::FloorDiv => "floordiv",
                BinOp::Mod => "mod",
                BinOp::Pow => "pow",
                BinOp::LShift => "lshift",
                BinOp::RShift => "rshift",
                BinOp::BitOr => "bitor",
                BinOp::BitAnd => "bitand",
                BinOp::BitXor => "bitxor",
                BinOp::MatMul => "matmul",
            }
        ),
        ExprKind::UnaryOp { op, .. } => format!(
            "unary_{}",
            match op {
                UnaryOp::Neg => "neg",
                UnaryOp::Pos => "pos",
                UnaryOp::Invert => "invert",
                UnaryOp::Not => "not",
            }
        ),
        ExprKind::BoolOp { op, .. } => match op {
            BoolOp::And => "bool_and".into(),
            BoolOp::Or => "bool_or".into(),
        },
        ExprKind::Compare { .. } => "compare".into(),
        ExprKind::Call { .. } => "call".into(),
        ExprKind::Attribute { .. } => "attribute".into(),
        ExprKind::Subscript { .. } => "subscript".into(),
        ExprKind::Slice { .. } => "slice_expr".into(),
        ExprKind::Lambda { .. } => "lambda_expr".into(),
        ExprKind::IfExp { .. } => "if_expr".into(),
        ExprKind::Starred(_) => "starred".into(),
        ExprKind::Comprehension { kind, .. } => match kind {
            typilus_pyast::ast::CompKind::List => "list_comp".into(),
            typilus_pyast::ast::CompKind::Set => "set_comp".into(),
            typilus_pyast::ast::CompKind::Dict => "dict_comp".into(),
            typilus_pyast::ast::CompKind::Generator => "generator_expr".into(),
        },
        ExprKind::Yield(_) => "yield_expr".into(),
        ExprKind::YieldFrom(_) => "yield_from".into(),
        ExprKind::Await(_) => "await_expr".into(),
        ExprKind::Walrus { .. } => "walrus".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus_pyast::parse;

    #[test]
    fn labels_distinguish_operators() {
        let parsed = parse("x = a + b\ny = a * b\n").unwrap();
        let exprs: Vec<String> = parsed
            .module
            .body
            .iter()
            .map(|s| match &s.kind {
                typilus_pyast::StmtKind::Assign { value, .. } => expr_label(value),
                other => panic!("expected assign, got {other:?}"),
            })
            .collect();
        assert_eq!(exprs, vec!["binop_add", "binop_mul"]);
    }
}
