//! The typing environment: annotations from the source, function
//! signatures, class registrations, and the prediction-substitution hook
//! used by the paper's Sec. 6.3 experiment.
//!
//! Signatures reference parameter/return *symbols* rather than copied
//! types, so overriding one symbol's annotation (substituting a
//! prediction) is automatically visible at every call site.

use std::collections::HashMap;
use typilus_pyast::ast::{Expr, Stmt, StmtKind};
use typilus_pyast::symtable::{SymbolId, SymbolKind, SymbolTable};
use typilus_pyast::Parsed;
use typilus_types::{PyType, TypeHierarchy};

/// A function signature assembled from annotations.
#[derive(Debug, Clone, Default)]
pub struct Signature {
    /// Parameter name, its symbol (if resolvable), has-default flag.
    pub params: Vec<(String, Option<SymbolId>, bool)>,
    /// The function's return symbol, if resolvable.
    pub ret: Option<SymbolId>,
    /// Whether the function takes `*args` / `**kwargs` (arity checks are
    /// skipped when set).
    pub variadic: bool,
    /// Whether the first parameter is a `self`/`cls` receiver.
    pub is_method: bool,
}

/// The typing environment of one module.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    /// Declared (or overridden) type per symbol.
    pub annotations: HashMap<SymbolId, PyType>,
    /// Signatures of functions defined in the module, by function symbol.
    pub functions: HashMap<SymbolId, Signature>,
    /// Return symbol per function-def node (for `return` checks).
    pub return_symbols: HashMap<typilus_pyast::NodeId, SymbolId>,
    /// Classes defined in the module.
    pub classes: Vec<String>,
    /// `(class name, method name) -> function symbol` for method-call
    /// resolution on instances of module classes.
    pub methods: HashMap<(String, String), SymbolId>,
}

impl TypeEnv {
    /// Builds the environment from a parsed module and its symbol table,
    /// registering module classes into `hierarchy`.
    pub fn build(parsed: &Parsed, table: &SymbolTable, hierarchy: &mut TypeHierarchy) -> TypeEnv {
        let mut env = TypeEnv::default();
        for sym in table.symbols() {
            if let Some(text) = &sym.annotation {
                if let Ok(ty) = text.parse::<PyType>() {
                    env.annotations.insert(sym.id, ty);
                }
            }
        }
        collect(&parsed.module.body, table, hierarchy, &mut env);
        env
    }

    /// Replaces (or adds) the annotation of one symbol — substituting a
    /// type prediction. Call sites and return checks see the new type
    /// immediately because signatures resolve symbols lazily.
    pub fn override_symbol(&mut self, symbol: SymbolId, ty: PyType) {
        self.annotations.insert(symbol, ty);
    }

    /// The declared type of a symbol, if any.
    pub fn type_of(&self, symbol: SymbolId) -> Option<&PyType> {
        self.annotations.get(&symbol)
    }
}

fn collect(body: &[Stmt], table: &SymbolTable, hierarchy: &mut TypeHierarchy, env: &mut TypeEnv) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::FunctionDef(f) => {
                let sig = signature_of(f, table, stmt);
                if let Some(ret) = sig.ret {
                    env.return_symbols.insert(stmt.meta.id, ret);
                }
                if let Some(sym) = table.symbol_at(f.name_span) {
                    if sym.kind == SymbolKind::Function {
                        env.functions.insert(sym.id, sig);
                    }
                }
            }
            StmtKind::ClassDef(c) => {
                let bases: Vec<String> = c.bases.iter().filter_map(Expr::annotation_text).collect();
                let base_refs: Vec<&str> = bases.iter().map(String::as_str).collect();
                hierarchy.register_class(&c.name, &base_refs);
                env.classes.push(c.name.clone());
                for member in &c.body {
                    if let StmtKind::FunctionDef(m) = &member.kind {
                        if let Some(sym) = table.symbol_at(m.name_span) {
                            env.methods.insert((c.name.clone(), m.name.clone()), sym.id);
                        }
                    }
                }
            }
            _ => {}
        }
        for block in stmt.blocks() {
            collect(block, table, hierarchy, env);
        }
    }
}

fn signature_of(
    f: &typilus_pyast::ast::FunctionDef,
    table: &SymbolTable,
    stmt: &Stmt,
) -> Signature {
    use typilus_pyast::ast::ParamKind;
    let mut sig = Signature::default();
    for p in &f.params {
        match p.kind {
            ParamKind::VarArgs | ParamKind::KwArgs => {
                sig.variadic = true;
                continue;
            }
            _ => {}
        }
        let sym = table.symbol_at(p.name_span).map(|s| s.id);
        sig.params.push((p.name.clone(), sym, p.default.is_some()));
    }
    sig.is_method = f
        .params
        .first()
        .map(|p| p.name == "self" || p.name == "cls")
        .unwrap_or(false);
    sig.ret = table.return_symbol(stmt.meta.id).map(|s| s.id);
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus_pyast::parse;

    fn env_of(src: &str) -> (TypeEnv, TypeHierarchy, SymbolTable) {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        let mut h = TypeHierarchy::new();
        let env = TypeEnv::build(&parsed, &table, &mut h);
        (env, h, table)
    }

    #[test]
    fn annotations_collected() {
        let (env, _, table) = env_of("def f(a: int, b: str) -> bool:\n    return a > 0\n");
        let func_sym = table
            .symbols()
            .iter()
            .find(|s| s.kind == SymbolKind::Function)
            .unwrap();
        let sig = &env.functions[&func_sym.id];
        assert_eq!(sig.params.len(), 2);
        let a_ty = env.type_of(sig.params[0].1.unwrap()).unwrap();
        assert_eq!(a_ty.to_string(), "int");
        let ret_ty = env.type_of(sig.ret.unwrap()).unwrap();
        assert_eq!(ret_ty.to_string(), "bool");
    }

    #[test]
    fn none_return_annotation_is_recorded() {
        let (env, _, table) = env_of("def f() -> None:\n    pass\n");
        let ret = table
            .symbols()
            .iter()
            .find(|s| s.kind == SymbolKind::Return)
            .unwrap();
        assert_eq!(env.type_of(ret.id), Some(&PyType::None));
    }

    #[test]
    fn classes_registered_into_hierarchy() {
        let (_, h, _) = env_of("class Animal:\n    pass\nclass Dog(Animal):\n    pass\n");
        assert!(h.is_nominal_subtype("Dog", "Animal"));
    }

    #[test]
    fn override_flows_through_signature() {
        let (mut env, _, table) = env_of("def f(a: int) -> int:\n    return a\n");
        let a = table.symbols().iter().find(|s| s.name == "a").unwrap();
        env.override_symbol(a.id, "str".parse().unwrap());
        let func_sym = table
            .symbols()
            .iter()
            .find(|s| s.kind == SymbolKind::Function)
            .unwrap();
        let sig = &env.functions[&func_sym.id];
        let a_ty = env.type_of(sig.params[0].1.unwrap()).unwrap();
        assert_eq!(a_ty.to_string(), "str");
    }

    #[test]
    fn variadic_and_method_flags() {
        let (env, _, table) = env_of("class C:\n    def m(self, *args):\n        pass\n");
        let m = table
            .symbols()
            .iter()
            .find(|s| s.name == "m" && s.kind == SymbolKind::Function)
            .unwrap();
        let sig = &env.functions[&m.id];
        assert!(sig.variadic);
        assert!(sig.is_method);
    }
}
