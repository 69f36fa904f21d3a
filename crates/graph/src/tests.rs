//! Whole-graph construction tests, mirroring the paper's Fig. 3 example.

use crate::builder::{build_graph, GraphConfig, NodeKind, ProgramGraph};
use crate::edge::{EdgeLabel, EdgeSet};
use typilus_pyast::{parse, SymbolTable};

fn graph(src: &str) -> ProgramGraph {
    graph_with(src, &GraphConfig::default())
}

fn graph_with(src: &str, config: &GraphConfig) -> ProgramGraph {
    let parsed = parse(src).unwrap();
    let table = SymbolTable::build(&parsed.module);
    build_graph(&parsed, &table, config, "test.py")
}

fn labels_of(g: &ProgramGraph, kind: NodeKind) -> Vec<&str> {
    g.nodes
        .iter()
        .filter(|n| n.kind == kind)
        .map(|n| n.label.as_str())
        .collect()
}

#[test]
fn fig3_example_structure() {
    // The paper's running example: foo = get_foo(i, i + 1)
    let g = graph("foo = get_foo(i, i + 1)\n");
    let tokens = labels_of(&g, NodeKind::Token);
    assert_eq!(
        tokens,
        vec!["foo", "=", "get_foo", "(", "i", ",", "i", "+", "1", ")"]
    );
    // Vocabulary nodes: foo, get, i, 1? (numbers are not identifiers).
    let vocab = labels_of(&g, NodeKind::Vocabulary);
    assert!(vocab.contains(&"foo"));
    assert!(vocab.contains(&"get"));
    assert!(vocab.contains(&"i"));
    // Symbol nodes: foo, get_foo, i.
    let symbols = labels_of(&g, NodeKind::Symbol);
    assert!(symbols.contains(&"foo"));
    assert!(symbols.contains(&"get_foo"));
    assert!(symbols.contains(&"i"));
    // Non-terminals include assign, call, binop_add.
    let nts = labels_of(&g, NodeKind::NonTerminal);
    assert!(nts.contains(&"assign"));
    assert!(nts.contains(&"call"));
    assert!(nts.contains(&"binop_add"));
    // Every edge label except RETURNS_TO appears.
    assert!(g.edges_with(EdgeLabel::NextToken).count() >= 9);
    assert!(g.edges_with(EdgeLabel::Child).count() > 0);
    assert!(g.edges_with(EdgeLabel::OccurrenceOf).count() >= 4);
    assert!(g.edges_with(EdgeLabel::SubtokenOf).count() >= 4);
    assert!(g.edges_with(EdgeLabel::AssignedFrom).count() == 1);
    // Two `i` occurrences: one NEXT_LEXICAL_USE edge.
    assert_eq!(g.edges_with(EdgeLabel::NextLexicalUse).count(), 1);
}

#[test]
fn annotations_are_erased_by_default() {
    let g = graph("def f(x: int) -> str:\n    y: List[int] = []\n    return 'a'\n");
    let tokens = labels_of(&g, NodeKind::Token);
    assert!(
        !tokens.contains(&"int"),
        "annotation tokens must be erased: {tokens:?}"
    );
    assert!(!tokens.contains(&"str"));
    assert!(!tokens.contains(&"List"));
    assert!(!tokens.contains(&"->"));
    // But ground truth is preserved on the targets.
    let x = g.targets.iter().find(|t| t.name == "x").unwrap();
    assert_eq!(x.annotation.as_deref(), Some("int"));
    let y = g.targets.iter().find(|t| t.name == "y").unwrap();
    assert_eq!(y.annotation.as_deref(), Some("List[int]"));
}

#[test]
fn annotations_kept_when_configured() {
    let config = GraphConfig {
        erase_annotations: false,
        ..GraphConfig::default()
    };
    let g = graph_with("def f(x: int) -> str:\n    return 'a'\n", &config);
    let tokens = labels_of(&g, NodeKind::Token);
    assert!(tokens.contains(&"int"));
    assert!(tokens.contains(&"str"));
}

#[test]
fn returns_to_edges() {
    let g = graph("def f(n):\n    if n:\n        return 1\n    return 2\n");
    assert_eq!(g.edges_with(EdgeLabel::ReturnsTo).count(), 2);
}

#[test]
fn yield_also_returns_to() {
    let g = graph("def g(xs):\n    for x in xs:\n        yield x\n");
    assert_eq!(g.edges_with(EdgeLabel::ReturnsTo).count(), 1);
}

#[test]
fn yields_inside_expressions_return_to_their_function() {
    let src = "\
def g(x, T):
    y = yield x
    total = 0
    total += yield
    z: T = yield
    def inner():
        return (yield)
    f = lambda: (yield)
    return y
";
    for erase_annotations in [true, false] {
        let config = GraphConfig {
            erase_annotations,
            ..GraphConfig::default()
        };
        let g = graph_with(src, &config);
        let def_node = |name: &str| {
            let token = g.nodes.iter().position(|n| n.label == name).unwrap() as u32;
            // The def's syntax node is the CHILD parent of its name token.
            g.edges_with(EdgeLabel::Child)
                .find(|e| e.dst == token)
                .map(|e| e.src)
                .unwrap()
        };
        let (outer, inner) = (def_node("g"), def_node("inner"));
        let mut exits: Vec<(&str, u32)> = g
            .edges_with(EdgeLabel::ReturnsTo)
            .map(|e| (g.nodes[e.src as usize].label.as_str(), e.dst))
            .collect();
        exits.sort_unstable();
        // The lambda's yield belongs to the lambda: no edge.
        let mut want = vec![
            ("return_stmt", inner),
            ("return_stmt", outer),
            ("yield_expr", inner),
            ("yield_expr", outer),
            ("yield_expr", outer),
            ("yield_expr", outer),
        ];
        want.sort_unstable();
        assert_eq!(exits, want, "erase={erase_annotations}");
    }
}

#[test]
fn return_symbol_is_target_with_occurrence() {
    let g = graph("def f() -> int:\n    return 1\n");
    let ret = g
        .targets
        .iter()
        .find(|t| t.kind == typilus_pyast::SymbolKind::Return)
        .expect("return target");
    assert_eq!(ret.annotation.as_deref(), Some("int"));
    // The function-def node connects to the return symbol node.
    let occ: Vec<_> = g
        .edges_with(EdgeLabel::OccurrenceOf)
        .filter(|e| e.dst == ret.node)
        .collect();
    assert!(!occ.is_empty(), "function node links to return symbol");
}

#[test]
fn edge_filter_removes_labels() {
    let src = "a = 1\nb = a + 1\n";
    let full = graph(src);
    let config = GraphConfig {
        edges: EdgeSet::without_syntactic(),
        ..GraphConfig::default()
    };
    let filtered = graph_with(src, &config);
    assert!(full.edges_with(EdgeLabel::NextToken).count() > 0);
    assert_eq!(filtered.edges_with(EdgeLabel::NextToken).count(), 0);
    assert_eq!(filtered.edges_with(EdgeLabel::Child).count(), 0);
    assert!(filtered.edges_with(EdgeLabel::OccurrenceOf).count() > 0);
}

#[test]
fn only_names_keeps_symbol_structure() {
    let config = GraphConfig {
        edges: EdgeSet::only_names(),
        ..GraphConfig::default()
    };
    let g = graph_with("value_count = other_count + 1\n", &config);
    assert!(g.edges_with(EdgeLabel::SubtokenOf).count() >= 3);
    assert!(g.edges_with(EdgeLabel::OccurrenceOf).count() >= 2);
    assert_eq!(g.edges_with(EdgeLabel::NextToken).count(), 0);
    assert_eq!(g.edges_with(EdgeLabel::AssignedFrom).count(), 0);
}

#[test]
fn subtokens_shared_between_identifiers() {
    let g = graph("num_nodes = 3\nget_nodes(num_nodes)\n");
    // `nodes` vocabulary node is shared: at least 3 SUBTOKEN_OF edges
    // point at it (num_nodes x2, get_nodes x1).
    let nodes_vocab = g
        .nodes
        .iter()
        .position(|n| n.kind == NodeKind::Vocabulary && n.label == "nodes")
        .expect("vocab node") as u32;
    let count = g
        .edges_with(EdgeLabel::SubtokenOf)
        .filter(|e| e.dst == nodes_vocab)
        .count();
    assert_eq!(count, 3);
}

#[test]
fn member_symbols_connect_across_methods() {
    let src = "\
class C:
    def __init__(self):
        self.weight = 0
    def get(self):
        return self.weight
";
    let g = graph(src);
    let member = g
        .nodes
        .iter()
        .position(|n| n.kind == NodeKind::Symbol && n.label == "self.weight")
        .expect("member symbol") as u32;
    let occ = g
        .edges_with(EdgeLabel::OccurrenceOf)
        .filter(|e| e.dst == member)
        .count();
    assert_eq!(occ, 2);
}

#[test]
fn all_edges_reference_valid_nodes() {
    let src = "\
import os
class A(Base):
    def run(self, steps: int) -> bool:
        total = 0
        for i in range(steps):
            total += i
            if total > 10:
                break
        return total > steps
";
    let g = graph(src);
    let n = g.node_count() as u32;
    for e in &g.edges {
        assert!(e.src < n, "edge source {e:?} out of range");
        assert!(e.dst < n, "edge target {e:?} out of range");
    }
    for t in &g.targets {
        assert!(t.node < n);
        assert_eq!(g.nodes[t.node as usize].kind, NodeKind::Symbol);
    }
}

#[test]
fn assigned_from_in_walrus_and_augassign() {
    let g = graph("x = 0\nx += compute()\nif (y := x) > 1:\n    pass\n");
    assert!(g.edges_with(EdgeLabel::AssignedFrom).count() >= 3);
}

#[test]
fn empty_file_yields_empty_graph() {
    let g = graph("\n");
    assert!(g.targets.is_empty());
    // Only the module node exists.
    assert_eq!(labels_of(&g, NodeKind::Token).len(), 0);
}

#[test]
fn graph_is_deterministic() {
    let src = "def f(a, b):\n    return a + b\n";
    let g1 = graph(src);
    let g2 = graph(src);
    assert_eq!(g1.nodes, g2.nodes);
    assert_eq!(g1.edges, g2.edges);
    assert_eq!(g1.targets, g2.targets);
}

#[test]
fn next_may_use_edges_appear_in_graph() {
    let g = graph("x = 1\nif c:\n    a = x\nelse:\n    b = x\n");
    // The definition of x may be followed by either branch's use, so at
    // least two NEXT_MAY_USE edges leave its first token.
    let count = g.edges_with(EdgeLabel::NextMayUse).count();
    assert!(count >= 2, "expected branching may-use edges, got {count}");
}

#[test]
fn try_except_bodies_are_graphed() {
    let src = "\
try:
    risky()
except ValueError as err:
    print(err)
finally:
    cleanup()
";
    let g = graph(src);
    let nts = labels_of(&g, NodeKind::NonTerminal);
    assert!(nts.contains(&"try_stmt"));
    // `err` is bound in the handler and used once more.
    assert_eq!(g.edges_with(EdgeLabel::NextLexicalUse).count(), 1);
}

#[test]
fn lambda_and_comprehension_nodes() {
    let g = graph("f = lambda v: v + 1\nys = [g(x) for x in xs if x]\n");
    let nts = labels_of(&g, NodeKind::NonTerminal);
    assert!(nts.contains(&"lambda_expr"));
    assert!(nts.contains(&"list_comp"));
}

#[test]
fn operators_receive_distinct_labels() {
    let g = graph("a = b ** c\nd = e @ f\n");
    let nts = labels_of(&g, NodeKind::NonTerminal);
    assert!(nts.contains(&"binop_pow"));
    assert!(nts.contains(&"binop_matmul"));
}

#[test]
fn string_and_number_tokens_have_no_subtoken_edges() {
    let g = graph("s = 'hello world'\nn = 42\n");
    for e in g.edges_with(EdgeLabel::SubtokenOf) {
        let label = &g.nodes[e.src as usize].label;
        assert!(
            !label.starts_with('\'') && !label.chars().all(|c| c.is_ascii_digit()),
            "literal {label:?} should not have subtokens"
        );
    }
}

#[test]
fn decorated_methods_graph_cleanly() {
    let src = "\
class Api:
    @staticmethod
    def ping(host: str) -> bool:
        return True

    @property
    def name(self) -> str:
        return self._name
";
    let g = graph(src);
    assert!(g.targets.iter().any(|t| t.name == "host"));
    assert_eq!(g.edges_with(EdgeLabel::ReturnsTo).count(), 2);
}

/// One fixture with every `StmtKind` and `ExprKind` of the AST: the
/// golden test below pins the whole graph built from it.
const EVERY_KIND: &str = "\
import os.path as osp, sys
from typing import List, Optional
from . import sibling

@register(1)
class Box(Base, metaclass=Meta):
    size: int = 0
    def __init__(self, items: List[int], *args, scale: float = 1.0, **kw) -> None:
        self.items = items
        self.scale = scale

async def fetch(url: str) -> Optional[str]:
    data = await get(url)
    async for chunk in stream(url):
        pass
    return data

def gen(n: int = 3):
    total: int = yield
    total += yield n
    yield from range(n)
    counter = 0
    def inner():
        nonlocal counter
        counter += 1
    global CONFIG
    for i, x in enumerate([1, 2.5, -3]):
        if i > 0 and not x or i is None:
            continue
        elif x in {1, 2}:
            break
        else:
            pass
    else:
        counter = None
    while counter < 10:
        counter = counter + 1 if counter else ~counter
    with open(f\"{n}.txt\") as fh, lock:
        lines = fh.read()[1:-1:2]
    try:
        value = {\"a\": 1, **extra}
    except (KeyError, ValueError) as err:
        raise RuntimeError(\"bad\") from err
    except Exception:
        raise
    else:
        assert value, \"empty\"
    finally:
        del value
    squares = [k * k for k in range(n) if k % 2]
    evens = {k for k in range(n)}
    table = {k: v for k, v in zip(a, b) if k if v}
    lazy = (k for k in range(n))
    f = lambda a, b=2: a ** b
    if (m := len(lines)) > 3:
        print(*lines, sep='', end=...)
    flag = True or False
    return m
";

/// FNV-1a over the `(label, src, dst)` sequence of a graph's edges.
fn edge_digest(g: &ProgramGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in &g.edges {
        let mut bytes = [0u8; 9];
        bytes[0] = e.label.as_index() as u8;
        bytes[1..5].copy_from_slice(&e.src.to_le_bytes());
        bytes[5..].copy_from_slice(&e.dst.to_le_bytes());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn label_counts(g: &ProgramGraph) -> [usize; EdgeLabel::COUNT] {
    let mut counts = [0; EdgeLabel::COUNT];
    for e in &g.edges {
        counts[e.label.as_index()] += 1;
    }
    counts
}

#[test]
fn every_kind_fixture_covers_the_ast() {
    let config = GraphConfig {
        erase_annotations: false,
        ..GraphConfig::default()
    };
    let g = graph_with(EVERY_KIND, &config);
    let nts = labels_of(&g, NodeKind::NonTerminal);
    let every_label = "\
        function_def async_function_def class_def return_stmt assign \
        aug_assign_add ann_assign for_stmt while_stmt if_stmt with_stmt \
        raise_stmt try_stmt assert_stmt import_stmt import_from global_stmt \
        nonlocal_stmt expr_stmt pass_stmt break_stmt continue_stmt \
        delete_stmt name number string bool_literal none_literal \
        ellipsis_literal tuple_expr list_expr set_expr dict_expr binop_mul \
        unary_neg bool_and compare call attribute subscript slice_expr \
        lambda_expr if_expr starred list_comp set_comp dict_comp \
        generator_expr yield_expr yield_from await_expr walrus";
    for label in every_label.split_whitespace() {
        assert!(nts.contains(&label), "fixture lacks {label}");
    }
}

#[test]
fn every_kind_graph_is_pinned() {
    // CHILD order fixes every node id, so any change to the child
    // enumeration order, or to what annotation erasure drops, shows up
    // here.
    for (erase, nodes, counts, digest) in [
        (
            true,
            722,
            [369, 613, 43, 48, 19, 5, 112, 120],
            0x7634_dd03_e3b1_d8cf,
        ),
        (
            false,
            753,
            [385, 641, 43, 52, 19, 5, 121, 129],
            0x2bc1_99f8_b75a_ffa1,
        ),
    ] {
        let config = GraphConfig {
            erase_annotations: erase,
            ..GraphConfig::default()
        };
        let g = graph_with(EVERY_KIND, &config);
        assert_eq!(g.node_count(), nodes, "erase={erase}");
        assert_eq!(label_counts(&g), counts, "erase={erase}");
        assert_eq!(edge_digest(&g), digest, "erase={erase}");
    }
}
