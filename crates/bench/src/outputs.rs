//! The eleven outputs of the paper's evaluation (Sec. 6–7), in the
//! order `--bin repro` renders them. Each one's text is what its table
//! or figure prints.

use std::collections::BTreeMap;

use typilus::{
    by_annotation_count, by_kind, check_pr_curve, check_predictions, default_thresholds,
    evaluate_files, pr_curve, table2_row, Aggregation, Category, CheckerProfile, Criterion,
    EdgeLabel, EdgeSet, EncoderKind, KnnConfig, LossKind, MatchRates, NodeInit, PyType,
};
use typilus_corpus::{corpus_stats, duplicate_count, Corpus, DEFAULT_THRESHOLD};

use crate::repro::{Eval, Output, Part, Training};
use crate::{all_variants, variant_name, Scale};

/// `println!` into a `String` or a `Part`.
macro_rules! outln {
    ($t:expr) => {
        $t.push_str("\n")
    };
    ($t:expr, $($arg:tt)*) => {{
        $t.push_str(&format!($($arg)*));
        $t.push_str("\n");
    }};
}

/// Every output, in rendering order.
pub fn all() -> Vec<Output> {
    let typilus = || vec![variant(EncoderKind::Graph, LossKind::Typilus)];
    let graph = |loss| variant(EncoderKind::Graph, loss);
    let seq_vs_transformer = [EncoderKind::Seq, EncoderKind::Transformer]
        .map(|encoder| variant(encoder, LossKind::Typilus))
        .to_vec();
    vec![
        Output {
            head: table2_head,
            foot: "\nExpected shape (paper): Graph > Seq > Path; *2Class collapses on rare\n\
                   types; *Typilus (combined loss, Eq. 4) best overall.\n",
            ..Output::new(
                "table2",
                all_variants().into_iter().map(|(e, l)| variant(e, l)),
                table2,
            )
        },
        Output::new("table3", typilus(), table3),
        Output {
            head: |t, _, _| {
                t.push_str("Table 4: ablations of Typilus (graph encoder, Eq. 4 loss)\n");
                t.push_str("Ablation                        Exact Match  Type Neutral\n");
            },
            foot: "\nExpected shape (paper): only-names drops hard but stays well above\n\
                   zero; removing CHILD hurts more than removing NEXT_TOKEN; removing\n\
                   NEXT_*USE is a near no-op; subtokens edge out tokens and characters.\n",
            ..Output::new("table4", ablations(), table4)
        },
        Output::new("table5", typilus(), table5),
        Output {
            foot: "\nExpected shape (paper Fig. 4): precision rises as recall drops;\n\
                   Typilus holds the highest neutral precision at moderate recall.\n",
            ..Output::new(
                "fig4",
                [LossKind::Class, LossKind::Space, LossKind::Typilus].map(graph),
                fig4,
            )
        },
        Output::new("fig5", typilus(), fig5),
        Output::new("fig6", typilus(), fig6),
        Output::new("fig7", typilus(), fig7),
        Output {
            head: corpus_stats_head,
            foot: "\nExpected shape (paper): top-10 types hold about half the mass;\n\
                   a long tail of user-defined and generic types carries ~1/3.\n",
            ..Output::new("corpus_stats", Vec::new(), |_, _| {})
        },
        Output {
            head: |t, _, _| {
                t.push_str("Sec. 6.1 'Transformers': small transformer vs the biGRU baseline\n");
                t.push_str("Model                     Ex.All   Ex.Comm   Ex.Rare   Neutral\n");
            },
            foot: "\nExpected shape (paper): the transformer does not improve on the\n\
                   biGRU at this data scale.\n",
            ..Output::new("transformers_note", seq_vs_transformer, transformers_note)
        },
        Output::new("qualitative", typilus(), qualitative),
    ]
}

/// Table 4's rows: edge ablations (each re-extracts graphs), node-init
/// ablations and the aggregation ablation of the full Typilus model.
fn ablations() -> Vec<(&'static str, Training)> {
    let full = Training::new(EncoderKind::Graph, LossKind::Typilus);
    let edges = |edges| Training { edges, ..full };
    let init = |node_init| Training { node_init, ..full };
    let without = |label| edges(EdgeSet::all().without(label));
    let sum = Training {
        aggregation: Aggregation::Sum,
        ..full
    };
    vec![
        ("Only Names (No GNN edges)", edges(EdgeSet::only_names())),
        ("No Syntactic Edges", edges(EdgeSet::without_syntactic())),
        ("No NEXT_TOKEN", without(EdgeLabel::NextToken)),
        ("No CHILD", without(EdgeLabel::Child)),
        ("No NEXT_*USE", edges(EdgeSet::without_use_edges())),
        ("Full Model - Tokens", init(NodeInit::Token)),
        ("Full Model - Character", init(NodeInit::Char)),
        ("Full Model - Subtokens", full),
        ("Full Model - Sum Aggregation", sum),
    ]
}

/// The full model with this encoder and loss, labelled as in Table 2.
fn variant(encoder: EncoderKind, loss: LossKind) -> (&'static str, Training) {
    (variant_name(encoder, loss), Training::new(encoder, loss))
}

fn table2_head(t: &mut String, scale: &Scale, _: &Corpus) {
    let common = scale.common_threshold;
    outln!(
        t,
        "Table 2: quantitative evaluation (common = type seen >= {common} times in training)"
    );
    t.push_str(
        "Model             Ex.All   Ex.Comm   Ex.Rare    Par.All  Par.Comm  Par.Rare   Neutral\n",
    );
}

/// Paper **Table 2**: one of the nine encoder × loss variants with exact
/// match / match-up-to-parametric (all, common, rare) and type neutrality.
fn table2(t: &mut Part, e: &Eval) {
    let common = e.system.config.common_threshold;
    let row = table2_row(&e.examples, &e.system.hierarchy, common);
    outln!(
        t,
        "{:<14} {:>8.1}% {:>8.1}% {:>8.1}%  {:>8.1}% {:>8.1}% {:>8.1}%  {:>7.1}%",
        e.label,
        row.exact_all,
        row.exact_common,
        row.exact_rare,
        row.para_all,
        row.para_common,
        row.para_rare,
        row.neutral
    );
}

/// Paper **Table 3**: Typilus' performance by symbol kind (variables,
/// parameters, function returns).
fn table3(t: &mut Part, e: &Eval) {
    t.push_str("Table 3: Typilus performance by kind of symbol\n");
    t.push_str("                                    Var   FuncPara        Ret\n");
    let b = by_kind(&e.examples, &e.system.hierarchy);
    let (v, p, r) = (&b.variables, &b.parameters, &b.returns);
    let total = (v.count + p.count + r.count).max(1) as f64;
    let share = |count: usize| 100.0 * count as f64 / total;
    let (vu, pu, ru) = (v.up_to_parametric, p.up_to_parametric, r.up_to_parametric);
    let (vs, ps, rs) = (share(v.count), share(p.count), share(r.count));
    let rows = [
        ("% Exact Match", v.exact, p.exact, r.exact),
        ("% Match up to Parametric", vu, pu, ru),
        ("% Type Neutral", v.neutral, p.neutral, r.neutral),
        ("Proportion of testset", vs, ps, rs),
    ];
    for (label, var, para, ret) in rows {
        outln!(t, "{label:<28} {var:>9.1}% {para:>9.1}% {ret:>9.1}%");
    }
}

/// Paper **Table 4**: one ablation of the graph construction (edge-label
/// removals), of the initial node representation (token / character /
/// subtoken) or of the aggregation (max vs sum, DESIGN.md). Each edge
/// ablation re-extracts graphs, and each row retrains, as the paper does.
fn table4(t: &mut Part, e: &Eval) {
    let rates = MatchRates::compute(&e.examples, &e.system.hierarchy, |_| true);
    let (label, exact, neutral) = (e.label, rates.exact, rates.neutral);
    outln!(t, "{label:<30} {exact:>11.1}% {neutral:>12.1}%");
}

/// Paper **Table 5**: type-checking accuracy of Typilus' predictions
/// modulo the two optional type checkers, broken into the `ϵ→τ` /
/// `τ→τ'` / `τ→τ` substitution categories.
fn table5(t: &mut Part, e: &Eval) {
    t.push_str("Table 5: type checking accuracy modulo checker\n");
    t.push_str("Annotation              mypy Prop.    Acc.   pytype Prop.    Acc.\n");
    let check = |profile| check_predictions(e.system, e.data, &e.data.split.test, profile, 0.0).1;
    let (mypy, pytype) = (check(CheckerProfile::Mypy), check(CheckerProfile::Pytype));
    let rows = [
        ("eps -> tau", Category::FreshAnnotation),
        ("tau -> tau'", Category::ChangedAnnotation),
        ("tau -> tau", Category::SameAnnotation),
    ];
    for (label, cat) in rows {
        let (m, p) = match cat {
            Category::FreshAnnotation => (&mypy.fresh, &pytype.fresh),
            Category::ChangedAnnotation => (&mypy.changed, &pytype.changed),
            Category::SameAnnotation => (&mypy.same, &pytype.same),
        };
        let (mp, ma) = (mypy.proportion(cat), m.accuracy());
        let (pp, pa) = (pytype.proportion(cat), p.accuracy());
        outln!(
            t,
            "{label:<22} {mp:>10.0}% {ma:>6.0}%   {pp:>11.0}% {pa:>6.0}%"
        );
    }
    let (m, p) = (mypy.overall(), pytype.overall());
    let (ma, pa) = (m.accuracy(), p.accuracy());
    outln!(
        t,
        "{:<22} {:>10.0}% {ma:>6.0}%   {:>11.0}% {pa:>6.0}%",
        "Overall",
        100.0,
        100.0
    );
    let (ma, md) = (mypy.assessed_files, mypy.discarded_files);
    let (pa, pd) = (pytype.assessed_files, pytype.discarded_files);
    outln!(
        t,
        "\nassessed files: mypy {ma} (discarded {md}), pytype {pa} (discarded {pd})"
    );
    outln!(
        t,
        "assessed predictions: mypy {}, pytype {}",
        m.total,
        p.total
    );
    t.push_str(
        "\nExpected shape (paper): high overall accuracy, tau->tau at 100%;\n\
         pytype (extra inference) accepts fewer predictions than mypy.\n",
    );
}

/// Paper **Fig. 4**: the precision–recall curve of one of Graph2Class,
/// Graph2Space and Typilus under the three match criteria, sweeping the
/// prediction-confidence threshold; also written as `fig4_<model>.csv`.
fn fig4(t: &mut Part, e: &Eval) {
    let thresholds = default_thresholds();
    let curve = |c| pr_curve(&e.examples, &e.system.hierarchy, c, &thresholds);
    let (exact, param, neutral) = (
        curve(Criterion::Exact),
        curve(Criterion::UpToParametric),
        curve(Criterion::Neutral),
    );
    outln!(
        t,
        "\nFig. 4 ({}): precision-recall by confidence threshold",
        e.label
    );
    t.push_str("threshold   recall     exact    param  neutral\n");
    let mut csv =
        String::from("threshold,recall,exact_precision,param_precision,neutral_precision\n");
    for ((x, p), n) in exact.iter().zip(&param).zip(&neutral) {
        let (th, re, xp, pp, np) = (x.threshold, x.recall, x.precision, p.precision, n.precision);
        let pct = |v: f64| 100.0 * v;
        let (re_, xp_, pp_, np_) = (pct(re), pct(xp), pct(pp), pct(np));
        outln!(
            t,
            "{th:>9.2} {re_:>7.1}%  {xp_:>7.1}% {pp_:>7.1}% {np_:>7.1}%"
        );
        outln!(csv, "{th},{re},{xp},{pp},{np}");
    }
    let stem = format!("fig4_{}", e.label.to_lowercase().replace('-', "_"));
    t.csv.push((stem, csv));
}

/// Paper **Fig. 5**: Typilus' exact match and match up to parametric
/// type, bucketed by how many training annotations the true type has.
fn fig5(t: &mut Part, e: &Eval) {
    t.push_str("Fig. 5: performance bucketed by annotation count of the true type\n");
    t.push_str("annotation count       n   exact match  match up to param\n");
    // Scaled-down analogue of the paper's 2..10000 buckets.
    let bounds = [2usize, 5, 10, 20, 50, 100, 200];
    let mut lower = 0usize;
    for (upper, rates) in by_annotation_count(&e.examples, &e.system.hierarchy, &bounds) {
        let label = if upper == usize::MAX {
            format!("{lower}+")
        } else {
            format!("{lower}-{}", upper - 1)
        };
        let (n, exact, param) = (rates.count, rates.exact, rates.up_to_parametric);
        outln!(t, "{label:>16} {n:>7} {exact:>12.1}% {param:>17.1}%");
        if upper != usize::MAX {
            lower = upper;
        }
    }
    t.push_str(
        "\nExpected shape (paper Fig. 5): performance climbs with annotation\n\
         count but stays useful on the rare buckets (the open-vocabulary win).\n",
    );
}

/// Paper **Fig. 6**: the (k, p) grid of Eq. 5 — the change in
/// match-up-to-parametric relative to the grid median, for the kNN
/// neighbour count `k` and the distance exponent `p`; also written as
/// `fig6_grid.csv`.
fn fig6(t: &mut Part, e: &Eval) {
    let ks = [1usize, 2, 3, 4, 5, 7, 9, 11, 13, 16, 19, 25];
    let ps = [0.01f32, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0];
    // Evaluate the whole grid with one trained model and one fixed type
    // map, exactly as the paper does. The sweep runs on a copy, so the
    // outputs sharing the system keep its (k, p).
    let mut sweep = e.system.clone();
    let mut grid = vec![vec![0.0f64; ps.len()]; ks.len()];
    for (ki, &k) in ks.iter().enumerate() {
        for (pi, &p) in ps.iter().enumerate() {
            sweep.config.knn = KnnConfig { k, p };
            let examples = evaluate_files(&sweep, e.data, &e.data.split.test);
            let rates = MatchRates::compute(&examples, &sweep.hierarchy, |_| true);
            grid[ki][pi] = rates.up_to_parametric;
        }
    }
    let mut values: Vec<f64> = grid.iter().flatten().copied().collect();
    values.sort_by(f64::total_cmp);
    let median = values[values.len() / 2];

    outln!(
        t,
        "Fig. 6: match-up-to-parametric delta vs grid median ({median:.1}%)"
    );
    t.push_str("  k\\p");
    for p in ps {
        t.push_str(&format!("{p:>7.2}"));
    }
    outln!(t);
    let mut csv = String::from("k,p,match_up_to_parametric\n");
    for (&k, row) in ks.iter().zip(&grid) {
        t.push_str(&format!("{k:>5}"));
        for (&p, &cell) in ps.iter().zip(row) {
            t.push_str(&format!("{:>7.1}", cell - median));
            outln!(csv, "{k},{p},{cell}");
        }
        outln!(t);
    }
    t.csv.push(("fig6_grid".to_string(), csv));
    t.push_str(
        "\nExpected shape (paper Fig. 6): k = 1-2 clearly below the median;\n\
         larger k with moderately large p gives the best corner.\n",
    );
}

/// Paper **Fig. 7**: precision–recall of type-check correctness (a
/// prediction is correct if substituting it causes no type error) as
/// the confidence threshold is swept, for both checker profiles.
fn fig7(t: &mut Part, e: &Eval) {
    t.push_str("Fig. 7: precision-recall of type-check correctness\n");
    t.push_str("threshold    recall  mypy prec     recall pytype prec\n");
    let thresholds = default_thresholds();
    let curve = |profile| {
        let outcomes = check_predictions(e.system, e.data, &e.data.split.test, profile, 0.0).0;
        check_pr_curve(&outcomes, &thresholds)
    };
    let (m, p) = (curve(CheckerProfile::Mypy), curve(CheckerProfile::Pytype));
    for (m, p) in m.iter().zip(&p) {
        let pct = |v: f64| 100.0 * v;
        let (th, mr, mp, pr, pp) = (
            m.threshold,
            pct(m.recall),
            pct(m.precision),
            pct(p.recall),
            pct(p.precision),
        );
        outln!(
            t,
            "{th:>9.2}  {mr:>7.1}% {mp:>9.1}%   {pr:>7.1}% {pp:>9.1}%"
        );
    }
    t.push_str(
        "\nExpected shape (paper Fig. 7): trading recall for precision works;\n\
         mypy-correctness precision sits above pytype-correctness precision.\n",
    );
}

/// The paper's **Data** paragraph (Sec. 6): corpus size, annotation
/// counts, type diversity, Zipf head mass, rare-type share, parametric
/// share, and the dedup report.
fn corpus_stats_head(t: &mut String, scale: &Scale, corpus: &Corpus) {
    let sources: Vec<&str> = corpus.files.iter().map(|f| f.source.as_str()).collect();
    let dups = duplicate_count(&sources, DEFAULT_THRESHOLD);
    let stats = corpus_stats(corpus, scale.common_threshold);
    let files = corpus.files.len();
    outln!(t, "Corpus statistics (cf. paper Sec. 6 'Data')");
    outln!(t, "  files generated:           {files}");
    outln!(
        t,
        "  near-duplicates detected:  {dups} (removed before training)"
    );
    outln!(t, "  files after dedup:         {}", files - dups);
    outln!(
        t,
        "  unparseable files:         {}",
        stats.unparseable.len()
    );
    for (name, error) in &stats.unparseable {
        outln!(t, "    skipped {name}: {error}");
    }
    outln!(t, "  annotatable symbols:       {}", stats.symbols);
    outln!(t, "  usable annotations:        {}", stats.annotated);
    outln!(t, "  distinct annotated types:  {}", stats.distinct_types);
    outln!(
        t,
        "  top-10 type mass:          {:.1}%",
        100.0 * stats.top10_mass
    );
    let (rare, rare_share) = (stats.rare_threshold, 100.0 * stats.rare_fraction);
    outln!(t, "  rare annotations (<{rare}):     {rare_share:.1}%");
    outln!(
        t,
        "  parametric annotations:    {:.1}%",
        100.0 * stats.parametric_fraction
    );
    outln!(t, "\n  most frequent types:");
    for (ty, count) in stats.type_counts.iter().take(12) {
        outln!(t, "    {count:>6}  {ty}");
    }
    let singletons = stats.type_counts.iter().filter(|(_, c)| *c <= 2).count();
    outln!(
        t,
        "  ... and {singletons} types with <= 2 annotations (the fat tail)"
    );
}

/// The paper's Sec. 6.1 **"Transformers"** paragraph: a small
/// transformer in place of DeepTyper's biGRU, trained identically, with
/// the finding that it does not improve on the recurrent baseline.
fn transformers_note(t: &mut Part, e: &Eval) {
    let common = e.system.config.common_threshold;
    let row = table2_row(&e.examples, &e.system.hierarchy, common);
    let (label, all, common, rare) = (e.label, row.exact_all, row.exact_common, row.exact_rare);
    let neutral = row.neutral;
    outln!(
        t,
        "{label:<22} {all:>8.1}% {common:>8.1}% {rare:>8.1}%  {neutral:>7.1}%"
    );
}

/// The confusion family of a wrong prediction, mirroring Sec. 7.
fn confusion_family(predicted: &PyType, truth: &PyType) -> &'static str {
    let p = predicted.base_name();
    let t = truth.base_name();
    let optionalish =
        |a: &PyType, b: &PyType| matches!(a, PyType::Union(m) if m.iter().any(|x| x == b));
    if optionalish(predicted, truth) || optionalish(truth, predicted) {
        return "T vs Optional[T]/Union";
    }
    if (p == "str" && t == "bytes") || (p == "bytes" && t == "str") {
        return "str vs bytes";
    }
    if matches!(
        (p, t),
        ("int", "float") | ("float", "int") | ("int", "bool") | ("bool", "int")
    ) {
        return "numeric tower";
    }
    let container = |n: &str| matches!(n, "List" | "Set" | "Dict" | "Tuple" | "Iterable");
    if container(p) != container(t) {
        return "container vs element";
    }
    if container(p) && container(t) {
        return "container vs container";
    }
    let builtins = ["int", "str", "bool", "float", "bytes", "complex", "range"];
    if !builtins.contains(&p) && !builtins.contains(&t) {
        return "user type vs user type";
    }
    "other"
}

/// The paper's **Sec. 7 qualitative evaluation**: the most confident
/// *non-neutral* predictions, grouped into the paper's confusion
/// families — `T` vs `Optional[T]` / unions, `str` vs `bytes`, `int` vs
/// `float`, container-vs-element, and user-type vs user-type — plus the
/// share of deep parametric types (the paper: 80% of parametric
/// annotations have depth 1, 19% depth 2).
fn qualitative(t: &mut Part, e: &Eval) {
    // Depth distribution of parametric annotations (Sec. 7 preamble).
    let mut depth_counts: BTreeMap<usize, usize> = BTreeMap::new();
    for x in e.examples.iter().filter(|x| x.truth.is_parametric()) {
        *depth_counts.entry(x.truth.depth()).or_insert(0) += 1;
    }
    let parametric: usize = depth_counts.values().sum();
    outln!(t, "parametric annotation depth distribution (test split):");
    for (d, c) in depth_counts {
        let share = 100.0 * c as f64 / parametric.max(1) as f64;
        outln!(t, "  depth {d}: {c} ({share:.0}%)");
    }

    // Most confident wrong (non-neutral) predictions, by family.
    let mut wrong: Vec<(&'static str, f32, String, String, String)> = Vec::new();
    for x in &e.examples {
        let Some(top) = x.prediction.top() else {
            continue;
        };
        if e.system.hierarchy.is_neutral(&top.ty, &x.truth) {
            continue;
        }
        let family = confusion_family(&top.ty, &x.truth);
        let (name, ty, truth) = (
            x.prediction.name.clone(),
            top.ty.to_string(),
            x.truth.to_string(),
        );
        wrong.push((family, top.probability, name, ty, truth));
    }
    wrong.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut by_family: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (family, ..) in &wrong {
        *by_family.entry(family).or_insert(0) += 1;
    }
    outln!(
        t,
        "\nconfident-error families ({} non-neutral predictions):",
        wrong.len()
    );
    let mut families: Vec<_> = by_family.into_iter().collect();
    families.sort_by_key(|&(family, count)| (std::cmp::Reverse(count), family));
    for (family, count) in families {
        outln!(t, "  {count:>4}  {family}");
    }

    t.push_str("\nmost confident errors (cf. the paper's mx.nd.NDArray vs torch.Tensor):\n");
    t.push_str("family                     symbol                 predicted              ");
    t.push_str("truth                  conf\n");
    for (family, conf, name, pred, truth) in wrong.iter().take(15) {
        outln!(
            t,
            "{family:<26} {name:<22} {pred:<22} {truth:<22} {conf:.2}"
        );
    }
    t.push_str(
        "\nExpected shape (paper Sec. 7): depth-1 parametric types dominate;\n\
         T-vs-Optional[T], str-vs-bytes and related-user-type confusions lead.\n",
    );
}
