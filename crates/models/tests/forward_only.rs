//! Inference runs on forward-only tapes (`Tape::forward_only`), which
//! record nothing for backward and recycle each GGNN step's
//! intermediates. Their values must equal a recording tape's bit for
//! bit: for all four encoders, every GGNN node initialisation with max
//! and sum aggregation, a file with no edges, and the classification
//! head — under both kernel modes and at every selectable SIMD width.
//!
//! Kernel mode and SIMD width are process-global, so this binary holds
//! a single `#[test]`.

use typilus_graph::{build_graph, GraphConfig, ProgramGraph};
use typilus_models::{
    Aggregation, EncoderKind, LossKind, ModelConfig, NodeInit, PreparedFile, TypeModel,
};
use typilus_nn::{available_widths, set_kernel_mode, set_simd_width, KernelMode, Tape, Tensor};
use typilus_pyast::{parse, SymbolTable};
use typilus_types::PyType;

const SOURCES: &[&str] = &[
    "def area(width: int, height: int) -> int:\n    total = width * height\n    return total\n",
    "class Greeter:\n    def greet(self, name: str) -> str:\n        message = 'hi ' + name\n        return message\n",
    "def scale(values, factor: float):\n    out = []\n    for v in values:\n        out.append(v * factor)\n    return out\n",
];

fn graphs() -> Vec<ProgramGraph> {
    SOURCES
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let parsed = parse(src).expect("test source parses");
            let table = SymbolTable::build(&parsed.module);
            build_graph(
                &parsed,
                &table,
                &GraphConfig::default(),
                &format!("f{i}.py"),
            )
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn embed_bits(model: &TypeModel, mut tape: Tape<'_>, file: &PreparedFile) -> Option<Vec<u32>> {
    let emb = model.embed(&mut tape, file)?;
    Some(bits(tape.value(emb)))
}

/// The forward-only embedding (directly and through `embed_inference`)
/// equals the recording tape's.
fn assert_embeddings_match(model: &TypeModel, file: &PreparedFile, what: &str) {
    let recorded = embed_bits(model, Tape::new(&model.params), file);
    assert!(recorded.is_some(), "{what}: nothing embedded");
    let forward = embed_bits(model, Tape::forward_only(&model.params), file);
    assert_eq!(forward, recorded, "{what}: forward-only tape");
    let inference = model.embed_inference(file).map(|t| bits(&t));
    assert_eq!(inference, recorded, "{what}: embed_inference");
}

fn model(encoder: EncoderKind, loss: LossKind, node_init: NodeInit, agg: Aggregation) -> TypeModel {
    let config = ModelConfig {
        encoder,
        loss,
        node_init,
        aggregation: agg,
        dim: 16,
        gnn_steps: 4,
        min_subtoken_count: 1,
        seed: 9,
        ..ModelConfig::default()
    };
    TypeModel::new(config, &graphs())
}

fn class_bits(preds: Option<Vec<(PyType, f32)>>) -> Option<Vec<(String, u32)>> {
    preds.map(|p| {
        p.into_iter()
            .map(|(ty, prob)| (ty.to_string(), prob.to_bits()))
            .collect()
    })
}

fn check_all(label: &str) {
    let graphs = graphs();
    for node_init in [NodeInit::Subtoken, NodeInit::Token, NodeInit::Char] {
        for agg in [Aggregation::Max, Aggregation::Sum] {
            let m = model(EncoderKind::Graph, LossKind::Typilus, node_init, agg);
            for (i, g) in graphs.iter().enumerate() {
                let what = format!("{label} Graph {node_init:?} {agg:?} f{i}");
                assert_embeddings_match(&m, &m.prepare(g), &what);
            }
        }
    }

    // A file without edges takes the GGNN's zero-message branch.
    let m = model(
        EncoderKind::Graph,
        LossKind::Typilus,
        NodeInit::Subtoken,
        Aggregation::Max,
    );
    let mut file = m.prepare(&graphs[0]);
    file.relations.iter_mut().for_each(Vec::clear);
    assert_embeddings_match(&m, &file, &format!("{label} Graph without edges"));

    for encoder in [
        EncoderKind::Seq,
        EncoderKind::Path,
        EncoderKind::Transformer,
    ] {
        let m = model(
            encoder,
            LossKind::Typilus,
            NodeInit::Subtoken,
            Aggregation::Max,
        );
        for (i, g) in graphs.iter().enumerate() {
            let what = format!("{label} {encoder:?} f{i}");
            assert_embeddings_match(&m, &m.prepare(g), &what);
        }
    }

    let m = model(
        EncoderKind::Graph,
        LossKind::Class,
        NodeInit::Subtoken,
        Aggregation::Max,
    );
    for (i, g) in graphs.iter().enumerate() {
        let file = m.prepare(g);
        let recorded = class_bits(m.predict_class_on(&mut Tape::new(&m.params), &file));
        assert!(recorded.is_some(), "{label} class f{i}: no prediction");
        assert_eq!(
            class_bits(m.predict_class(&file)),
            recorded,
            "{label} predict_class f{i}"
        );
    }
}

#[test]
fn forward_only_tape_is_bitwise_recording_tape() {
    for mode in [KernelMode::Fast, KernelMode::Naive] {
        set_kernel_mode(mode);
        for width in available_widths() {
            set_simd_width(width);
            check_all(&format!("{mode:?}/{}", width.name()));
        }
    }
    set_kernel_mode(KernelMode::Fast);
}
