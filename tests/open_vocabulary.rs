//! The paper's headline capability: open-vocabulary, one-shot type
//! prediction (Sec. 4.2). A type never seen in training becomes
//! predictable after binding a *single* example into the type map — no
//! retraining — and meta-learning losses beat classification on rare
//! types.

use typilus::{
    evaluate_files, table2_row, train, EncoderKind, LossKind, ModelConfig, PreparedCorpus, PyType,
    TypilusConfig,
};
use typilus_corpus::{generate, CorpusConfig};

fn data_and_config() -> (PreparedCorpus, TypilusConfig) {
    let corpus = generate(&CorpusConfig {
        files: 40,
        seed: 21,
        ..CorpusConfig::default()
    });
    let data = PreparedCorpus::from_corpus(&corpus, &typilus::GraphConfig::default(), 21);
    let config = TypilusConfig {
        model: ModelConfig {
            encoder: EncoderKind::Graph,
            loss: LossKind::Typilus,
            dim: 16,
            gnn_steps: 3,
            min_subtoken_count: 1,
            ..ModelConfig::default()
        },
        epochs: 6,
        batch_size: 8,
        lr: 0.02,
        common_threshold: 8,
        ..TypilusConfig::default()
    };
    (data, config)
}

#[test]
fn one_shot_adaptation_to_unseen_type() {
    let (data, config) = data_and_config();
    let mut system = train(&data, &config);

    // A brand-new type that cannot exist in the corpus.
    let novel: PyType = "quantum.FluxCapacitor".parse().unwrap();
    assert_eq!(system.train_count(&novel), 0, "type must be unseen");

    let query_src =
        "def charge(flux_capacitor):\n    flux_capacitor.engage()\n    return flux_capacitor\n";

    // Before binding: the novel type is never predicted.
    let before = system.predict_source(query_src).unwrap();
    let fc = before.iter().find(|p| p.name == "flux_capacitor").unwrap();
    assert!(fc.candidates.iter().all(|c| c.ty != novel));

    // Bind ONE example (different code, same naming/usage pattern).
    let binding_src =
        "def drain(flux_capacitor):\n    flux_capacitor.engage()\n    return flux_capacitor\n";
    assert!(system
        .add_marker(binding_src, "flux_capacitor", novel.clone())
        .is_ok());

    // After binding: the nearest-neighbour prediction includes it.
    let after = system.predict_source(query_src).unwrap();
    let fc = after.iter().find(|p| p.name == "flux_capacitor").unwrap();
    assert!(
        fc.candidates.iter().any(|c| c.ty == novel),
        "novel type should now be predictable: {:?}",
        fc.candidates
    );
}

#[test]
fn meta_learning_beats_classification_on_rare_types() {
    let (data, config) = data_and_config();

    let typilus = train(&data, &config);
    let class_cfg = TypilusConfig {
        model: ModelConfig {
            loss: LossKind::Class,
            ..config.model
        },
        ..config
    };
    let classifier = train(&data, &class_cfg);

    let t_examples = evaluate_files(&typilus, &data, &data.split.test);
    let c_examples = evaluate_files(&classifier, &data, &data.split.test);
    let t_row = table2_row(&t_examples, &typilus.hierarchy, config.common_threshold);
    let c_row = table2_row(&c_examples, &classifier.hierarchy, config.common_threshold);

    // The paper's central claim (Table 2): the similarity-learned space
    // is far better on rare types. We allow slack but require a clear
    // ordering.
    assert!(
        t_row.exact_rare >= c_row.exact_rare,
        "Typilus rare-type exact match {:.1} should be >= classification {:.1}",
        t_row.exact_rare,
        c_row.exact_rare
    );
}

#[test]
fn unseen_types_have_zero_train_count_but_exist_in_test() {
    let (data, config) = data_and_config();
    let system = train(&data, &config);
    let examples = evaluate_files(&system, &data, &data.split.test);
    // The Zipf tail guarantees some test symbols carry types rarely or
    // never seen in training.
    let rare = examples
        .iter()
        .filter(|e| e.truth_train_count < config.common_threshold)
        .count();
    assert!(rare > 0, "expected rare-type examples in the test split");
}
