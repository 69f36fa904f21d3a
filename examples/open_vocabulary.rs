//! One-shot open-vocabulary adaptation (paper Sec. 4.2).
//!
//! Classification models can never predict a type outside their training
//! vocabulary. Typilus' type map can: embed a *single* example of a new
//! type, bind it, and the type becomes predictable immediately — no
//! retraining. This example walks through exactly that.
//!
//! ```sh
//! cargo run --release --example open_vocabulary
//! ```

use typilus::{train, PreparedCorpus, PyType, TypilusConfig};
use typilus_corpus::{generate, CorpusConfig};

fn main() {
    let corpus = generate(&CorpusConfig {
        files: 60,
        seed: 2,
        ..CorpusConfig::default()
    });
    let data = PreparedCorpus::from_corpus(&corpus, &typilus::GraphConfig::default(), 2);
    println!("training base system...");
    let mut system = train(
        &data,
        &TypilusConfig {
            epochs: 10,
            ..TypilusConfig::default()
        },
    );

    let novel: PyType = "warp.DriveCore".parse().expect("valid type");
    println!(
        "novel type: {novel} (training annotations: {})",
        system.train_count(&novel)
    );

    let query = "\
def ignite(drive_core):
    drive_core.engage()
    return drive_core
";
    let show = |label: &str, system: &typilus::TrainedSystem| {
        let preds = system.predict_source(query).expect("query parses");
        let p = preds
            .iter()
            .find(|p| p.name == "drive_core")
            .expect("symbol exists");
        println!("\n{label}: candidates for `drive_core`:");
        for c in p.candidates.iter().take(5) {
            println!("  {:<24} p={:.3}", c.ty.to_string(), c.probability);
        }
        p.candidates.iter().any(|c| c.ty == novel)
    };

    let before = show("BEFORE binding", &system);
    assert!(!before, "novel type cannot be predicted yet");

    // One example somewhere else in the codebase is enough.
    let example = "\
def shutdown(drive_core):
    drive_core.engage()
    return drive_core
";
    println!("\nbinding one example of {novel} from a different function...");
    let bound = system
        .add_marker(example, "drive_core", novel.clone())
        .is_ok();
    assert!(bound, "binding must succeed");
    println!("type map now holds {} markers", system.type_map.len());

    let after = show("AFTER binding", &system);
    assert!(after, "novel type should now appear among candidates");
    println!("\none-shot adaptation succeeded: {novel} is now predictable.");
}
