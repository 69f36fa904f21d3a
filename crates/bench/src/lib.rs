//! # typilus-bench
//!
//! The benchmark harness of the Typilus reproduction: one runner,
//! `--bin repro`, that renders every table and figure of the paper's
//! evaluation (Sec. 6–7) from one shared set of trained models (see
//! [`repro`] and [`outputs`]); the `bench_nn`, `bench_space` and
//! `bench_lint` binaries, which write the committed `BENCH_*.json`
//! reports; and the [`speed`] measurements that both those reports and
//! the release-mode gates in `tests/speed_gates.rs` run.
//!
//! [`Scale::from_env`] reads these environment variables to rescale the
//! experiment; a value that is not a non-negative integer is an error
//! naming the variable, never a silent default:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `TYPILUS_FILES` | corpus size (files) | 150 |
//! | `TYPILUS_EPOCHS` | training epochs | 18 |
//! | `TYPILUS_DIM` | embedding width | 32 |
//! | `TYPILUS_GNN_STEPS` | message-passing steps | 8 |
//! | `TYPILUS_SEED` | global seed | 0 |
//! | `TYPILUS_COMMON` | common-type threshold | 15 |
//!
//! Absolute numbers differ from the paper (different corpus, laptop
//! scale); the *shapes* — ranking of models, rare-vs-common gaps,
//! ablation ordering — are the reproduction targets (see
//! `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub mod outputs;
pub mod repro;
pub mod speed;

use typilus::{
    train, EncoderKind, GraphConfig, LossKind, ModelConfig, PreparedCorpus, TrainedSystem,
    TypilusConfig,
};
use typilus_corpus::{generate, Corpus, CorpusConfig};

/// Scale knobs of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus size in files.
    pub files: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Embedding width.
    pub dim: usize,
    /// GNN message-passing steps.
    pub gnn_steps: usize,
    /// Global seed.
    pub seed: u64,
    /// Common-type threshold for Table 2 style breakdowns.
    pub common_threshold: usize,
}

/// A malformed scale variable (see the crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError {
    /// The variable's name.
    pub name: &'static str,
    /// The value that did not parse.
    pub value: String,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} value {:?}: expected a non-negative integer",
            self.name, self.value
        )
    }
}

impl std::error::Error for ScaleError {}

/// `name`'s value from `lookup` parsed as an integer (surrounding
/// whitespace allowed), or `default` when `lookup` has no value.
fn knob<T: std::str::FromStr>(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &'static str,
    default: T,
) -> Result<T, ScaleError> {
    match lookup(name) {
        None => Ok(default),
        Some(value) => value.trim().parse().map_err(|_| ScaleError { name, value }),
    }
}

/// Output path for a benchmark's JSON report: `TYPILUS_BENCH_OUT`, or
/// `default` when unset. Bench binaries read the environment through
/// here (a designated config module) per lint rule `D3`.
pub fn bench_out(default: &str) -> String {
    std::env::var("TYPILUS_BENCH_OUT").unwrap_or_else(|_| default.to_string())
}

impl Scale {
    /// Reads the scale from the environment (see crate docs).
    pub fn from_env() -> Result<Scale, ScaleError> {
        Scale::from_vars(&|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// The scale from `lookup`, which maps a variable name to its value
    /// (`None` when unset); [`Scale::from_env`] passes the environment.
    pub fn from_vars(lookup: &dyn Fn(&str) -> Option<String>) -> Result<Scale, ScaleError> {
        Ok(Scale {
            files: knob(lookup, "TYPILUS_FILES", 150)?,
            epochs: knob(lookup, "TYPILUS_EPOCHS", 18)?,
            dim: knob(lookup, "TYPILUS_DIM", 32)?,
            gnn_steps: knob(lookup, "TYPILUS_GNN_STEPS", 8)?,
            seed: knob(lookup, "TYPILUS_SEED", 0)?,
            common_threshold: knob(lookup, "TYPILUS_COMMON", 15)?,
        })
    }

    /// A small scale for smoke tests.
    pub fn small() -> Scale {
        Scale {
            files: 30,
            epochs: 5,
            dim: 16,
            gnn_steps: 3,
            seed: 0,
            common_threshold: 8,
        }
    }
}

/// Generates the benchmark corpus and prepares it under a graph config.
pub fn prepare(scale: &Scale, graph: &GraphConfig) -> (Corpus, PreparedCorpus) {
    let corpus = generate(&CorpusConfig {
        files: scale.files,
        seed: scale.seed,
        ..CorpusConfig::default()
    });
    let data = PreparedCorpus::from_corpus(&corpus, graph, scale.seed);
    (corpus, data)
}

/// The pipeline config for an encoder/loss pair at a given scale.
pub fn config_for(
    scale: &Scale,
    encoder: EncoderKind,
    loss: LossKind,
    graph: GraphConfig,
) -> TypilusConfig {
    TypilusConfig {
        model: ModelConfig {
            encoder,
            loss,
            dim: scale.dim,
            gnn_steps: scale.gnn_steps,
            min_subtoken_count: 2,
            seed: scale.seed,
            ..ModelConfig::default()
        },
        graph,
        epochs: scale.epochs,
        batch_size: 8,
        lr: 0.015,
        common_threshold: scale.common_threshold,
        seed: scale.seed,
        ..TypilusConfig::default()
    }
}

/// Trains one system, logging per-epoch progress to stderr.
pub fn train_logged(label: &str, data: &PreparedCorpus, config: &TypilusConfig) -> TrainedSystem {
    eprintln!("[{label}] training ({} epochs)...", config.epochs);
    let system = train(data, config);
    if let (Some(first), Some(last)) = (system.epochs.first(), system.epochs.last()) {
        eprintln!(
            "[{label}] loss {:.4} -> {:.4} ({:.1}s/epoch)",
            first.mean_loss, last.mean_loss, last.seconds
        );
    }
    system
}

/// The paper's name of an encoder/loss combination (Table 2 rows).
pub fn variant_name(encoder: EncoderKind, loss: LossKind) -> &'static str {
    match (encoder, loss) {
        (EncoderKind::Seq, LossKind::Class) => "Seq2Class",
        (EncoderKind::Seq, LossKind::Space) => "Seq2Space",
        (EncoderKind::Seq, LossKind::Typilus) => "Seq-Typilus",
        (EncoderKind::Path, LossKind::Class) => "Path2Class",
        (EncoderKind::Path, LossKind::Space) => "Path2Space",
        (EncoderKind::Path, LossKind::Typilus) => "Path-Typilus",
        (EncoderKind::Graph, LossKind::Class) => "Graph2Class",
        (EncoderKind::Graph, LossKind::Space) => "Graph2Space",
        (EncoderKind::Graph, LossKind::Typilus) => "Typilus",
        (EncoderKind::Transformer, LossKind::Class) => "Transformer2Class",
        (EncoderKind::Transformer, LossKind::Space) => "Transformer2Space",
        (EncoderKind::Transformer, LossKind::Typilus) => "Transformer-Typilus",
    }
}

/// All nine Table 2 variants in the paper's row order.
pub fn all_variants() -> Vec<(EncoderKind, LossKind)> {
    let encoders = [EncoderKind::Seq, EncoderKind::Path, EncoderKind::Graph];
    let losses = [LossKind::Class, LossKind::Space, LossKind::Typilus];
    let mut out = Vec::new();
    for e in encoders {
        for l in losses {
            out.push((e, l));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_defaults() {
        let s = Scale::from_vars(&|_| None).unwrap();
        assert_eq!((s.files, s.epochs, s.dim, s.gnn_steps), (150, 18, 32, 8));
        assert_eq!((s.seed, s.common_threshold), (0, 15));
    }

    #[test]
    fn scale_vars_parse_set_values() {
        let s = Scale::from_vars(&|name| match name {
            "TYPILUS_FILES" => Some(" 30 ".to_string()),
            "TYPILUS_SEED" => Some("7".to_string()),
            _ => None,
        })
        .unwrap();
        assert_eq!((s.files, s.seed, s.epochs), (30, 7, 18));
    }

    #[test]
    fn malformed_scale_var_is_an_error_naming_it() {
        for name in [
            "TYPILUS_FILES",
            "TYPILUS_EPOCHS",
            "TYPILUS_DIM",
            "TYPILUS_GNN_STEPS",
            "TYPILUS_SEED",
            "TYPILUS_COMMON",
        ] {
            for bad in ["3O", "", "-1", "1.5", "ten"] {
                let err = Scale::from_vars(&|n| (n == name).then(|| bad.to_string())).unwrap_err();
                assert_eq!(err.name, name);
                assert_eq!(err.value, bad);
                assert!(err.to_string().contains(name), "{err}");
            }
        }
    }

    #[test]
    fn nine_variants_in_paper_order() {
        let v = all_variants();
        assert_eq!(v.len(), 9);
        assert_eq!(variant_name(v[0].0, v[0].1), "Seq2Class");
        assert_eq!(variant_name(v[8].0, v[8].1), "Typilus");
    }

    #[test]
    fn smoke_prepare_and_train() {
        let scale = Scale {
            files: 10,
            epochs: 1,
            dim: 8,
            gnn_steps: 2,
            seed: 0,
            common_threshold: 5,
        };
        let graph = GraphConfig::default();
        let (_, data) = prepare(&scale, &graph);
        let config = config_for(&scale, EncoderKind::Graph, LossKind::Typilus, graph);
        let system = train_logged("smoke", &data, &config);
        assert!(!system.epochs.is_empty());
    }
}
