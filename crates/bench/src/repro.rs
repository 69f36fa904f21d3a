//! The experiment runner behind `--bin repro`. Each [`Output`] states
//! what it reads: the generated corpus and one training per row.
//! [`run`] prepares each distinct edge set once, trains each distinct
//! model once, hands the system to every output that reads it and
//! drops it before training the next, so at most one system (and its
//! worker pool) is alive at a time.

use std::path::Path;

use typilus::{
    evaluate_files, Aggregation, EdgeSet, EncoderKind, EvalExample, GraphConfig, LossKind,
    NodeInit, PreparedCorpus, TrainedSystem,
};
use typilus_corpus::{generate, Corpus, CorpusConfig};

use crate::{config_for, train_logged, Scale};

/// One model to train: the variables of Tables 2 and 4. Outputs that
/// read equal `Training`s share one system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Training {
    pub encoder: EncoderKind,
    pub loss: LossKind,
    pub edges: EdgeSet,
    pub node_init: NodeInit,
    pub aggregation: Aggregation,
}

impl Training {
    /// The full model (all edges, subtokens, max aggregation).
    pub fn new(encoder: EncoderKind, loss: LossKind) -> Training {
        Training {
            encoder,
            loss,
            edges: EdgeSet::all(),
            node_init: NodeInit::Subtoken,
            aggregation: Aggregation::Max,
        }
    }
}

/// What a row reads: one trained system and its test-split examples.
pub(crate) struct Eval<'a> {
    /// The row's label: a Table 2 variant or a Table 4 ablation.
    pub label: &'static str,
    pub data: &'a PreparedCorpus,
    pub system: &'a TrainedSystem,
    /// `evaluate_files` over the test split, computed once per system.
    pub examples: Vec<EvalExample>,
}

/// Rendered text plus CSV files as `(file stem, content)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Part {
    /// The text.
    pub text: String,
    /// The CSV files.
    pub csv: Vec<(String, String)>,
}

impl Part {
    pub(crate) fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
    }
}

/// One paper output: a head, one row per training it reads, a foot.
pub struct Output {
    /// File stem of its text: `<name>.txt`.
    pub name: &'static str,
    pub(crate) head: fn(&mut String, &Scale, &Corpus),
    /// Row labels and the trainings they read, in row order.
    pub(crate) reads: Vec<(&'static str, Training)>,
    pub(crate) row: fn(&mut Part, &Eval),
    pub(crate) foot: &'static str,
}

impl Output {
    /// An output without head or foot.
    pub(crate) fn new(
        name: &'static str,
        reads: impl IntoIterator<Item = (&'static str, Training)>,
        row: fn(&mut Part, &Eval),
    ) -> Output {
        Output {
            name,
            head: |_, _, _| {},
            reads: reads.into_iter().collect(),
            row,
            foot: "",
        }
    }
}

/// The distinct trainings `outputs` read, in first-read order, each
/// with its first reader's label.
fn plan(outputs: &[Output]) -> Vec<(&'static str, Training)> {
    let mut plan: Vec<(&'static str, Training)> = Vec::new();
    for &(label, training) in outputs.iter().flat_map(|o| &o.reads) {
        if !plan.iter().any(|&(_, t)| t == training) {
            plan.push((label, training));
        }
    }
    plan
}

/// Renders `outputs` at `scale`. Trainings run in [`plan`] order,
/// grouped by edge set; rows reading one system render in `outputs`
/// order.
pub fn run(scale: &Scale, outputs: &[Output]) -> Vec<(&'static str, Part)> {
    let corpus = generate(&CorpusConfig {
        files: scale.files,
        seed: scale.seed,
        ..CorpusConfig::default()
    });
    let mut rows: Vec<Vec<Part>> = outputs
        .iter()
        .map(|o| vec![Part::default(); o.reads.len()])
        .collect();
    let mut plan = plan(outputs);
    while let Some(&(_, first)) = plan.first() {
        let (now, later): (Vec<_>, Vec<_>) =
            plan.into_iter().partition(|(_, t)| t.edges == first.edges);
        plan = later;
        let graph = GraphConfig {
            edges: first.edges,
            ..GraphConfig::default()
        };
        let data = PreparedCorpus::from_corpus(&corpus, &graph, scale.seed);
        eprintln!("[repro] prepared {} files", data.files.len());
        for (label, training) in now {
            let mut config = config_for(scale, training.encoder, training.loss, graph);
            config.model.node_init = training.node_init;
            config.model.aggregation = training.aggregation;
            let system = train_logged(label, &data, &config);
            let examples = evaluate_files(&system, &data, &data.split.test);
            let mut eval = Eval {
                label,
                data: &data,
                system: &system,
                examples,
            };
            for (output, parts) in outputs.iter().zip(&mut rows) {
                for (part, &(row_label, t)) in parts.iter_mut().zip(&output.reads) {
                    if t == training {
                        eval.label = row_label;
                        (output.row)(part, &eval);
                    }
                }
            }
        }
    }
    outputs
        .iter()
        .zip(rows)
        .map(|(output, rows)| {
            let mut whole = Part::default();
            (output.head)(&mut whole.text, scale, &corpus);
            for row in rows {
                whole.text += &row.text;
                whole.csv.extend(row.csv);
            }
            whole.text += output.foot;
            (output.name, whole)
        })
        .collect()
}

/// Writes `dir/<name>.txt` and `dir/csv/<stem>.csv` atomically.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(dir: &Path, name: &str, part: &Part) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    typilus::atomic_io::write_atomic(dir.join(format!("{name}.txt")), part.text.as_bytes())?;
    for (stem, content) in &part.csv {
        std::fs::create_dir_all(dir.join("csv"))?;
        let path = dir.join("csv").join(format!("{stem}.csv"));
        typilus::atomic_io::write_atomic(path, content.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outputs;

    #[test]
    fn eleven_outputs_share_eighteen_trainings_on_six_graphs() {
        let all = outputs::all();
        assert_eq!(all.iter().map(|o| o.reads.len()).sum::<usize>(), 29);
        let plan = plan(&all);
        let mut edge_sets: Vec<EdgeSet> = Vec::new();
        for (_, t) in &plan {
            if !edge_sets.contains(&t.edges) {
                edge_sets.push(t.edges);
            }
        }
        assert_eq!((all.len(), plan.len(), edge_sets.len()), (11, 18, 6));
        let typilus = Training::new(EncoderKind::Graph, LossKind::Typilus);
        assert_eq!(plan[8], ("Typilus", typilus));
    }

    #[test]
    fn a_shared_system_renders_the_same_in_any_order() {
        let scale = Scale {
            files: 10,
            epochs: 1,
            ..Scale::small()
        };
        // Canonical order renders fig6's (k, p) sweep last; reversed, first.
        let pick = || -> Vec<Output> {
            let names = ["table3", "table5", "fig5", "fig6"];
            outputs::all()
                .into_iter()
                .filter(|o| names.contains(&o.name))
                .collect()
        };
        let forward = run(&scale, &pick());
        let mut reversed = pick();
        reversed.reverse();
        let mut backward = run(&scale, &reversed);
        backward.reverse();
        assert_eq!(forward.len(), 4);
        assert_eq!(forward, backward);
    }
}
