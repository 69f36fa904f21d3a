//! Corpus preparation: parse, deduplicate, build graphs, split.

use std::collections::BTreeMap;
use std::fmt;
use typilus_corpus::{deduplicate, split_with, Corpus, Split, DEFAULT_THRESHOLD};
use typilus_graph::{build_graph, GraphConfig, ProgramGraph};
use typilus_nn::{resolve_threads, WorkerPool};
use typilus_pyast::{parse, Parsed, StmtKind, SymbolTable};
use typilus_types::TypeHierarchy;

/// One source file with everything derived from it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Pseudo-path.
    pub name: String,
    /// Raw source text.
    pub source: String,
    /// Parse result (AST + tokens).
    pub parsed: Parsed,
    /// Symbol table.
    pub table: SymbolTable,
    /// Program graph (annotations erased per the config).
    pub graph: ProgramGraph,
}

/// Why a source file was excluded from the prepared corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The file is not valid Python; carries the parse error text.
    ParseError(String),
    /// The file parsed but produced an empty program graph (nothing to
    /// train or predict on).
    EmptyGraph,
    /// The file's bytes are not UTF-8 (say, a Latin-1 source), so it
    /// was never parsed.
    NotUtf8 {
        /// Length of the file's longest valid UTF-8 prefix: the byte
        /// offset of the first invalid sequence.
        valid_up_to: usize,
    },
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::ParseError(e) => write!(f, "parse error: {e}"),
            SkipReason::EmptyGraph => write!(f, "empty program graph"),
            SkipReason::NotUtf8 { valid_up_to } => {
                write!(
                    f,
                    "not valid UTF-8 (first bad byte at offset {valid_up_to})"
                )
            }
        }
    }
}

/// Files excluded during corpus preparation, keyed by file name
/// (`BTreeMap`, so every report over it is deterministic). The
/// pipeline degrades gracefully — one unparseable file never aborts
/// ingestion — but what was skipped is named, never hidden.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    /// Skipped file name → why it was skipped.
    pub skipped: BTreeMap<String, SkipReason>,
}

impl Quarantine {
    /// Number of quarantined files.
    pub fn len(&self) -> usize {
        self.skipped.len()
    }

    /// Whether every file survived preparation.
    pub fn is_empty(&self) -> bool {
        self.skipped.is_empty()
    }

    /// Number of files skipped for parse errors.
    pub fn parse_errors(&self) -> usize {
        self.skipped
            .values()
            .filter(|r| matches!(r, SkipReason::ParseError(_)))
            .count()
    }

    /// Number of files skipped for empty graphs.
    pub fn empty_graphs(&self) -> usize {
        self.skipped
            .values()
            .filter(|r| matches!(r, SkipReason::EmptyGraph))
            .count()
    }

    /// Number of files skipped for not being UTF-8.
    pub fn not_utf8(&self) -> usize {
        self.skipped
            .values()
            .filter(|r| matches!(r, SkipReason::NotUtf8 { .. }))
            .count()
    }

    /// One-line summary, e.g. `"3 files quarantined (1 parse errors, 1
    /// empty graphs, 1 not UTF-8)"`.
    pub fn summary(&self) -> String {
        format!(
            "{} files quarantined ({} parse errors, {} empty graphs, {} not UTF-8)",
            self.len(),
            self.parse_errors(),
            self.empty_graphs(),
            self.not_utf8()
        )
    }
}

/// A corpus parsed, deduplicated and split, ready for training.
#[derive(Debug, Clone)]
pub struct PreparedCorpus {
    /// Files that survived parsing and dedup.
    pub files: Vec<SourceFile>,
    /// Train/valid/test indices into `files`.
    pub split: Split,
    /// Files dropped during preparation, with typed reasons.
    pub quarantine: Quarantine,
}

impl PreparedCorpus {
    /// Builds graphs for every parseable, non-duplicate file and splits
    /// 70-10-20 (paper proportions). Extraction is embarrassingly
    /// parallel and runs on a [`WorkerPool`] sized like every other
    /// stage (`TYPILUS_THREADS`, else the available cores); the paper
    /// extracts graphs for 118k files, so this is the pipeline's batch
    /// stage.
    pub fn from_corpus(corpus: &Corpus, graph_config: &GraphConfig, seed: u64) -> PreparedCorpus {
        let named: Vec<(&str, &str)> = corpus
            .files
            .iter()
            .map(|f| (f.name.as_str(), f.source.as_str()))
            .collect();
        PreparedCorpus::from_sources(&named, graph_config, seed)
    }

    /// Builds a prepared corpus from arbitrary named sources (e.g. `.py`
    /// files read from disk), with the same dedup / parallel extraction /
    /// split pipeline as [`PreparedCorpus::from_corpus`].
    pub fn from_sources(
        named_sources: &[(&str, &str)],
        graph_config: &GraphConfig,
        seed: u64,
    ) -> PreparedCorpus {
        let sources: Vec<&str> = named_sources.iter().map(|(_, s)| *s).collect();
        let kept = deduplicate(&sources, DEFAULT_THRESHOLD);
        // Results come back in `kept` order at any pool size, so the
        // file list — and therefore the split — never depends on the
        // thread count. No more workers than files: idle ones would
        // only cost a thread spawn each.
        let pool = WorkerPool::new(resolve_threads(None).min(kept.len()));
        let extracted = pool.map_ordered(&kept, |_, &idx| {
            let (name, source) = named_sources[idx];
            extract(name, source, graph_config)
        });
        let mut files = Vec::new();
        let mut quarantine = Quarantine::default();
        for extracted in extracted {
            match extracted {
                Ok(file) => files.push(file),
                Err((name, reason)) => {
                    quarantine.skipped.insert(name, reason);
                }
            }
        }
        let split = split_with(files.len(), seed, 0.7, 0.1);
        PreparedCorpus {
            files,
            split,
            quarantine,
        }
    }

    /// Graphs of the given file indices.
    pub fn graphs_of(&self, indices: &[usize]) -> Vec<ProgramGraph> {
        indices
            .iter()
            .map(|&i| self.files[i].graph.clone())
            .collect()
    }

    /// Registers every class defined anywhere in the corpus into a type
    /// hierarchy (the evaluation lattice must know user-defined types).
    pub fn register_classes(&self, hierarchy: &mut TypeHierarchy) {
        fn walk(stmts: &[typilus_pyast::Stmt], hierarchy: &mut TypeHierarchy) {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::ClassDef(c) => {
                        let bases: Vec<String> = c
                            .bases
                            .iter()
                            .filter_map(typilus_pyast::Expr::annotation_text)
                            .collect();
                        let refs: Vec<&str> = bases.iter().map(String::as_str).collect();
                        hierarchy.register_class(&c.name, &refs);
                        walk(&c.body, hierarchy);
                    }
                    StmtKind::FunctionDef(f) => walk(&f.body, hierarchy),
                    _ => {}
                }
            }
        }
        for f in &self.files {
            walk(&f.parsed.module.body, hierarchy);
        }
    }
}

/// Parses one source file and builds its graph. A broken file
/// degrades to a typed skip reason instead of silently vanishing (or
/// killing the worker).
fn extract(
    name: &str,
    source: &str,
    graph_config: &GraphConfig,
) -> Result<SourceFile, (String, SkipReason)> {
    let parsed =
        parse(source).map_err(|e| (name.to_string(), SkipReason::ParseError(e.to_string())))?;
    let table = SymbolTable::build(&parsed.module);
    let graph = build_graph(&parsed, &table, graph_config, name);
    // An empty or comment-only file builds just the module-root node:
    // nothing to train on.
    if graph.node_count() <= 1 {
        return Err((name.to_string(), SkipReason::EmptyGraph));
    }
    Ok(SourceFile {
        name: name.to_string(),
        source: source.to_string(),
        parsed,
        table,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus_corpus::{generate, CorpusConfig};

    #[test]
    fn prepares_and_splits() {
        let corpus = generate(&CorpusConfig {
            files: 12,
            seed: 1,
            ..CorpusConfig::default()
        });
        let prepared = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 0);
        // Duplicates removed; everything else parses.
        assert!(prepared.files.len() >= 10);
        assert!(prepared.files.len() <= 12);
        let n = prepared.files.len();
        assert_eq!(
            prepared.split.train.len() + prepared.split.valid.len() + prepared.split.test.len(),
            n
        );
        for f in &prepared.files {
            assert!(f.graph.node_count() > 0, "{} has an empty graph", f.name);
        }
    }

    #[test]
    fn broken_files_are_quarantined_with_typed_reasons() {
        // Good files interleaved with the broken and empty ones, so
        // several pool stripes get work and order has to be restored.
        let named = [
            ("good_a.py", "def a(x: int) -> int:\n    return x\n"),
            ("broken.py", "def f(:\n"),
            ("good_b.py", "def b(s: str) -> str:\n    return s.upper()\n"),
            ("good_c.py", "class C:\n    n: float = 1.5\n"),
            ("empty.py", ""),
            ("good_d.py", "def d(xs: list) -> int:\n    return len(xs)\n"),
            ("good_e.py", "flag: bool = True\nlimit: int = 10\n"),
        ];
        let prepared = PreparedCorpus::from_sources(&named, &GraphConfig::default(), 0);
        let names: Vec<&str> = prepared.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "good_a.py",
                "good_b.py",
                "good_c.py",
                "good_d.py",
                "good_e.py"
            ],
            "files must come back in input order"
        );
        assert_eq!(prepared.quarantine.len(), 2);
        assert!(matches!(
            prepared.quarantine.skipped.get("broken.py"),
            Some(SkipReason::ParseError(_))
        ));
        assert_eq!(
            prepared.quarantine.skipped.get("empty.py"),
            Some(&SkipReason::EmptyGraph)
        );
        assert_eq!(prepared.quarantine.parse_errors(), 1);
        assert_eq!(prepared.quarantine.empty_graphs(), 1);
        assert_eq!(
            prepared.quarantine.summary(),
            "2 files quarantined (1 parse errors, 1 empty graphs, 0 not UTF-8)"
        );
    }

    #[test]
    fn clean_corpus_has_empty_quarantine() {
        let corpus = generate(&CorpusConfig {
            files: 8,
            seed: 2,
            ..CorpusConfig::default()
        });
        let prepared = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 0);
        assert!(prepared.quarantine.is_empty());
    }

    #[test]
    fn classes_registered() {
        let corpus = generate(&CorpusConfig {
            files: 12,
            seed: 1,
            ..CorpusConfig::default()
        });
        let prepared = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 0);
        let mut h = TypeHierarchy::new();
        prepared.register_classes(&mut h);
        let classes = corpus.universe.user_classes();
        let known = classes.iter().filter(|c| h.contains(c)).count();
        assert!(known > 0, "at least some user classes registered");
    }
}
