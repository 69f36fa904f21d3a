//! CLI subcommand implementations.

use crate::args::{Accepts, ArgError, Args};
use std::error::Error;
use std::path::Path;
use typilus::{
    evaluate_files, open_space_index, space_sidecar_path, table2_row, train_with_options,
    Aggregation, CheckerProfile, EncoderKind, GraphConfig, KnnConfig, LossKind, ModelConfig,
    NodeInit, Parallelism, PreparedCorpus, RpForestConfig, SkipReason, SpaceConfig, TrainOptions,
    TrainedSystem, TypilusConfig,
};
use typilus_check::TypeChecker;
use typilus_corpus::{generate, CorpusConfig};
use typilus_serve::{Client, ClientOptions, Endpoint, Response, ServeOptions, Server};

type CmdResult = Result<(), Box<dyn Error>>;

/// One subcommand: the options and flags it accepts, and its body.
pub struct Command {
    /// What the subcommand accepts; anything else is a usage error.
    pub accepts: Accepts,
    /// Runs the subcommand on its parsed arguments.
    pub run: fn(&Args) -> CmdResult,
}

/// Every subcommand, with exactly the options [`usage`] lists for it.
const COMMANDS: &[Command] = &[
    Command {
        accepts: Accepts {
            command: "gen-corpus",
            options: "out files seed error-rate",
            flags: "",
        },
        run: gen_corpus,
    },
    Command {
        accepts: Accepts {
            command: "train",
            options: "corpus model encoder loss epochs dim gnn-steps lr seed threads knn-k knn-p \
                      checkpoint-dir",
            flags: "profile resume",
        },
        run: train_cmd,
    },
    Command {
        accepts: Accepts {
            command: "predict",
            options: "model top min-confidence out",
            flags: "check",
        },
        run: predict_cmd,
    },
    Command {
        accepts: Accepts {
            command: "eval",
            options: "model corpus common threads",
            flags: "",
        },
        run: eval_cmd,
    },
    Command {
        accepts: Accepts {
            command: "audit",
            options: "model corpus min-confidence",
            flags: "",
        },
        run: audit_cmd,
    },
    Command {
        accepts: Accepts {
            command: "index",
            options: "model shards trees leaf-size search-k rebuild-threshold seed threads",
            flags: "info verify",
        },
        run: index_cmd,
    },
    Command {
        accepts: Accepts {
            command: "serve",
            options: "model addr socket batch-max batch-bytes-max queue-max timeout-ms threads",
            flags: "",
        },
        run: serve_cmd,
    },
    Command {
        accepts: Accepts {
            command: "query",
            options: "addr socket top min-confidence out timeout-ms add-symbol add-type",
            flags: "retry stats reindex drain shutdown",
        },
        run: query_cmd,
    },
];

/// The subcommand called `name`.
pub fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.accepts.command == name)
}

/// Prints usage and exits the dispatcher cleanly.
pub fn usage() {
    eprintln!(
        "\
typilus — neural type hints for Python (Typilus, PLDI 2020, in Rust)

USAGE:
  typilus gen-corpus --out DIR [--files N] [--seed S] [--error-rate F]
  typilus train      --corpus DIR --model OUT [--encoder graph|seq|path|transformer]
                     [--loss class|space|typilus] [--epochs N] [--dim D]
                     [--gnn-steps T] [--lr F] [--seed S] [--threads N]
                     [--knn-k K] [--knn-p P] [--profile]
                     [--checkpoint-dir DIR] [--resume]
  typilus predict    --model FILE [--top K] [--min-confidence F] [--check]
                     [--out FILE] PY_FILE...
  typilus eval       --model FILE --corpus DIR [--common N] [--threads N]
  typilus audit      --model FILE --corpus DIR [--min-confidence F]
  typilus index      --model FILE [--info | --verify] [--shards N] [--trees N]
                     [--leaf-size N] [--search-k N] [--rebuild-threshold N]
                     [--seed S] [--threads N]
  typilus serve      --model FILE (--addr HOST:PORT | --socket PATH)
                     [--batch-max N] [--batch-bytes-max N] [--queue-max N]
                     [--timeout-ms N] [--threads N]
  typilus query      (--addr HOST:PORT | --socket PATH) [--top K]
                     [--min-confidence F] [--out FILE] [--retry]
                     [--timeout-ms N] PY_FILE...
  typilus query      ... --add-symbol NAME --add-type TYPE PY_FILE
  typilus query      ... (--stats | --reindex | --drain | --shutdown)

Corpora are directories of .py files. Models are .typilus artefacts
written by `train` (see typilus::TrainedSystem::save). A command
rejects any option it does not list above (exit code 2).

Training, corpus preparation and evaluation fan per-file work across a
persistent worker pool; results are bit-identical for every thread
count. --threads 0 (the default) auto-detects: the TYPILUS_THREADS
environment variable if set, otherwise the number of available CPU
cores. A malformed TYPILUS_THREADS (anything but a positive integer) is
a configuration error.

--knn-k / --knn-p set the kNN prediction parameters of Eq. 5 (k
nearest markers, distance exponent p); k must be positive and p
non-negative.

`train` leaves the TypeSpace on exact (brute-force) kNN search.
`typilus index` builds the approximate index of a trained model:
--shards groups of random-projection trees built in parallel, persisted
as an mmap-able `MODEL.space` sidecar that loads in O(header) and
serves zero-copy (--shards 1 is a single forest).
--shards/--trees/--leaf-size/--search-k/--rebuild-threshold/--seed tune
it. The sidecar's header records them: each option left out defaults
to the attached sidecar's value (to the model's defaults on a first
build), and every automatic or served rebuild reuses them. --info
prints the header, --verify additionally sweeps the checksums. The
sidecar bytes are identical at any --threads value.

`train --profile` switches on the per-op profiler and prints arena
allocation counters and a per-op kernel time/volume table after
training.

Crash safety: with --checkpoint-dir, train writes an atomic,
checksummed checkpoint after every epoch; --resume restarts from the
newest valid checkpoint (corrupt ones are reported and skipped) and
produces byte-identical artifacts to an uninterrupted run.

`typilus serve` keeps a loaded model resident and answers requests over
a length-prefixed binary protocol: the sidecar mmap, worker pool and
prediction scratch stay warm across requests, and concurrent predicts
are batched into single pooled forward passes — replies are
byte-identical to one-shot `typilus predict` output at any client or
thread count. Serving never writes an artifact; kill it at any moment.
A panic anywhere in the engine is supervised: the affected requests
get a typed `internal` error, the worker scratch is rebuilt, repeat
offenders are quarantined, and the daemon keeps serving — `--stats`
reports the health (ok/degraded/draining) and recovery counters.
--batch-bytes-max caps the source bytes drained into one engine pass.
`typilus query` is the matching client: predict files, bind one
open-vocabulary marker (--add-symbol/--add-type), or ask for --stats,
--reindex (in-memory index rebuild from the sidecar's recorded
options), --drain (stop accepting new
connections), --shutdown. --retry turns on resilient transport:
connect/read/write timeouts, reconnect with bounded exponential
backoff and deterministic jitter, retries for idempotent requests
only (never --add-symbol). --timeout-ms bounds the whole query.

Unparseable, empty or non-UTF-8 .py files never abort a run: they are
quarantined, counted and named on stderr, and the rest of the corpus
proceeds. `predict` and `query` likewise skip a non-UTF-8 PY_FILE with
a warning that names it and report on the rest."
    );
}

/// A corpus file's name, and its source or why it has none.
type CorpusFile = (String, Result<String, SkipReason>);

/// Reads a Python source: its text, or [`SkipReason::NotUtf8`] when
/// its bytes are not UTF-8.
fn read_source(path: &Path) -> std::io::Result<Result<String, SkipReason>> {
    Ok(
        String::from_utf8(std::fs::read(path)?).map_err(|e| SkipReason::NotUtf8 {
            valid_up_to: e.utf8_error().valid_up_to(),
        }),
    )
}

/// Reads one PY_FILE of `predict` or `query`. A file that is not UTF-8
/// is skipped (`None`) with the warning corpus loading gives for it.
fn read_py_file(file: &str) -> Result<Option<String>, Box<dyn Error>> {
    match read_source(Path::new(file)).map_err(|e| format!("{file}: {e}"))? {
        Ok(source) => Ok(Some(source)),
        Err(reason) => {
            eprintln!("warning: skipped {file}: {reason}");
            Ok(None)
        }
    }
}

/// Reads all `.py` files under `dir` (one level or nested), sorted by
/// name. A file that is not valid UTF-8 comes back as its quarantine
/// reason instead of its source.
fn read_corpus_dir(dir: &str) -> Result<Vec<CorpusFile>, Box<dyn Error>> {
    let mut out = Vec::new();
    fn walk(dir: &Path, out: &mut Vec<CorpusFile>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "py") {
                let source = read_source(&path)?;
                out.push((path.display().to_string(), source));
            }
        }
        Ok(())
    }
    walk(Path::new(dir), &mut out)?;
    if out.is_empty() {
        return Err(format!("no .py files found under {dir}").into());
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn load_prepared(
    dir: &str,
    graph: &GraphConfig,
    seed: u64,
) -> Result<PreparedCorpus, Box<dyn Error>> {
    let files = read_corpus_dir(dir)?;
    let named: Vec<(&str, &str)> = files
        .iter()
        .filter_map(|(n, s)| Some((n.as_str(), s.as_ref().ok()?.as_str())))
        .collect();
    let mut data = PreparedCorpus::from_sources(&named, graph, seed);
    for (name, source) in files {
        if let Err(reason) = source {
            data.quarantine.skipped.insert(name, reason);
        }
    }
    eprintln!(
        "loaded {} files from {dir} ({} train / {} valid / {} test)",
        data.files.len(),
        data.split.train.len(),
        data.split.valid.len(),
        data.split.test.len()
    );
    if !data.quarantine.is_empty() {
        eprintln!("warning: {}", data.quarantine.summary());
        for (name, reason) in &data.quarantine.skipped {
            eprintln!("  skipped {name}: {reason}");
        }
    }
    Ok(data)
}

/// `typilus gen-corpus`
pub fn gen_corpus(args: &Args) -> CmdResult {
    let out_dir = args.require("out")?;
    let files = args.get_parsed("files", 120usize)?;
    let seed = args.get_parsed("seed", 0u64)?;
    let error_rate = args.get_parsed("error-rate", 0.0f64)?;
    let corpus = generate(&CorpusConfig {
        files,
        seed,
        error_rate,
        ..CorpusConfig::default()
    });
    for f in &corpus.files {
        let path = Path::new(out_dir).join(&f.name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        typilus::atomic_io::write_atomic(&path, f.source.as_bytes())?;
    }
    let planted: usize = corpus.files.iter().map(|f| f.injected_errors.len()).sum();
    println!(
        "wrote {} files to {out_dir} ({} planted annotation errors)",
        corpus.files.len(),
        planted
    );
    Ok(())
}

fn encoder_from(name: &str) -> Result<EncoderKind, ArgError> {
    Ok(match name {
        "graph" => EncoderKind::Graph,
        "seq" => EncoderKind::Seq,
        "path" => EncoderKind::Path,
        "transformer" => EncoderKind::Transformer,
        other => return Err(ArgError(format!("unknown encoder {other:?}"))),
    })
}

fn loss_from(name: &str) -> Result<LossKind, ArgError> {
    Ok(match name {
        "class" => LossKind::Class,
        "space" => LossKind::Space,
        "typilus" => LossKind::Typilus,
        other => return Err(ArgError(format!("unknown loss {other:?}"))),
    })
}

/// `typilus train`
pub fn train_cmd(args: &Args) -> CmdResult {
    let corpus_dir = args.require("corpus")?;
    let model_path = args.require("model")?.to_string();
    let seed = args.get_parsed("seed", 0u64)?;
    let parallelism = Parallelism::fixed(args.get_parsed("threads", 0usize)?);
    // Surface a malformed TYPILUS_THREADS as a config error up front,
    // before any corpus loading or training happens.
    parallelism.try_resolve()?;
    let knn = KnnConfig {
        k: args.get_parsed("knn-k", KnnConfig::default().k)?,
        p: args.get_parsed("knn-p", KnnConfig::default().p)?,
    };
    knn.validate()?;
    let graph = GraphConfig::default();
    let data = load_prepared(corpus_dir, &graph, seed)?;
    let config = TypilusConfig {
        model: ModelConfig {
            encoder: encoder_from(args.get("encoder").unwrap_or("graph"))?,
            loss: loss_from(args.get("loss").unwrap_or("typilus"))?,
            dim: args.get_parsed("dim", 32usize)?,
            gnn_steps: args.get_parsed("gnn-steps", 8usize)?,
            node_init: NodeInit::Subtoken,
            aggregation: Aggregation::Max,
            seed,
            ..ModelConfig::default()
        },
        graph,
        epochs: args.get_parsed("epochs", 15usize)?,
        batch_size: 8,
        lr: args.get_parsed("lr", 0.015f32)?,
        knn,
        approximate_index: false,
        space: SpaceConfig::default(),
        common_threshold: 15,
        seed,
        parallelism,
    };
    let profile = args.has_flag("profile");
    if profile {
        typilus_nn::reset_profile();
        typilus_nn::reset_arena_stats();
        typilus_nn::set_profiling(true);
    }
    let opts = TrainOptions {
        checkpoint_dir: args.get("checkpoint-dir").map(Into::into),
        resume: args.has_flag("resume"),
        ..TrainOptions::default()
    };
    let system = train_with_options(&data, &config, &opts)?;
    for e in &system.epochs {
        eprintln!(
            "epoch {:>3}: loss {:.4} ({:.1}s)",
            e.epoch, e.mean_loss, e.seconds
        );
    }
    if profile {
        typilus_nn::set_profiling(false);
        let stats = typilus_nn::arena_stats();
        eprintln!(
            "arena: {} fresh allocations, {} reused buffers, {} recycled ({:.1}% reuse)",
            stats.fresh,
            stats.reused,
            stats.recycled,
            100.0 * stats.reused as f64 / (stats.fresh + stats.reused).max(1) as f64
        );
        eprintln!("{}", typilus_nn::profile_report());
    }
    system.save(&model_path)?;
    println!(
        "saved model to {model_path} ({} weights, {} type-map markers, {} distinct types)",
        system.model.params.scalar_count(),
        system.type_map.len(),
        system.type_map.distinct_types()
    );
    Ok(())
}

/// The sharded-index knobs of `typilus index`, defaulted from `base`.
fn space_config_from(args: &Args, base: SpaceConfig) -> Result<SpaceConfig, ArgError> {
    Ok(SpaceConfig {
        shards: args.get_parsed("shards", base.shards)?,
        forest: RpForestConfig {
            trees: args.get_parsed("trees", base.forest.trees)?,
            leaf_size: args.get_parsed("leaf-size", base.forest.leaf_size)?,
            search_k: args.get_parsed("search-k", base.forest.search_k)?,
        },
        rebuild_threshold: args.get_parsed("rebuild-threshold", base.rebuild_threshold)?,
    })
}

/// `typilus index` — build, inspect or verify a model's sharded
/// TypeSpace index sidecar.
pub fn index_cmd(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let sidecar = space_sidecar_path(model_path);
    if args.has_flag("info") || args.has_flag("verify") {
        let index = open_space_index(&sidecar)?;
        if args.has_flag("verify") {
            index.verify()?;
        }
        let config = index.config();
        println!(
            "sidecar {}: {} markers (dim {}), {} shards, {} trees \
             (leaf size {}, search-k {}), rebuild threshold {}, seed {}, \
             file id {:016x}{}",
            sidecar.display(),
            index.len(),
            index.dim(),
            index.shard_count(),
            config.forest.trees,
            config.forest.leaf_size,
            config.forest.search_k,
            config.rebuild_threshold,
            index.seed(),
            index.file_id(),
            if args.has_flag("verify") {
                " [checksums verified]"
            } else {
                ""
            }
        );
        return Ok(());
    }
    let mut system = TrainedSystem::load(model_path)?;
    // Options left out default to the attached sidecar's header, the
    // same rule every rebuild follows; a model with no index attached
    // takes its first build from its config.
    let (base, base_seed) = system
        .type_map
        .index_params()
        .unwrap_or((system.config.space, system.config.seed));
    let config = space_config_from(args, base)?;
    let seed = args.get_parsed("seed", base_seed)?;
    if args.get("threads").is_some() {
        system.config.parallelism = Parallelism::fixed(args.get_parsed("threads", 0usize)?);
        system.config.parallelism.try_resolve()?;
    }
    // The model's config records that its index is sharded and the
    // knobs of this build; rebuilds read them from the sidecar header.
    // The artifact stays byte-identical at any --threads value: the
    // thread policy serializes as auto-detect, and the sharded build
    // itself is thread-count independent.
    system.config.space = config;
    system.config.approximate_index = true;
    let threads = system.config.parallelism.resolve();
    let pool = system.pool.get_or_create(|| threads);
    system
        .type_map
        .build_sharded_index(&config, seed, Some(pool))?;
    system.save(model_path)?;
    let index = system
        .type_map
        .space_index()
        .ok_or("internal error: sharded index absent right after a successful build")?;
    println!(
        "indexed {} markers into {} shards ({} trees); sidecar {} ({} bytes, file id {:016x})",
        index.len(),
        index.shard_count(),
        config.forest.trees,
        sidecar.display(),
        index.payload().len(),
        index.file_id()
    );
    Ok(())
}

/// One renderable candidate: display type, probability, and the
/// checker verdict suffix (`""` when the checker did not run).
struct RenderEntry {
    ty: String,
    probability: f32,
    verdict: &'static str,
}

/// One renderable symbol row of a prediction report.
struct RenderSymbol {
    name: String,
    kind: String,
    entries: Vec<RenderEntry>,
}

/// Renders one file's rows exactly the way `typilus predict` always
/// has. `typilus query` renders served [`SymbolHints`] through the same
/// function, which is what makes served reports byte-identical to
/// one-shot output.
fn render_file(
    report: &mut String,
    file: &str,
    symbols: &[RenderSymbol],
    top: usize,
    min_confidence: f32,
) -> Result<(), std::fmt::Error> {
    use std::fmt::Write as _;
    writeln!(report, "== {file}")?;
    for s in symbols {
        let confidence = s.entries.first().map(|e| e.probability).unwrap_or(0.0);
        if confidence < min_confidence {
            continue;
        }
        let shown: Vec<String> = s
            .entries
            .iter()
            .take(top)
            .map(|e| format!("{} (p={:.2}){}", e.ty, e.probability, e.verdict))
            .collect();
        if shown.is_empty() {
            continue;
        }
        writeln!(
            report,
            "  {:<20} {:<10} {}",
            s.name,
            s.kind,
            shown.join(", ")
        )?;
    }
    Ok(())
}

/// `typilus predict`
pub fn predict_cmd(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let top = args.get_parsed("top", 3usize)?;
    let min_confidence = args.get_parsed("min-confidence", 0.0f32)?;
    let run_checker = args.has_flag("check");
    let out_path = args.get("out");
    let files = &args.positionals()[1..];
    if files.is_empty() {
        return Err("predict needs at least one .py file".into());
    }
    let system = TrainedSystem::load(model_path)?;
    let checker = TypeChecker::new(CheckerProfile::Mypy);
    let mut report = String::new();
    for file in files {
        let Some(source) = read_py_file(file)? else {
            continue;
        };
        let predictions = system.predict_source(&source)?;
        // Only the checker filter needs the parsed module.
        let checked = if run_checker {
            let parsed = typilus_pyast::parse(&source)?;
            let table = typilus_pyast::SymbolTable::build(&parsed.module);
            Some((parsed, table))
        } else {
            None
        };
        let symbols: Vec<RenderSymbol> = predictions
            .iter()
            .map(|p| RenderSymbol {
                name: p.name.clone(),
                kind: format!("{:?}", p.kind),
                entries: p
                    .candidates
                    .iter()
                    .enumerate()
                    .map(|(i, c)| RenderEntry {
                        ty: c.ty.to_string(),
                        probability: c.probability,
                        // Only candidates within --top are shown, so
                        // only those pay for a checker pass.
                        verdict: match &checked {
                            Some((parsed, table)) if i < top && !c.ty.is_top() => {
                                let issues = checker.check_with_override(
                                    parsed,
                                    table,
                                    p.symbol,
                                    c.ty.clone(),
                                );
                                if issues.is_empty() {
                                    " [ok]"
                                } else {
                                    " [type error]"
                                }
                            }
                            _ => "",
                        },
                    })
                    .collect(),
            })
            .collect();
        render_file(&mut report, file, &symbols, top, min_confidence)?;
    }
    match out_path {
        // A prediction artifact on disk goes through the same
        // atomic-write path as models: no torn half-report on crash.
        Some(path) => typilus::atomic_io::write_atomic(Path::new(path), report.as_bytes())?,
        None => print!("{report}"),
    }
    Ok(())
}

/// Parses the endpoint flags shared by `serve` and `query`.
fn endpoint_from(args: &Args) -> Result<Endpoint, ArgError> {
    match (args.get("addr"), args.get("socket")) {
        (Some(addr), None) => Ok(Endpoint::Tcp(addr.to_string())),
        (None, Some(path)) => Ok(Endpoint::Unix(path.into())),
        (Some(_), Some(_)) => Err(ArgError("give --addr or --socket, not both".to_string())),
        (None, None) => Err(ArgError(
            "--addr HOST:PORT or --socket PATH is required".to_string(),
        )),
    }
}

/// Turns an error reply into the CLI's error type.
fn server_error(code: typilus_serve::ErrorCode, message: &str) -> Box<dyn Error> {
    format!("server error [{code}]: {message}").into()
}

/// `typilus serve` — the long-lived batched prediction daemon.
pub fn serve_cmd(args: &Args) -> CmdResult {
    use std::io::Write as _;
    let model_path = args.require("model")?;
    let endpoint = endpoint_from(args)?;
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        batch_max: args.get_parsed("batch-max", defaults.batch_max)?,
        batch_bytes_max: args.get_parsed("batch-bytes-max", defaults.batch_bytes_max)?,
        queue_max: args.get_parsed("queue-max", defaults.queue_max)?,
        timeout_ms: args.get_parsed("timeout-ms", defaults.timeout_ms)?,
    };
    let mut system = TrainedSystem::load(model_path)?;
    if args.get("threads").is_some() {
        system.config.parallelism = Parallelism::fixed(args.get_parsed("threads", 0usize)?);
        system.config.parallelism.try_resolve()?;
    }
    let server = Server::bind(&endpoint, options)?;
    // The readiness line goes to stdout and is flushed explicitly so
    // harnesses piping the output can wait on it.
    println!(
        "serving {model_path} on {} ({} markers, {} distinct types, index {})",
        server.endpoint(),
        system.type_map.len(),
        system.type_map.distinct_types(),
        system.type_map.index_kind()
    );
    std::io::stdout().flush()?;
    let s = server.run(&mut system);
    println!(
        "served {} requests ({} predictions, {} markers added, {} errors) \
         in {} batches (largest {})",
        s.requests, s.predicts, s.markers_added, s.errors, s.batches, s.largest_batch
    );
    if s.panics_recovered > 0 || s.quarantined > 0 || s.client_gone > 0 || s.write_faults > 0 {
        println!(
            "recovered {} engine panics ({} requests quarantined, \
             {} client-gone writes, {} write faults)",
            s.panics_recovered, s.quarantined, s.client_gone, s.write_faults
        );
    }
    Ok(())
}

/// `typilus query` — client for a running `typilus serve` daemon.
pub fn query_cmd(args: &Args) -> CmdResult {
    let endpoint = endpoint_from(args)?;
    // --retry opts into the resilient transport profile (timeouts,
    // reconnect with deterministic backoff, idempotent-only
    // retries); --timeout-ms bounds the whole query either way.
    let mut options = if args.has_flag("retry") {
        ClientOptions::default()
    } else {
        ClientOptions::blocking()
    };
    if args.get("timeout-ms").is_some() {
        let ms = args.get_parsed("timeout-ms", 0u64)?;
        options.deadline_ms = ms;
        if options.connect_timeout_ms == 0 {
            options.connect_timeout_ms = ms;
        }
        if options.read_timeout_ms == 0 {
            options.read_timeout_ms = ms;
        }
        if options.write_timeout_ms == 0 {
            options.write_timeout_ms = ms;
        }
    }
    let mut client = Client::connect_with(&endpoint, options)?;
    if args.has_flag("stats") {
        return match client.stats()? {
            Response::Stats(s) => {
                println!(
                    "type map: {} markers, {} distinct types, dim {}, index {} \
                     ({} overlay)",
                    s.markers, s.distinct_types, s.dim, s.index, s.overlay
                );
                println!(
                    "server: {} requests ({} predictions, {} markers added, {} errors) \
                     in {} batches (largest {})",
                    s.requests, s.predicts, s.markers_added, s.errors, s.batches, s.largest_batch
                );
                println!(
                    "health: {} ({} panics recovered, {} quarantined, \
                     {} client-gone writes, {} write faults)",
                    s.health, s.panics_recovered, s.quarantined, s.client_gone, s.write_faults
                );
                for (key, count) in &s.warnings {
                    println!("warning[{key}]: raised {count}x");
                }
                Ok(())
            }
            Response::Error { code, message } => Err(server_error(code, &message)),
            other => Err(format!("unexpected reply to stats: {other:?}").into()),
        };
    }
    if args.has_flag("reindex") {
        return match client.reindex()? {
            Response::Reindexed { markers, index } => {
                println!("reindexed {markers} markers (index {index}, in memory only)");
                Ok(())
            }
            Response::Error { code, message } => Err(server_error(code, &message)),
            other => Err(format!("unexpected reply to reindex: {other:?}").into()),
        };
    }
    if args.has_flag("drain") {
        return match client.drain()? {
            Response::Draining => {
                println!("server is draining (existing connections served, new ones refused)");
                Ok(())
            }
            Response::Error { code, message } => Err(server_error(code, &message)),
            other => Err(format!("unexpected reply to drain: {other:?}").into()),
        };
    }
    if args.has_flag("shutdown") {
        return match client.shutdown()? {
            Response::Bye => {
                println!("server shut down");
                Ok(())
            }
            Response::Error { code, message } => Err(server_error(code, &message)),
            other => Err(format!("unexpected reply to shutdown: {other:?}").into()),
        };
    }
    if args.get("add-symbol").is_some() || args.get("add-type").is_some() {
        let symbol = args.require("add-symbol")?;
        let ty = args.require("add-type")?;
        let file = args
            .positionals()
            .get(1)
            .ok_or("--add-symbol needs one PY_FILE with the binding snippet")?;
        // The one file is the whole request: a bad one is an error.
        let source = read_source(Path::new(file))
            .map_err(|e| format!("{file}: {e}"))?
            .map_err(|reason| format!("{file}: {reason}"))?;
        return match client.add_marker(&source, symbol, ty)? {
            Response::MarkerAdded { markers } => {
                println!("bound {symbol}: {ty} ({markers} markers, in memory only)");
                Ok(())
            }
            Response::Error { code, message } => Err(server_error(code, &message)),
            other => Err(format!("unexpected reply to add-marker: {other:?}").into()),
        };
    }
    let top = args.get_parsed("top", 3usize)?;
    let min_confidence = args.get_parsed("min-confidence", 0.0f32)?;
    let out_path = args.get("out");
    let files = &args.positionals()[1..];
    if files.is_empty() {
        return Err(
            "query needs at least one .py file (or --stats/--reindex/--drain/--shutdown)".into(),
        );
    }
    let mut report = String::new();
    for file in files {
        let Some(source) = read_py_file(file)? else {
            continue;
        };
        match client.predict(&source)? {
            Response::Predictions(symbols) => {
                let rows: Vec<RenderSymbol> = symbols
                    .iter()
                    .map(|s| RenderSymbol {
                        name: s.name.clone(),
                        kind: s.kind.clone(),
                        entries: s
                            .hints
                            .iter()
                            .map(|h| RenderEntry {
                                ty: h.ty.clone(),
                                probability: h.probability,
                                verdict: "",
                            })
                            .collect(),
                    })
                    .collect();
                render_file(&mut report, file, &rows, top, min_confidence)?;
            }
            Response::Error { code, message } => return Err(server_error(code, &message)),
            other => return Err(format!("unexpected reply to predict: {other:?}").into()),
        }
    }
    match out_path {
        Some(path) => typilus::atomic_io::write_atomic(Path::new(path), report.as_bytes())?,
        None => print!("{report}"),
    }
    Ok(())
}

/// `typilus eval`
pub fn eval_cmd(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let corpus_dir = args.require("corpus")?;
    let common = args.get_parsed("common", 15usize)?;
    let mut system = TrainedSystem::load(model_path)?;
    if args.get("threads").is_some() {
        system.config.parallelism = Parallelism::fixed(args.get_parsed("threads", 0usize)?);
        // The loaded system lazily builds its worker pool from this
        // config; reject a malformed TYPILUS_THREADS here rather than
        // mid-evaluation.
        system.config.parallelism.try_resolve()?;
    }
    let data = load_prepared(corpus_dir, &system.config.graph, system.config.seed)?;
    let examples = evaluate_files(&system, &data, &data.split.test);
    let row = table2_row(&examples, &system.hierarchy, common);
    println!(
        "evaluated {} annotated symbols from the test split",
        row.counts.0
    );
    println!(
        "  exact match:            {:>5.1}% (common {:.1}%, rare {:.1}%)",
        row.exact_all, row.exact_common, row.exact_rare
    );
    println!(
        "  match up to parametric: {:>5.1}% (common {:.1}%, rare {:.1}%)",
        row.para_all, row.para_common, row.para_rare
    );
    println!("  type neutral:           {:>5.1}%", row.neutral);
    Ok(())
}

/// `typilus audit`
pub fn audit_cmd(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let corpus_dir = args.require("corpus")?;
    let min_confidence = args.get_parsed("min-confidence", 0.8f32)?;
    let system = TrainedSystem::load(model_path)?;
    let data = load_prepared(corpus_dir, &system.config.graph, system.config.seed)?;
    let checker = TypeChecker::new(CheckerProfile::Mypy);
    let mut findings = 0usize;
    println!(
        "{:<40} {:<18} {:<18} {:<18} conf",
        "file", "symbol", "annotated", "predicted"
    );
    for (idx, file) in data.files.iter().enumerate() {
        for p in system.predict_file(&data, idx) {
            let (Some(original), Some(top)) = (&p.ground_truth, p.top()) else {
                continue;
            };
            if top.ty == *original || top.probability < min_confidence {
                continue;
            }
            let issues =
                checker.check_with_override(&file.parsed, &file.table, p.symbol, top.ty.clone());
            if issues.is_empty() {
                findings += 1;
                println!(
                    "{:<40} {:<18} {:<18} {:<18} {:.2}",
                    file.name,
                    p.name,
                    original.to_string(),
                    top.ty.to_string(),
                    top.probability
                );
            }
        }
    }
    println!("\n{findings} confident, type-checkable disagreements");
    Ok(())
}
