//! The determinism matrix: one seed gives one model. A single-threaded
//! baseline run is reproduced byte for byte — serialized system, every
//! candidate of every test-split prediction with its probability bits,
//! and the evaluation match rates — by every other way to run the same
//! seed: more worker threads (for both the Typilus and the
//! classification loss), the naive reference kernels, each selectable
//! SIMD tile width, and a run killed after epoch 0 and resumed from its
//! checkpoint. The sharded TypeSpace index built over the baseline's
//! τ-map has the same payload bytes and serves the same predictions at
//! any pool size.
//!
//! Kernel mode and SIMD width are process-global, so the matrix is the
//! only test in this binary that sets them.

use typilus::{
    evaluate_files, table2_row, train, train_with_options, EncoderKind, LossKind, ModelConfig,
    Parallelism, PreparedCorpus, RpForestConfig, SpaceConfig, TrainError, TrainOptions,
    TrainedSystem, TypilusConfig,
};
use typilus_corpus::{generate, CorpusConfig};
use typilus_nn::{
    arena_stats, available_widths, set_kernel_mode, set_simd_width, simd_width, KernelMode,
};

const SEED: u64 = 7;

fn corpus() -> PreparedCorpus {
    let corpus = generate(&CorpusConfig {
        files: 16,
        seed: SEED,
        ..CorpusConfig::default()
    });
    PreparedCorpus::from_corpus(&corpus, &typilus::GraphConfig::default(), SEED)
}

fn config(loss: LossKind, threads: usize, seed: u64) -> TypilusConfig {
    TypilusConfig {
        model: ModelConfig {
            encoder: EncoderKind::Graph,
            loss,
            dim: 12,
            gnn_steps: 2,
            min_subtoken_count: 1,
            seed,
            ..ModelConfig::default()
        },
        epochs: 2,
        batch_size: 8,
        lr: 0.02,
        seed,
        parallelism: Parallelism::fixed(threads),
        ..TypilusConfig::default()
    }
}

/// Everything a run produces that a seed must pin down.
struct Fingerprint {
    /// [`TrainedSystem::to_bytes`]: weights, τ-map markers, per-epoch
    /// losses and config.
    model: Vec<u8>,
    /// One line per test-split symbol: every candidate type with the
    /// bits of its probability.
    predictions: Vec<String>,
    /// The Table 2 match rates over the test split.
    eval: String,
}

fn predictions(system: &TrainedSystem, data: &PreparedCorpus) -> Vec<String> {
    system
        .predict_files(data, &data.split.test)
        .into_iter()
        .flatten()
        .map(|p| {
            let candidates: Vec<String> = p
                .candidates
                .iter()
                .map(|c| format!("{}={:08x}", c.ty, c.probability.to_bits()))
                .collect();
            format!("{}:{:?}: {}", p.name, p.kind, candidates.join(", "))
        })
        .collect()
}

fn fingerprint(system: &TrainedSystem, data: &PreparedCorpus) -> Fingerprint {
    let examples = evaluate_files(system, data, &data.split.test);
    let row = table2_row(&examples, &system.hierarchy, system.config.common_threshold);
    Fingerprint {
        model: system.to_bytes().expect("serialize trained system"),
        predictions: predictions(system, data),
        eval: format!("{row:?}"),
    }
}

/// Asserts `run` reproduces `base`, naming the leg and the first
/// difference instead of dumping both artifacts.
fn assert_same(base: &Fingerprint, run: &Fingerprint, leg: &str) {
    assert!(
        base.model == run.model,
        "{leg}: serialized system differs from the 1-thread baseline"
    );
    assert_eq!(
        base.predictions.len(),
        run.predictions.len(),
        "{leg}: prediction count differs"
    );
    for (a, b) in base.predictions.iter().zip(&run.predictions) {
        assert_eq!(a, b, "{leg}: prediction differs");
    }
    assert_eq!(base.eval, run.eval, "{leg}: match rates differ");
}

/// Trains with a checkpoint after every epoch, dies right after epoch
/// 0, and resumes from the checkpoint.
fn killed_and_resumed(data: &PreparedCorpus, config: &TypilusConfig) -> TrainedSystem {
    let dir = std::env::temp_dir().join(format!("typilus_determinism_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let killed = train_with_options(
        data,
        config,
        &TrainOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: false,
            kill_after_epoch: Some(0),
        },
    );
    assert!(
        matches!(killed, Err(TrainError::Killed { epoch: 0 })),
        "the kill after epoch 0 fires"
    );
    let resumed = train_with_options(
        data,
        config,
        &TrainOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            kill_after_epoch: None,
        },
    )
    .expect("resumed run completes");
    std::fs::remove_dir_all(&dir).ok();
    resumed
}

/// Builds the sharded index over a fresh copy of the serialized
/// `model` on a `threads`-worker pool and sweeps its checksums: the
/// index payload bytes and the test-split predictions served through
/// it.
fn sharded(
    model: &[u8],
    data: &PreparedCorpus,
    shards: usize,
    threads: usize,
) -> (Vec<u8>, Vec<String>) {
    let mut system = TrainedSystem::from_bytes(model).expect("load baseline system");
    system.config.parallelism = Parallelism::fixed(threads);
    let space = SpaceConfig {
        shards,
        forest: RpForestConfig {
            trees: 8,
            search_k: 64,
            ..RpForestConfig::default()
        },
        ..SpaceConfig::default()
    };
    let pool = system.pool.get_or_create(|| threads);
    system
        .type_map
        .build_sharded_index(&space, SEED, Some(pool))
        .expect("sharded build");
    let index = system.type_map.space_index().expect("index attached");
    assert_eq!(index.shard_count(), shards, "built {shards} shards");
    index
        .verify()
        .expect("the built payload passes its checksum sweep");
    let payload = index.payload().to_vec();
    (payload, predictions(&system, data))
}

#[test]
fn identical_seeds_reproduce_everything() {
    let data = corpus();
    set_kernel_mode(KernelMode::Fast);
    let before = arena_stats();
    let base_system = train(&data, &config(LossKind::Typilus, 1, SEED));
    // The recycling arena must really recycle, or the legs below would
    // not test it.
    let arena = arena_stats().since(&before);
    assert!(arena.reused > 0, "arena pool saw no reuse during training");
    assert!(arena.recycled > 0, "no buffers were returned to the arena");
    let base = fingerprint(&base_system, &data);
    assert!(
        !base.predictions.is_empty(),
        "the test split has predictions"
    );

    let class_base = fingerprint(&train(&data, &config(LossKind::Class, 1, SEED)), &data);
    for (loss, reference) in [(LossKind::Typilus, &base), (LossKind::Class, &class_base)] {
        for threads in [2, 4, 7] {
            let system = train(&data, &config(loss, threads, SEED));
            assert_same(
                reference,
                &fingerprint(&system, &data),
                &format!("{loss:?} loss at {threads} threads"),
            );
        }
    }

    set_kernel_mode(KernelMode::Naive);
    let naive = fingerprint(&train(&data, &config(LossKind::Typilus, 2, SEED)), &data);
    set_kernel_mode(KernelMode::Fast);
    assert_same(&base, &naive, "naive kernels");

    let detected = simd_width();
    let widths = available_widths();
    for &width in &widths {
        set_simd_width(width);
        let system = train(&data, &config(LossKind::Typilus, 2, SEED));
        assert_same(
            &base,
            &fingerprint(&system, &data),
            &format!("SIMD width {}", width.name()),
        );
    }
    set_simd_width(widths[0]);
    let resumed = killed_and_resumed(&data, &config(LossKind::Typilus, 2, SEED));
    set_simd_width(detected);
    assert_same(
        &base,
        &fingerprint(&resumed, &data),
        &format!("resume after epoch 0 at SIMD width {}", widths[0].name()),
    );

    for shards in [1, 6] {
        let (payload, served) = sharded(&base.model, &data, shards, 1);
        let (pooled_payload, pooled_served) = sharded(&base.model, &data, shards, 4);
        assert!(
            payload == pooled_payload,
            "{shards}-shard index payload differs between pool sizes 1 and 4"
        );
        assert_eq!(
            served, pooled_served,
            "{shards}-shard index serves different predictions at pool sizes 1 and 4"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let data = corpus();
    let a = train(&data, &config(LossKind::Typilus, 1, SEED));
    let b = train(&data, &config(LossKind::Typilus, 1, SEED + 1));
    assert!(
        a.to_bytes().expect("serialize") != b.to_bytes().expect("serialize"),
        "another seed must train another model"
    );
}
