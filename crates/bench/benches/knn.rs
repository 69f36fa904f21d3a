//! TypeSpace query benchmarks: exact brute-force kNN vs the approximate
//! index, the zero-copy `SpaceIndex` over Annoy-style random-projection
//! trees (the paper uses Annoy to make τmap queries sub-linear), plus
//! the end-to-end Eq. 5 prediction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use typilus_space::{ExactIndex, KnnConfig, PointStore, SpaceConfig, SpaceIndex, TypeMap};
use typilus_types::PyType;

/// The default trees in one shard: a single forest.
fn one_shard() -> SpaceConfig {
    SpaceConfig {
        shards: 1,
        ..SpaceConfig::default()
    }
}

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn bench_index_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_query_k10");
    let dim = 32;
    for &n in &[1_000usize, 10_000, 50_000] {
        let points = random_points(n, dim, 1);
        let query: Vec<f32> = random_points(1, dim, 2).pop().expect("one point");
        let store = PointStore::from_rows(points);
        let names = vec![String::new(); n];
        let index = SpaceIndex::build(&store, &names, &one_shard(), 3, None).expect("index build");
        let exact = ExactIndex::from_store(store);
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| criterion::black_box(exact.query(&query, 10)));
        });
        group.bench_with_input(BenchmarkId::new("space_index", n), &n, |b, _| {
            b.iter(|| criterion::black_box(index.query(&query, 10)));
        });
    }
    group.finish();
}

fn bench_typemap_predict(c: &mut Criterion) {
    let dim = 32;
    let types: Vec<PyType> = ["int", "str", "bool", "List[int]", "Dict[str, int]"]
        .iter()
        .map(|s| s.parse().expect("valid type"))
        .collect();
    let points = random_points(20_000, dim, 7);
    let mut map = TypeMap::new(dim);
    for (i, p) in points.into_iter().enumerate() {
        map.add(p, types[i % types.len()].clone())
            .expect("fresh map accepts matching-dim points");
    }
    let query: Vec<f32> = random_points(1, dim, 8).pop().expect("one point");

    let mut group = c.benchmark_group("typemap_predict_eq5");
    group.bench_function("exact_20k", |b| {
        b.iter(|| criterion::black_box(map.predict(&query, KnnConfig::default())));
    });
    map.build_sharded_index(&one_shard(), 9, None)
        .expect("index build");
    group.bench_function("space_index_20k", |b| {
        b.iter(|| criterion::black_box(map.predict(&query, KnnConfig::default())));
    });
    group.finish();
}

criterion_group!(benches, bench_index_query, bench_typemap_predict);
criterion_main!(benches);
