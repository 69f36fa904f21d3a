//! Sharded, pool-parallel construction of the TypeSpace forest.
//!
//! The forest's trees are statistically independent — each is grown
//! from its own slice of an RNG stream — so the natural unit of
//! parallelism is a *shard*: a group of trees built from one
//! deterministic seed derived from `(base seed, shard number)` with a
//! splitmix64 mix. Shards build concurrently on the
//! [`typilus_nn::WorkerPool`]'s `map_ordered` (stride assignment,
//! ordered reduction), so the resulting tree sets — and the on-disk
//! bytes serialized from them — are identical at any thread count,
//! including a serial build with no pool at all. The benchmark and
//! the determinism matrix test (`tests/determinism.rs`) assert this
//! byte-identity.

use crate::index::{PointStore, RpForestConfig, TreeBuilder, TreeNode};
use serde::{Deserialize, Serialize};
use typilus_nn::WorkerPool;

/// Configuration of the sharded TypeSpace index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpaceConfig {
    /// Number of tree groups built (and checksummed) independently;
    /// also the grain of build parallelism. Clamped up to 1; one shard
    /// is a plain single-group forest.
    pub shards: usize,
    /// Per-tree construction and search parameters.
    pub forest: RpForestConfig,
    /// Overlay markers accumulated before [`crate::TypeMap`] triggers
    /// an automatic deterministic rebuild of the sharded index.
    pub rebuild_threshold: usize,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            shards: 8,
            forest: RpForestConfig::default(),
            rebuild_threshold: 1024,
        }
    }
}

/// Finalizer of the splitmix64 generator — a full-avalanche mix, so
/// neighbouring shard numbers land in unrelated RNG streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG seed of shard `shard` under base seed `seed`. Pure data —
/// independent of thread count or build order.
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix64(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Distributes `trees` trees over `shards` shards: `trees / shards`
/// each, with the remainder going to the first shards.
pub(crate) fn tree_counts(trees: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let base = trees / shards;
    let extra = trees % shards;
    (0..shards).map(|s| base + usize::from(s < extra)).collect()
}

/// One shard's trees: a node arena plus the root of each tree.
pub(crate) struct ShardTrees {
    pub(crate) nodes: Vec<TreeNode>,
    pub(crate) roots: Vec<usize>,
}

/// Builds one shard's tree group serially.
pub(crate) fn build_shard(
    points: &PointStore,
    config: RpForestConfig,
    trees: usize,
    seed: u64,
) -> ShardTrees {
    let mut builder = TreeBuilder::new(points, config);
    builder.build_trees(trees, seed);
    ShardTrees {
        nodes: builder.nodes,
        roots: builder.roots,
    }
}

/// Builds every shard — on the pool when one is given, serially
/// otherwise. Output is a pure function of `(points, config, seed)`:
/// each shard's seed is derived from its shard *number*, and
/// `map_ordered` returns results in input order, so the two paths are
/// interchangeable bit-for-bit.
pub(crate) fn build_shards(
    points: &PointStore,
    config: &SpaceConfig,
    seed: u64,
    pool: Option<&WorkerPool>,
) -> Vec<ShardTrees> {
    let specs: Vec<(usize, usize)> = tree_counts(config.forest.trees, config.shards)
        .into_iter()
        .enumerate()
        .collect();
    match pool {
        Some(pool) => pool.map_ordered(&specs, |_, &(s, trees)| {
            build_shard(points, config.forest, trees, shard_seed(seed, s))
        }),
        None => specs
            .iter()
            .map(|&(s, trees)| build_shard(points, config.forest, trees, shard_seed(seed, s)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_distribution_covers_all_trees() {
        assert_eq!(tree_counts(12, 4), vec![3, 3, 3, 3]);
        assert_eq!(tree_counts(13, 4), vec![4, 3, 3, 3]);
        assert_eq!(tree_counts(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(tree_counts(5, 0), vec![5]);
        for (trees, shards) in [(12, 4), (7, 3), (1, 8), (0, 2)] {
            assert_eq!(tree_counts(trees, shards).iter().sum::<usize>(), trees);
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a = shard_seed(42, 0);
        assert_eq!(a, shard_seed(42, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..16).map(|s| shard_seed(42, s)).collect();
        assert_eq!(seeds.len(), 16, "shard seeds must not collide");
        assert_ne!(shard_seed(42, 0), shard_seed(43, 0));
    }

    #[test]
    fn pooled_build_equals_serial_build() {
        let mut points = PointStore::new(4);
        let mut state = 7u64;
        for _ in 0..200 {
            let row: Vec<f32> = (0..4)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                })
                .collect();
            points.push(&row);
        }
        let config = SpaceConfig {
            shards: 4,
            forest: RpForestConfig {
                trees: 6,
                leaf_size: 8,
                search_k: 64,
            },
            rebuild_threshold: 64,
        };
        let serial = build_shards(&points, &config, 9, None);
        let pool = WorkerPool::new(3);
        let pooled = build_shards(&points, &config, 9, Some(&pool));
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.roots, b.roots);
            assert_eq!(a.nodes.len(), b.nodes.len());
        }
    }
}
