//! Seeded inputs: the training corpus, the held-out request pool, the
//! request sequence and the `add-marker` writes. The same seed always
//! gives the same inputs; the program under test only ever sees them.

use std::collections::BTreeSet;
use typilus_corpus::{generate, CorpusConfig, UniverseConfig};

/// Salt separating the request pool's generator stream from the
/// training corpus'.
const POOL_SALT: u64 = 0x706f_6f6c_5f73_6565;
/// Salt of the write list's shuffle.
const WRITE_SALT: u64 = 0x7772_6974_6573;

/// splitmix64: a one-word, well-mixed generator for every seeded choice
/// the benchmark makes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.rotate_left(17));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 33)
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything a run feeds the system, generated from the seed.
pub struct Inputs {
    /// Training corpus as `(name, source)` pairs, near-duplicates
    /// included so preparation's dedup does real work.
    pub corpus: Vec<(String, String)>,
    /// Distinct held-out sources that requests are drawn from.
    pub pool: Vec<String>,
}

impl Inputs {
    /// Generates a corpus of `corpus_files` files from `corpus_seed` and
    /// a pool of `pool_files` distinct held-out files from `pool_seed`.
    /// The generator puts the universe's class definitions into the
    /// first files of a corpus; the pool is taken from past them, so
    /// its files are alike in size and cost.
    pub fn generate(
        corpus_seed: u64,
        pool_seed: u64,
        corpus_files: usize,
        pool_files: usize,
    ) -> Result<Inputs, String> {
        let corpus = generate(&CorpusConfig {
            files: corpus_files,
            seed: corpus_seed,
            ..CorpusConfig::default()
        });
        let skip = UniverseConfig::default().user_types;
        let held_out = generate(&CorpusConfig {
            files: skip + pool_files,
            seed: pool_seed ^ POOL_SALT,
            duplicate_rate: 0.0,
            ..CorpusConfig::default()
        });
        let mut seen = BTreeSet::new();
        let pool: Vec<String> = held_out
            .files
            .into_iter()
            .skip(skip)
            .map(|f| f.source)
            .filter(|s| seen.insert(s.clone()))
            .collect();
        if pool.len() < pool_files {
            return Err(format!(
                "request pool has {} distinct files, wanted {pool_files}",
                pool.len()
            ));
        }
        Ok(Inputs {
            corpus: corpus
                .files
                .into_iter()
                .map(|f| (f.name, f.source))
                .collect(),
            pool,
        })
    }
}

/// One `add-marker` write: bind the named symbol of a pool file to a
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Pool file the symbol is embedded from.
    pub file: usize,
    /// Symbol name.
    pub symbol: String,
    /// Type in display syntax.
    pub ty: String,
}

/// The seeded list of writes: every annotated symbol of the pool, in a
/// seeded order, bound to its own annotation. `annotated[f]` lists file
/// `f`'s `(symbol, type)` pairs.
pub fn write_list(seed: u64, annotated: &[Vec<(String, String)>]) -> Vec<WriteOp> {
    let mut writes: Vec<WriteOp> = annotated
        .iter()
        .enumerate()
        .flat_map(|(file, pairs)| {
            pairs.iter().map(move |(symbol, ty)| WriteOp {
                file,
                symbol: symbol.clone(),
                ty: ty.clone(),
            })
        })
        .collect();
    let mut rng = Rng::new(seed, WRITE_SALT);
    for i in (1..writes.len()).rev() {
        writes.swap(i, rng.below(i + 1));
    }
    writes
}

/// One operation of a caller's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Predict the pool file with this index.
    Predict(usize),
    /// Issue the `add-marker` write with this index.
    Write(usize),
}

/// A caller's seeded request sequence: pool files drawn uniformly, and
/// a write instead of a read with probability `write_share` while
/// writes remain.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    pool: usize,
    write_share: f64,
    next_write: usize,
    write_step: usize,
    writes_left: usize,
}

impl Stream {
    /// A stream over a pool of `pool` files. Writes take indices
    /// `first_write`, `first_write + write_step`, ... — disjoint index
    /// sets let several writers share one write list — and stop after
    /// `max_writes`.
    pub fn new(
        seed: u64,
        salt: u64,
        pool: usize,
        write_share: f64,
        first_write: usize,
        write_step: usize,
        max_writes: usize,
    ) -> Stream {
        Stream {
            rng: Rng::new(seed, salt),
            pool,
            write_share,
            next_write: first_write,
            write_step: write_step.max(1),
            writes_left: max_writes,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.unit();
        let file = self.rng.below(self.pool);
        if self.writes_left > 0 && roll < self.write_share {
            self.writes_left -= 1;
            let w = self.next_write;
            self.next_write += self.write_step;
            Op::Write(w)
        } else {
            Op::Predict(file)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed| {
            let mut s = Stream::new(seed, 1, 64, 0.1, 0, 1, 8);
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
        let ops = take(3);
        let writes: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write(w) => Some(*w),
                Op::Predict(_) => None,
            })
            .collect();
        assert!(!writes.is_empty() && writes.len() <= 8);
        assert_eq!(writes, (0..writes.len()).collect::<Vec<_>>());
        assert!(ops
            .iter()
            .all(|op| !matches!(op, Op::Predict(f) if *f >= 64)));
    }

    #[test]
    fn interleaved_writers_take_disjoint_indices() {
        let mut a = Stream::new(1, 2, 10, 1.0, 0, 2, 3);
        let mut b = Stream::new(1, 3, 10, 1.0, 1, 2, 3);
        let ops_a: Vec<Op> = (0..3).map(|_| a.next_op()).collect();
        let ops_b: Vec<Op> = (0..3).map(|_| b.next_op()).collect();
        assert_eq!(ops_a, vec![Op::Write(0), Op::Write(2), Op::Write(4)]);
        assert_eq!(ops_b, vec![Op::Write(1), Op::Write(3), Op::Write(5)]);
        assert!(matches!(a.next_op(), Op::Predict(_)));
    }

    #[test]
    fn write_list_is_a_seeded_permutation() {
        let annotated = vec![
            vec![("a".to_string(), "int".to_string())],
            vec![
                ("b".to_string(), "str".to_string()),
                ("c".to_string(), "bool".to_string()),
            ],
        ];
        let w = write_list(9, &annotated);
        assert_eq!(w, write_list(9, &annotated));
        let mut names: Vec<&str> = w.iter().map(|op| op.symbol.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(w.iter().all(|op| (op.symbol == "a") == (op.file == 0)));
    }

    #[test]
    fn inputs_are_seeded() {
        let a = Inputs::generate(5, 5, 6, 4).expect("generates");
        let b = Inputs::generate(5, 5, 6, 4).expect("generates");
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.corpus, b.corpus);
        assert!(a.corpus.len() >= 6);
        assert_eq!(a.pool.len(), 4);
        let c = Inputs::generate(5, 6, 6, 4).expect("generates");
        assert_ne!(a.pool, c.pool);
        assert_eq!(a.corpus, c.corpus);
        assert!(a.pool.iter().all(|s| !s.contains("class ")));
    }
}
