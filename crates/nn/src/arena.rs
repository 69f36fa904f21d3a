//! A thread-local buffer arena for tape tensors.
//!
//! Every tensor a [`crate::Tape`](crate::tape::Tape) materialises — op
//! outputs and gradient temporaries — is backed by a
//! `Vec<f32>` drawn from a per-thread pool of retired buffers. When a
//! tape is dropped or [`reset`](crate::tape::Tape::reset), its buffers
//! return to the pool, so a steady-state training loop (same model, same
//! batch shapes) stops allocating after the first step.
//!
//! Recycling is invisible to the numerics: a pooled buffer is always
//! fully reinitialised (zero-filled or overwritten) before use, so
//! results are bit-identical to fresh allocation. Pools are
//! thread-local, which keeps the hot allocate/recycle path of the
//! data-parallel engine free of cross-thread coordination; buffers
//! recycled on a worker thread simply join that worker's pool.
//!
//! A few buffers migrate between threads under the persistent
//! [`crate::pool::WorkerPool`]: a gradient computed on a worker is
//! merged — and its buffer retired — on the caller. Recycling those on
//! the caller would starve the workers' local pools, so the known
//! hand-off points return buffers through [`recycle_shared`] into a
//! process-wide backstop pool that every thread's [`take`] falls back
//! to after a local miss (local → shared → fresh). Only the migration
//! points pay the shared lock; within-thread recycling stays lock-free.
//!
//! In [`KernelMode::Naive`](crate::mode::KernelMode) the pool is
//! bypassed entirely (every request is a fresh allocation and recycling
//! drops the buffer) so benchmarks can measure the pre-arena behaviour.
//!
//! Global counters track pool hits and misses; they are cheap relaxed
//! atomics and always on, which is what lets `bench_nn` report the
//! allocations-per-step reduction without a special build.

use crate::mode::{kernel_mode, KernelMode};
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Buffers are binned by floor(log2(capacity)); 32 classes cover every
/// realistic tensor (class 31 ≈ 2 G elements).
const NUM_CLASSES: usize = 32;
/// At most this many retired buffers are kept per size class; extras
/// are released to the system allocator. A tape holds every op output
/// alive until backward, so the cap must cover the peak live set of one
/// training step (thousands of small tensors for a GNN batch) — in
/// steady state the pool holds roughly one step's working set and no
/// more, since buffers only enter it on recycle.
const PER_CLASS_CAP: usize = 4096;

static FRESH: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

struct Pool {
    classes: Vec<Vec<Vec<f32>>>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            classes: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Process-wide backstop pool for buffers that migrate between threads
/// (see the module docs). Touched only on a local-pool miss and at the
/// explicit [`recycle_shared`] hand-off points, so the mutex is cold.
fn shared_pool() -> &'static Mutex<Pool> {
    static SHARED: OnceLock<Mutex<Pool>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(Pool::new()))
}

impl Pool {
    /// Pops the smallest stored buffer able to hold `len` elements.
    ///
    /// Buffers allocated by [`take`] have power-of-two capacities, but
    /// buffers born outside it — e.g. `Tensor::clone` copies that later
    /// enter a tape — carry exact capacities and land in the *floor*
    /// class of their capacity, one below the class a request for that
    /// length searches. So the search runs best-fit, smallest class
    /// first: the floor class (which can hold fitting buffers only for
    /// non-power-of-two requests), then the exact class. Larger classes
    /// are deliberately left alone: serving a request from the class
    /// above wastes a 2× buffer on it — and under the worker pool that
    /// buffer may then migrate to another thread (e.g. as a backward
    /// seed), slowly draining the big classes of the thread that owns
    /// them and forcing it to re-allocate every step. A fresh exact-size
    /// allocation converges instead: each (thread, class) population is
    /// self-contained, so steady-state training stops allocating. Each
    /// bin is sorted by descending capacity, so within a bin the best
    /// fit is the deepest fitting entry — `pop` for the (common)
    /// homogeneous bins.
    fn pop_for_request(&mut self, len: usize) -> Option<Vec<f32>> {
        let exact = class_for_request(len).min(NUM_CLASSES - 1);
        let floor = if exact > 0 && !len.max(1).is_power_of_two() {
            exact - 1
        } else {
            exact
        };
        for class in floor..=exact {
            let bin = &mut self.classes[class];
            // Descending order: entries with capacity >= len form a
            // prefix; its last element is the smallest fitting buffer.
            let fit = bin.partition_point(|b| b.capacity() >= len);
            if fit > 0 {
                let mut buf = bin.remove(fit - 1);
                buf.clear();
                return Some(buf);
            }
        }
        None
    }

    /// Stores a buffer in the size class of its capacity, keeping the
    /// bin sorted by descending capacity (a push for the common case of
    /// a bin full of identical power-of-two buffers), and dropping the
    /// buffer when the class is at [`PER_CLASS_CAP`]. Returns whether
    /// the buffer was kept.
    fn store(&mut self, buf: Vec<f32>) -> bool {
        let class = class_of_capacity(buf.capacity()).min(NUM_CLASSES - 1);
        let bin = &mut self.classes[class];
        if bin.len() < PER_CLASS_CAP {
            let pos = bin.partition_point(|b| b.capacity() >= buf.capacity());
            bin.insert(pos, buf);
            true
        } else {
            false
        }
    }
}

/// Size class holding buffers with `capacity >= 2^c` (floor log2).
#[inline]
fn class_of_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.max(1).leading_zeros()) as usize
}

/// Smallest class whose buffers are guaranteed to hold `len` elements.
#[inline]
fn class_for_request(len: usize) -> usize {
    let c = class_of_capacity(len.max(1));
    if len.max(1).is_power_of_two() {
        c
    } else {
        c + 1
    }
}

/// An empty `Vec<f32>` with capacity for at least `len` elements,
/// recycled from the pool when possible.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if kernel_mode() == KernelMode::Naive {
        FRESH.fetch_add(1, Relaxed);
        return Vec::with_capacity(len);
    }
    let reused = POOL
        .with(|pool| pool.borrow_mut().pop_for_request(len))
        .or_else(|| {
            // Local miss: check the shared backstop before allocating,
            // picking up buffers that were retired on another thread.
            shared_pool()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_for_request(len)
        });
    match reused {
        Some(buf) => {
            REUSED.fetch_add(1, Relaxed);
            buf
        }
        None => {
            FRESH.fetch_add(1, Relaxed);
            // Round fresh capacity up to a power of two so the buffer's
            // recycle class equals its request class: a buffer with the
            // exact capacity 777_777 would land in floor-class 19 on
            // recycle but be searched for in ceil-class 20.
            Vec::with_capacity(len.max(1).next_power_of_two())
        }
    }
}

/// A zero-filled `rows × cols` tensor backed by a pooled buffer.
pub(crate) fn zeros(rows: usize, cols: usize) -> Tensor {
    full(rows, cols, 0.0)
}

/// A constant-filled `rows × cols` tensor backed by a pooled buffer.
pub(crate) fn full(rows: usize, cols: usize, value: f32) -> Tensor {
    let len = rows * cols;
    let mut buf = take(len);
    buf.resize(len, value);
    Tensor::from_vec(rows, cols, buf)
}

/// A pooled copy of `t`.
pub(crate) fn copy_of(t: &Tensor) -> Tensor {
    copy_slice(t.rows(), t.cols(), t.as_slice())
}

/// A pooled `rows × cols` tensor initialised from a row-major slice.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub(crate) fn copy_slice(rows: usize, cols: usize, data: &[f32]) -> Tensor {
    assert_eq!(data.len(), rows * cols, "arena copy length mismatch");
    let mut buf = take(data.len());
    buf.extend_from_slice(data);
    Tensor::from_vec(rows, cols, buf)
}

/// Returns a tensor's buffer to the current thread's pool.
pub(crate) fn recycle(t: Tensor) {
    recycle_vec(t.into_data());
}

/// Returns a raw buffer to the current thread's pool.
pub(crate) fn recycle_vec(buf: Vec<f32>) {
    if buf.capacity() == 0 || kernel_mode() == KernelMode::Naive {
        return;
    }
    POOL.with(|pool| {
        if pool.borrow_mut().store(buf) {
            RECYCLED.fetch_add(1, Relaxed);
        }
        // Over the cap: drop, releasing the memory.
    });
}

/// Returns a tensor's buffer to the process-wide shared pool. Use at
/// the points where a buffer allocated on one thread is retired on
/// another (gradient merge on the caller, optimizer teardown, per-file
/// value snapshots dropped on workers), so it can flow back to
/// whichever thread next misses its local pool.
pub fn recycle_shared(t: Tensor) {
    recycle_vec_shared(t.into_data());
}

/// Returns a raw buffer to the process-wide shared pool.
pub(crate) fn recycle_vec_shared(buf: Vec<f32>) {
    if buf.capacity() == 0 || kernel_mode() == KernelMode::Naive {
        return;
    }
    let kept = shared_pool()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .store(buf);
    if kept {
        RECYCLED.fetch_add(1, Relaxed);
    }
}

/// Snapshot of the arena's global allocation counters (all threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer requests the pool could not serve (heap allocations).
    pub fresh: u64,
    /// Buffer requests served from the pool (no allocation).
    pub reused: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
}

impl ArenaStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &ArenaStats) -> ArenaStats {
        ArenaStats {
            fresh: self.fresh - earlier.fresh,
            reused: self.reused - earlier.reused,
            recycled: self.recycled - earlier.recycled,
        }
    }
}

/// Reads the arena counters.
pub fn arena_stats() -> ArenaStats {
    ArenaStats {
        fresh: FRESH.load(Relaxed),
        reused: REUSED.load(Relaxed),
        recycled: RECYCLED.load(Relaxed),
    }
}

/// Zeroes the arena counters (pool contents are untouched).
pub fn reset_arena_stats() {
    FRESH.store(0, Relaxed);
    REUSED.store(0, Relaxed);
    RECYCLED.store(0, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_trip() {
        assert_eq!(class_of_capacity(1), 0);
        assert_eq!(class_of_capacity(2), 1);
        assert_eq!(class_of_capacity(3), 1);
        assert_eq!(class_of_capacity(1024), 10);
        // A request of n must map to a class whose buffers hold n.
        for len in [1usize, 2, 3, 7, 8, 9, 100, 1 << 20] {
            let class = class_for_request(len);
            assert!(
                (1usize << class) >= len,
                "class {class} too small for {len}"
            );
        }
    }

    #[test]
    fn recycled_buffers_are_reused() {
        crate::mode::set_kernel_mode(crate::mode::KernelMode::Fast);
        // Use an odd, large size so no other test's buffers match the class.
        let t = zeros(1, 777_777);
        let before = arena_stats();
        recycle(t);
        let t2 = take(777_777);
        let after = arena_stats();
        assert!(t2.capacity() >= 777_777);
        assert_eq!(
            after.reused - before.reused,
            1,
            "second request must hit the pool"
        );
    }

    #[test]
    fn shared_backstop_serves_cross_thread_misses() {
        crate::mode::set_kernel_mode(crate::mode::KernelMode::Fast);
        // Odd, large size so no other test's buffers land in the class.
        let t = zeros(1, 555_555);
        recycle_shared(t);
        // A fresh thread has an empty local pool, so it can only be
        // served by the shared backstop.
        let capacity = std::thread::spawn(|| take(555_555).capacity())
            .join()
            .expect("helper thread");
        assert!(
            capacity >= 555_555,
            "shared buffer not found from another thread"
        );
    }

    #[test]
    fn pooled_tensors_are_fully_initialised() {
        crate::mode::set_kernel_mode(crate::mode::KernelMode::Fast);
        let mut t = full(2, 3, 7.5);
        t.as_mut_slice().iter_mut().for_each(|x| *x = 99.0);
        recycle(t);
        let z = zeros(2, 3);
        assert!(
            z.as_slice().iter().all(|&x| x == 0.0),
            "stale data leaked from pool"
        );
        let c = copy_slice(1, 6, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(c.as_slice(), &[1., 2., 3., 4., 5., 6.]);
    }
}
