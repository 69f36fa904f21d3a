//! A lightweight per-op profiler, compiled in always and switched on
//! at run time with [`set_profiling`] (`typilus train --profile`).
//!
//! While profiling is on, every hot tape operation records its op kind,
//! wall-clock nanoseconds and output bytes into a global table of
//! relaxed atomics; [`report`] renders the table sorted by time. While
//! it is off, a hook costs one relaxed load and reads no clock.
//!
//! The arena's allocation counters (always on) complement this table;
//! `typilus train --profile` prints both.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Coarse operation categories tracked by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    /// `a · b` (blocked or naive).
    Matmul,
    /// `a · bᵀ`.
    MatmulT,
    /// Fused `x·W + b`.
    MatmulBias,
    /// `aᵀ · b` without a materialised transpose (the backward pass's
    /// `gw = xᵀ·g` products).
    MatmulAtB,
    /// Blocked transpose.
    Transpose,
    /// Unfused elementwise ops (add, mul, sigmoid, …).
    Elementwise,
    /// Fused gate / GRU-combine ops.
    Fused,
    /// Row gather.
    Gather,
    /// Segment sum / mean / max.
    Segment,
    /// Row / column concatenation.
    Concat,
    /// Log-softmax, row-norm, losses.
    Reduce,
    /// One whole reverse pass.
    Backward,
}

/// Number of [`OpKind`] categories.
pub const NUM_OP_KINDS: usize = 12;

impl OpKind {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Matmul => "matmul",
            OpKind::MatmulT => "matmul_t",
            OpKind::MatmulBias => "matmul_bias",
            OpKind::MatmulAtB => "matmul_at_b",
            OpKind::Transpose => "transpose",
            OpKind::Elementwise => "elementwise",
            OpKind::Fused => "fused",
            OpKind::Gather => "gather",
            OpKind::Segment => "segment",
            OpKind::Concat => "concat",
            OpKind::Reduce => "reduce",
            OpKind::Backward => "backward",
        }
    }

    fn all() -> [OpKind; NUM_OP_KINDS] {
        [
            OpKind::Matmul,
            OpKind::MatmulT,
            OpKind::MatmulBias,
            OpKind::MatmulAtB,
            OpKind::Transpose,
            OpKind::Elementwise,
            OpKind::Fused,
            OpKind::Gather,
            OpKind::Segment,
            OpKind::Concat,
            OpKind::Reduce,
            OpKind::Backward,
        ]
    }
}

/// Whether the hooks record; off unless [`set_profiling`] turns it on.
static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; NUM_OP_KINDS] = [ZERO; NUM_OP_KINDS];
static NANOS: [AtomicU64; NUM_OP_KINDS] = [ZERO; NUM_OP_KINDS];
static BYTES: [AtomicU64; NUM_OP_KINDS] = [ZERO; NUM_OP_KINDS];

/// Switches per-op profiling on or off for the whole process.
pub fn set_profiling(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether per-op profiling is switched on.
pub fn profiling_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Zeroes every profiler counter.
pub fn reset_profile() {
    for i in 0..NUM_OP_KINDS {
        COUNTS[i].store(0, Relaxed);
        NANOS[i].store(0, Relaxed);
        BYTES[i].store(0, Relaxed);
    }
}

/// The start of a timed operation: a clock reading while profiling is
/// on, `None` (and no clock read) while it is off.
#[inline]
pub(crate) fn start() -> Option<Instant> {
    if ENABLED.load(Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records one completed operation begun at `start`, if it was timed.
#[inline]
pub(crate) fn finish(start: Option<Instant>, kind: OpKind, bytes: u64) {
    if let Some(start) = start {
        let i = kind as usize;
        COUNTS[i].fetch_add(1, Relaxed);
        NANOS[i].fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        BYTES[i].fetch_add(bytes, Relaxed);
    }
}

/// One row of the profile table.
#[derive(Debug, Clone, Copy)]
pub struct OpProfile {
    /// Operation category.
    pub kind: OpKind,
    /// Number of recorded calls.
    pub calls: u64,
    /// Total wall-clock nanoseconds.
    pub nanos: u64,
    /// Total output bytes produced.
    pub bytes: u64,
}

/// The op kinds with at least one recorded call, sorted by total time.
pub fn profile_rows() -> Vec<OpProfile> {
    let mut rows: Vec<OpProfile> = OpKind::all()
        .into_iter()
        .map(|kind| OpProfile {
            kind,
            calls: COUNTS[kind as usize].load(Relaxed),
            nanos: NANOS[kind as usize].load(Relaxed),
            bytes: BYTES[kind as usize].load(Relaxed),
        })
        .filter(|r| r.calls > 0)
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.nanos));
    rows
}

/// Renders the per-op table.
pub fn report() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}\n",
        "op", "calls", "total ms", "MB out", "ns/call"
    ));
    for r in profile_rows() {
        out.push_str(&format!(
            "{:<12} {:>10} {:>12.3} {:>12.2} {:>10}\n",
            r.kind.name(),
            r.calls,
            r.nanos as f64 / 1e6,
            r.bytes as f64 / (1024.0 * 1024.0),
            r.nanos / r.calls.max(1),
        ));
    }
    out
}

/// Times `$body` and attributes it to `$kind` while profiling is on.
/// `$bytes` should be the output size in bytes.
macro_rules! prof {
    ($kind:expr, $bytes:expr, $body:expr) => {{
        let __start = $crate::profile::start();
        let __result = $body;
        $crate::profile::finish(__start, $kind, $bytes as u64);
        __result
    }};
}

pub(crate) use prof;

/// Runs one forward-op body, recording its wall-clock time and output
/// size while profiling is on. Lives here (not in `tape`) so all
/// wall-clock reads stay inside profiling code.
#[inline]
pub(crate) fn run_op(
    kind: OpKind,
    f: impl FnOnce() -> crate::tensor::Tensor,
) -> crate::tensor::Tensor {
    let start = start();
    let out = f();
    finish(start, kind, (out.len() * 4) as u64);
    out
}
