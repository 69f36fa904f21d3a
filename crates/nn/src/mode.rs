//! Runtime kernel-mode switch.
//!
//! The compute core ships two implementations of every hot kernel: the
//! optimised path (cache-blocked matmuls, fused elementwise ops, the
//! arena allocator) and the pre-optimisation naive path, kept alive so
//! that benchmarks and equivalence tests can compare both inside one
//! process. Both paths are bit-identical on finite inputs (see
//! `DESIGN.md` §9); the switch exists for measurement, not correctness.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementations the tape and tensor ops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Blocked kernels, fused ops and the recycling arena (default).
    Fast,
    /// The pre-optimisation reference path: naive triple-loop matmuls,
    /// unfused op compositions and a fresh allocation per tensor.
    Naive,
}

// 0 = fast, 1 = naive.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The active kernel mode: [`KernelMode::Fast`] unless
/// [`set_kernel_mode`] selected another.
#[inline]
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        0 => KernelMode::Fast,
        _ => KernelMode::Naive,
    }
}

/// Overrides the kernel mode process-wide (used by benchmarks and the
/// equivalence tests; regular training never calls this).
pub fn set_kernel_mode(mode: KernelMode) {
    let v = match mode {
        KernelMode::Fast => 0,
        KernelMode::Naive => 1,
    };
    MODE.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_fast_and_override_sticks() {
        // Nothing in this binary selects Naive, so the mode starts and
        // stays Fast; an explicit override must win afterwards.
        assert_eq!(kernel_mode(), KernelMode::Fast);
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(kernel_mode(), KernelMode::Fast);
    }
}
