//! Runtime SIMD-width selection for the matmul micro-kernels.
//!
//! The register-tiled kernels in [`crate::tensor`] are generic over
//! their `MR×NR` accumulator tile. At the baseline width the tile is
//! sized for the SSE register file (`4×8`); where the CPU reports AVX2
//! the same generic kernel is instantiated with a twice-as-wide tile
//! (`4×16`) inside a `#[target_feature(enable = "avx2")]` function, so
//! LLVM maps each accumulator row to `ymm` registers.
//!
//! The width is selected once per process from the CPU (tests and
//! benchmarks may force one with [`set_simd_width`]) and applies to
//! every kernel in every mode ("all modes or none"). Widening the tile
//! is bit-safe by construction: the tile shape only changes *which*
//! output elements are computed together, never the order of any one
//! element's `k` accumulation chain, and the AVX2 instantiation uses
//! plain `vmulps`/`vaddps` (rustc never enables floating-point
//! contraction, and the `avx2` target feature does not include FMA), so
//! every per-element rounding sequence is identical to the scalar
//! baseline. `kernel_bitident` proves this against the naive reference
//! at every selectable width.

use std::sync::atomic::{AtomicU8, Ordering};

/// Register-tile width family used by the matmul kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdWidth {
    /// Baseline `MR=4 × NR=8` tile (fits the SSE2 register file; also
    /// the portable fallback on non-x86 targets).
    Sse2,
    /// Widened `MR=4 × NR=16` tile for CPUs with AVX2 (no FMA — fused
    /// multiply-add would change rounding and break bit-exactness).
    Avx2,
}

impl SimdWidth {
    /// Display label (used by benchmarks and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            SimdWidth::Sse2 => "sse2",
            SimdWidth::Avx2 => "avx2",
        }
    }
}

// 0 = unresolved, 1 = sse2, 2 = avx2.
static WIDTH: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU can run the widened AVX2 tile.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Every width the dispatcher can select on this CPU, narrowest first.
/// Equivalence tests iterate this to prove bit-identity at each one.
pub fn available_widths() -> Vec<SimdWidth> {
    let mut widths = vec![SimdWidth::Sse2];
    if avx2_available() {
        widths.push(SimdWidth::Avx2);
    }
    widths
}

/// The active kernel tile width.
///
/// Resolved once: an explicit [`set_simd_width`] wins; otherwise the
/// widest tile the CPU supports.
#[inline]
pub fn simd_width() -> SimdWidth {
    match WIDTH.load(Ordering::Relaxed) {
        1 => SimdWidth::Sse2,
        2 => SimdWidth::Avx2,
        _ => resolve(),
    }
}

#[cold]
fn resolve() -> SimdWidth {
    let width = if avx2_available() {
        SimdWidth::Avx2
    } else {
        SimdWidth::Sse2
    };
    set_simd_width(width);
    width
}

/// Overrides the kernel tile width process-wide (benchmarks and the
/// per-width equivalence tests; regular training never calls this).
///
/// # Panics
///
/// Panics if `width` requires a CPU feature this machine lacks — the
/// dispatcher must never be able to select an unrunnable kernel.
pub fn set_simd_width(width: SimdWidth) {
    assert!(
        width != SimdWidth::Avx2 || avx2_available(),
        "SimdWidth::Avx2 requested on a CPU without AVX2"
    );
    let v = match width {
        SimdWidth::Sse2 => 1,
        SimdWidth::Avx2 => 2,
    };
    WIDTH.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_is_stable_and_override_sticks() {
        let first = simd_width();
        assert_eq!(first, simd_width());
        set_simd_width(SimdWidth::Sse2);
        assert_eq!(simd_width(), SimdWidth::Sse2);
        // Restore auto-detected width for the rest of the process.
        set_simd_width(first);
    }

    #[test]
    fn available_widths_start_at_baseline() {
        let widths = available_widths();
        assert_eq!(widths[0], SimdWidth::Sse2);
        assert_eq!(widths.contains(&SimdWidth::Avx2), avx2_available());
    }
}
