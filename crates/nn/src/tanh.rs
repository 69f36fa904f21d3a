//! The crate's one hyperbolic tangent: a branch-free, auto-vectorisable
//! port of fdlibm's `tanhf` and the `expm1f` it calls (the versions
//! glibc ships), so `tanh` no longer depends on the host's libm.
//!
//! [`reference`](mod@reference) holds the straight-line scalar port, branch for
//! branch, as the test oracle. The fast kernel computes every branch
//! of that code on every lane and selects the taken one, so a slice of
//! activations becomes a plain loop of IEEE adds, multiplies, divides,
//! compares and integer bit tricks that LLVM vectorises. Each selected
//! value is produced by exactly the operation sequence the scalar
//! branch would run, so the two agree bit for bit; `kernel_bitident`
//! checks it property-wise at every width and an ignored test sweeps
//! all 2³² inputs.
//!
//! Width dispatch follows the matmul tiles ([`crate::simd`]): the same
//! generic loop is instantiated once at the baseline width and once
//! inside a `#[target_feature(enable = "avx2")]` wrapper. `avx2` does
//! not include FMA and rustc never contracts `mul + add`, so every
//! width rounds identically.

use crate::simd::{avx2_available, simd_width, SimdWidth};

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `|x|` bit pattern at which `tanhf` returns `±1` (`|x| >= 22`).
const SATURATE: u32 = 0x41b0_0000;
/// `|x|` bit pattern below which `tanhf` returns `x` (`|x| < 2⁻⁵⁵`).
const TINY: u32 = 0x2400_0000;

/// Replaces every element of `xs` with its hyperbolic tangent, at the
/// process's kernel width.
pub fn tanh_in_place(xs: &mut [f32]) {
    tanh_in_place_with(simd_width(), xs);
}

/// [`tanh_in_place`] at an explicit width (the equivalence tests pin
/// each width; every width gives the same bits).
///
/// # Panics
///
/// Panics if `width` needs a CPU feature this machine lacks.
pub fn tanh_in_place_with(width: SimdWidth, xs: &mut [f32]) {
    match width {
        SimdWidth::Sse2 => tanh_slice(xs),
        SimdWidth::Avx2 => {
            assert!(
                avx2_available(),
                "AVX2 tanh requested on a CPU without AVX2"
            );
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the CPU reports AVX2 (asserted above).
            unsafe {
                tanh_slice_avx2(xs);
            }
            #[cfg(not(target_arch = "x86_64"))]
            tanh_slice(xs);
        }
    }
}

/// AVX2 instantiation of [`tanh_slice`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_slice_avx2(xs: &mut [f32]) {
    tanh_slice(xs);
}

#[inline(always)]
fn tanh_slice(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = tanh_lane(*x);
    }
}

/// One lane of [`reference::tanhf`], every branch computed and the
/// taken one selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    // Lanes the polynomial does not serve (|x| >= 22, inf, NaN) run it
    // on a harmless stand-in and are overwritten below.
    let a = if ix < SATURATE {
        f32::from_bits(ix)
    } else {
        1.0
    };
    let big = a >= 1.0;
    let t = expm1_lane(if big { 2.0 * a } else { -2.0 * a });
    // One division serves both branches: 1 - 2/(t+2) and -t/(t+2).
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let neg = x.is_sign_negative();
    let signed = if neg { -z } else { z };
    // |x| >= 22 gives ±(1 - 1e-30) = ±1; inf gives 1/x ± 1 = ±1; NaN
    // gives 1/x ± 1, the quietened input, which x + x also is.
    let outer = if ix > 0x7f80_0000 {
        x + x
    } else if neg {
        -1.0
    } else {
        1.0
    };
    if ix >= SATURATE {
        outer
    } else if ix < TINY {
        // x·(1 + x) with 1 + x rounding to exactly 1.
        x
    } else {
        signed
    }
}

/// [`reference::expm1f`] restricted to the arguments `tanh` passes,
/// `u ∈ (-2, 0] ∪ [2, 44)`: the overflow and `x < -27·ln2` exits and the
/// `k == 1` case are unreachable there, every other branch is computed
/// and selected.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // Argument reduction x = k·ln2 + r. Where the scalar code skips it
    // (k = 0), reducing by 0·ln2 leaves x bit-identical; where it fixes
    // k = ±1, ±ln2_hi is the exact product the general form computes.
    // The clamp is a no-op on the domain; it makes the unchecked
    // (vectorisable) conversion sound for every input. `f32::clamp`
    // would pass NaN through; max/min replace it.
    #[allow(clippy::manual_clamp)]
    let v = (INVLN2 * x + if neg { -0.5 } else { 0.5 })
        .max(-64.0)
        .min(64.0);
    // SAFETY: `v` is finite (f32::max/min drop NaN) and |v| <= 64, so
    // its truncation fits an i32 — the scalar code's `(int)` cast.
    let k_round: i32 = unsafe { v.to_int_unchecked() };
    let k_one = if neg { -1 } else { 1 };
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        k_one
    } else {
        k_round
    };
    let kf = k as f32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let k_zero = r - (r * e - hxs);

    let e = (r * (e - c) - c) - hxs;
    let k_neg_one = 0.5 * (r - e) - 0.5;
    // 2⁻ᵏ, exact for every reachable k.
    let two_neg_k = f32::from_bits(((0x7f - k) << 23) as u32);
    let y = if k <= -2 || k > 56 {
        1.0 - (e - r)
    } else if k < 23 {
        (1.0 - two_neg_k) - (e - r)
    } else {
        (r - (e + two_neg_k)) + 1.0
    };
    let y = add_exponent(y, k);
    let k_other = if k <= -2 || k > 56 { y - 1.0 } else { y };

    if hx < 0x3300_0000 {
        x
    } else if k == 0 {
        k_zero
    } else if k == -1 {
        k_neg_one
    } else {
        k_other
    }
}

/// `y · 2ᵏ` by adding `k` to the exponent field (`y` normal, result
/// normal).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// The straight-line scalar port of fdlibm `tanhf`/`expm1f` as glibc
/// ships them, branch for branch: the oracle the vectorised kernel is
/// tested against.
pub mod reference {
    use super::{add_exponent, INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5};

    /// `tanh(x)`.
    pub fn tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            // tanh(±inf) = ±1, tanh(NaN) = NaN.
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z = if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = expm1f(2.0 * x.abs());
                1.0 - 2.0 / (t + 2.0)
            } else {
                let t = expm1f(-2.0 * x.abs());
                -t / (t + 2.0)
            }
        } else {
            1.0 - 1.0e-30
        };
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// `eˣ - 1`.
    pub fn expm1f(x: f32) -> f32 {
        let bits = x.to_bits();
        let negative = bits & 0x8000_0000 != 0;
        let hx = bits & 0x7fff_ffff;

        if hx >= 0x4195_b844 {
            // |x| >= 27·ln2
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if negative { -1.0 } else { x };
                }
                if x > f32::from_bits(0x42b1_7180) {
                    return 1.0e30 * 1.0e30;
                }
            }
            if negative {
                return 1.0e-30 - 1.0;
            }
        }

        let (x, c, k) = if hx > 0x3eb1_7218 {
            // |x| > 0.5·ln2
            let (hi, lo, k) = if hx < 0x3f85_1592 {
                if negative {
                    (x + LN2_HI, -LN2_LO, -1)
                } else {
                    (x - LN2_HI, LN2_LO, 1)
                }
            } else {
                let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
                let t = k as f32;
                (x - t * LN2_HI, t * LN2_LO, k)
            };
            let r = hi - lo;
            (r, (hi - r) - lo, k)
        } else if hx < 0x3300_0000 {
            // |x| < 2⁻²⁵
            return x;
        } else {
            (x, 0.0, 0)
        };

        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        let e = (x * (e - c) - c) - hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 {
                -2.0 * (e - (x + 0.5))
            } else {
                1.0 + 2.0 * (x - e)
            };
        }
        if k <= -2 || k > 56 {
            let y = 1.0 - (e - x);
            let y = if k == 128 {
                y * 2.0 * f32::from_bits(0x7f00_0000)
            } else {
                add_exponent(y, k)
            };
            return y - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
            add_exponent(t - (e - x), k)
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            add_exponent((x - (e + t)) + 1.0, k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let mut xs = [0.0, -0.0, 0.5, -0.5, 1.0, 3.0, 22.0, -30.0];
        tanh_in_place(&mut xs);
        assert_eq!(xs[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(xs[1].to_bits(), (-0.0f32).to_bits());
        for (got, x) in xs
            .iter()
            .zip([0.0f32, -0.0, 0.5, -0.5, 1.0, 3.0, 22.0, -30.0])
        {
            assert!((got - x.tanh()).abs() <= 1e-6, "tanh({x}) = {got}");
        }
        assert_eq!(xs[6], 1.0);
        assert_eq!(xs[7], -1.0);
    }

    #[test]
    fn non_finite_inputs() {
        let mut xs = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        tanh_in_place(&mut xs);
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[1], -1.0);
        assert!(xs[2].is_nan());
    }

    #[test]
    fn expm1_reference_is_close_to_libm() {
        for &x in &[-20.0f32, -1.0, -0.3, 1e-9, 0.2, 0.5, 1.0, 5.0, 30.0, 80.0] {
            let got = reference::expm1f(x);
            let want = x.exp_m1();
            assert!(
                (got - want).abs() <= want.abs() * 2e-7,
                "expm1({x}) = {got}, libm {want}"
            );
        }
    }
}
