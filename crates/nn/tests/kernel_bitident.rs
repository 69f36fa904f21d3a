//! Property tests pinning the blocked/register-tiled kernels to the
//! naive reference kernels **bitwise**, not approximately: the blocked
//! matmul, matmul_t, fused `aᵀ·b` and transpose must produce the exact
//! same bits as the pre-optimisation triple loops for every shape
//! (including ragged remainders around the MR×NR register tile), for
//! signed zeros, and at **every selectable SIMD width** (the baseline
//! SSE2 tile and, where the CPU has it, the widened AVX2 tile — proving
//! the AVX2 instantiation never contracts to FMA). The blocked segment
//! kernels and their backward scatters are pinned to their references
//! the same way. Also pins `segment_max`'s documented NaN and tie
//! semantics against a straightforward oracle, and the vectorised
//! `tanh` kernel to its scalar fdlibm port at every width (an ignored
//! test sweeps all 2³² inputs:
//! `cargo test --release -p typilus-nn --test kernel_bitident -- --ignored`).
//!
//! Every test in this binary runs in [`KernelMode::Fast`]; the naive
//! side of each comparison calls the reference kernels directly, so no
//! test ever flips the process-global mode to Naive (which would race
//! with concurrently running tests).

use proptest::prelude::*;
use typilus_nn::segment::{self, SegmentPlan};
use typilus_nn::tanh::{self, tanh_in_place_with};
use typilus_nn::tensor::reference;
use typilus_nn::{
    available_widths, resolve_threads, set_kernel_mode, set_simd_width, KernelMode, ParamSet, Tape,
    Tensor, WorkerPool,
};

/// Runs `body` once at every SIMD width the dispatcher can select on
/// this CPU (`sse2` always; `avx2` where available), so each property
/// below proves bit-identity for every reachable kernel instantiation.
/// The width is process-global and tests run concurrently, but every
/// width must produce identical bits, so the races are harmless.
fn with_each_width(
    mut body: impl FnMut() -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for w in available_widths() {
        set_simd_width(w);
        body()?;
    }
    Ok(())
}

/// Elements that exercise rounding, cancellation and signed zero.
fn arb_elem() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e3f32..1e3,
        -1e3f32..1e3,
        -1e-3f32..1e-3,
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

/// Shape pairs covering tile interiors and every remainder case around
/// the MR=4 / NR=8 register tile.
fn arb_mkn() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..20, 1usize..20, 1usize..20)
}

/// `(a[m×k], b[k×n])` with ragged shapes and signed-zero elements.
fn arb_matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (
        arb_mkn(),
        prop::collection::vec(arb_elem(), 20 * 20),
        prop::collection::vec(arb_elem(), 20 * 20),
    )
        .prop_map(|((m, k, n), da, db)| {
            (
                Tensor::from_vec(m, k, da[..m * k].to_vec()),
                Tensor::from_vec(k, n, db[..k * n].to_vec()),
            )
        })
}

/// `(a[m×k], b[m×n])` for the fused `aᵀ · b` kernel (shared leading
/// dimension — the backward pass's `gw = xᵀ·g` shape family).
fn arb_matmul_at_b_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (
        arb_mkn(),
        prop::collection::vec(arb_elem(), 20 * 20),
        prop::collection::vec(arb_elem(), 20 * 20),
    )
        .prop_map(|((m, k, n), da, db)| {
            (
                Tensor::from_vec(m, k, da[..m * k].to_vec()),
                Tensor::from_vec(m, n, db[..m * n].to_vec()),
            )
        })
}

/// `(a[m×k], b[n×k])` for `a · bᵀ`.
fn arb_matmul_t_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (
        arb_mkn(),
        prop::collection::vec(arb_elem(), 20 * 20),
        prop::collection::vec(arb_elem(), 20 * 20),
    )
        .prop_map(|((m, k, n), da, db)| {
            (
                Tensor::from_vec(m, k, da[..m * k].to_vec()),
                Tensor::from_vec(n, k, db[..n * k].to_vec()),
            )
        })
}

fn assert_bits_equal(fast: &Tensor, naive: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape(), naive.shape());
    for (i, (f, n)) in fast.as_slice().iter().zip(naive.as_slice()).enumerate() {
        prop_assert_eq!(
            f.to_bits(),
            n.to_bits(),
            "element {} differs: fast {} vs naive {}",
            i,
            f,
            n
        );
    }
    Ok(())
}

/// Smallest positive `x` (as bits) whose `expm1f(2x)` argument
/// reduction picks `k >= k_min` — the same `(int)(invln2·u + 0.5)` the
/// scalar code runs, searched over the monotone positive floats.
fn k_cut(k_min: i32) -> u32 {
    let invln2 = f32::from_bits(0x3fb8_aa3b);
    let k_of = |bits: u32| (invln2 * (2.0 * f32::from_bits(bits)) + 0.5) as i32;
    let (mut lo, mut hi) = (0x3f80_0000u32, 0x41b0_0000u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if k_of(mid) >= k_min {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `|x|` bit patterns at every branch threshold of `tanhf` and of the
/// `expm1f(±2|x|)` it calls (those thresholds are listed both as given
/// on expm1's argument and halved onto `x`), plus zero, infinity and
/// the default NaN.
fn tanh_edges() -> Vec<u32> {
    let mut edges = vec![
        0x0000_0000, // ±0 (±4 ulps: subnormals)
        0x2400_0000, // tanh: |x| < 2⁻⁵⁵ returns x
        0x3280_0000, // expm1: |2x| < 2⁻²⁵ returns its argument
        0x3300_0000,
        0x3e31_7218, // expm1: |2x| > 0.5·ln2 starts reduction
        0x3eb1_7218,
        0x3f05_1592, // expm1: |2x| < 1.5·ln2 fixes k = ±1
        0x3f85_1592,
        0x3f80_0000, // tanh: |x| >= 1 switches formula
        0x41b0_0000, // tanh: |x| >= 22 returns ±1
        0x7f80_0000, // inf (+4 ulps: NaNs)
        0x7fc0_0000, // default NaN
    ];
    edges.extend([22, 23, 56, 57].map(k_cut));
    edges
}

/// Random bit patterns, values where the polynomial is live (where a
/// rounding slip shows up in only a fraction of inputs), and ±4 ulps
/// around each edge with either sign.
fn arb_tanh_input() -> impl Strategy<Value = u32> {
    let edges = tanh_edges();
    let n = edges.len();
    prop_oneof![
        any::<u32>(),
        (-23f32..23.0).prop_map(f32::to_bits),
        (0..n, -4i32..5, any::<bool>()).prop_map(move |(i, d, neg)| {
            let bits = (edges[i] as i32).wrapping_add(d) as u32 & 0x7fff_ffff;
            bits | if neg { 0x8000_0000 } else { 0 }
        }),
    ]
}

/// First input in `xs` where the kernel at any width and the scalar
/// reference disagree, as `(input, kernel, reference)` bits.
fn tanh_mismatch(xs: &[u32]) -> Option<(u32, u32, u32)> {
    let want: Vec<u32> = xs
        .iter()
        .map(|&b| tanh::reference::tanhf(f32::from_bits(b)).to_bits())
        .collect();
    for w in available_widths() {
        let mut got: Vec<f32> = xs.iter().map(|&b| f32::from_bits(b)).collect();
        tanh_in_place_with(w, &mut got);
        for ((&x, g), &r) in xs.iter().zip(&got).zip(&want) {
            if g.to_bits() != r {
                return Some((x, g.to_bits(), r));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vectorised_tanh_is_bitwise_scalar_reference(
        // An odd length exercises the vector body and the scalar tail.
        xs in prop::collection::vec(arb_tanh_input(), 1021),
    ) {
        prop_assert_eq!(tanh_mismatch(&xs), None);
    }

    #[test]
    fn blocked_matmul_is_bitwise_naive((a, b) in arb_matmul_pair()) {
        set_kernel_mode(KernelMode::Fast);
        with_each_width(|| assert_bits_equal(&a.matmul(&b), &reference::matmul(&a, &b)))?;
    }

    #[test]
    fn blocked_matmul_t_is_bitwise_naive((a, b) in arb_matmul_t_pair()) {
        set_kernel_mode(KernelMode::Fast);
        with_each_width(|| assert_bits_equal(&a.matmul_t(&b), &reference::matmul_t(&a, &b)))?;
    }

    #[test]
    fn fused_at_b_matmul_is_bitwise_naive((a, b) in arb_matmul_at_b_pair()) {
        set_kernel_mode(KernelMode::Fast);
        with_each_width(|| {
            assert_bits_equal(&a.matmul_at_b(&b), &reference::matmul_at_b(&a, &b))
        })?;
    }

    #[test]
    fn blocked_transpose_is_bitwise_naive(
        (rows, cols) in (1usize..70, 1usize..70),
        seed_row in prop::collection::vec(arb_elem(), 70 * 70),
    ) {
        set_kernel_mode(KernelMode::Fast);
        let a = Tensor::from_vec(rows, cols, seed_row[..rows * cols].to_vec());
        assert_bits_equal(&a.transposed(), &reference::transposed(&a))?;
    }

    #[test]
    fn matmul_handles_signed_zero_rows((m, k, n) in arb_mkn()) {
        // All-zero inputs with mixed signs: the naive kernel's
        // `a == 0.0` skip must be invisible.
        set_kernel_mode(KernelMode::Fast);
        let a = Tensor::from_vec(
            m,
            k,
            (0..m * k).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect(),
        );
        let b = Tensor::from_vec(
            k,
            n,
            (0..k * n).map(|i| if i % 3 == 0 { -0.0 } else { 1.5 }).collect(),
        );
        with_each_width(|| assert_bits_equal(&a.matmul(&b), &reference::matmul(&a, &b)))?;
    }

    #[test]
    fn blocked_segment_ops_are_bitwise_naive(
        (rows, cols, num_segments) in (1usize..12, 1usize..8, 1usize..6),
        data in prop::collection::vec(arb_elem(), 12 * 8),
        seg_seed in prop::collection::vec(0usize..6, 12),
    ) {
        set_kernel_mode(KernelMode::Fast);
        let a = Tensor::from_vec(rows, cols, data[..rows * cols].to_vec());
        let segments: Vec<usize> =
            seg_seed[..rows].iter().map(|&s| s % num_segments).collect();
        let g = Tensor::from_vec(
            num_segments,
            cols,
            data[..num_segments * cols].to_vec(),
        );
        with_each_width(|| {
            let plan = SegmentPlan::build(&segments, num_segments);
            assert_bits_equal(
                &segment::sum_blocked(&a, &plan),
                &segment::reference::sum(&a, &segments, num_segments),
            )?;
            assert_bits_equal(
                &segment::mean_blocked(&a, &plan),
                &segment::reference::mean(&a, &segments, num_segments),
            )?;
            let (max_fast, argmax_fast) = segment::max_blocked(&a, &plan);
            let (max_ref, argmax_ref) =
                segment::reference::max(&a, &segments, num_segments);
            assert_bits_equal(&max_fast, &max_ref)?;
            prop_assert_eq!(argmax_fast, argmax_ref);
            assert_bits_equal(
                &segment::sum_backward_blocked(&g, &plan, rows),
                &segment::reference::sum_backward(&g, &segments, rows),
            )?;
            assert_bits_equal(
                &segment::mean_backward_blocked(&g, &plan, rows),
                &segment::reference::mean_backward(&g, &segments, num_segments, rows),
            )?;
            Ok(())
        })?;
    }

    #[test]
    fn segment_max_matches_oracle(
        data in prop::collection::vec(
            prop_oneof![
                -100f32..100.0,
                -100f32..100.0,
                -100f32..100.0,
                Just(f32::NAN)
            ],
            18,
        ),
        segs in prop::collection::vec(0usize..4, 6),
    ) {
        set_kernel_mode(KernelMode::Fast);
        let x = Tensor::from_vec(6, 3, data.clone());
        let params = ParamSet::new();
        let mut tape = Tape::new(&params);
        let xin = tape.input(x);
        let m = tape.segment_max(xin, &segs, 4);
        let got = tape.value(m);
        // Oracle: strict `>` from -inf in row order; NaN never wins;
        // segments with no winner produce 0.0.
        for s in 0..4 {
            for c in 0..3 {
                let mut best = f32::NEG_INFINITY;
                let mut found = false;
                for (i, &si) in segs.iter().enumerate() {
                    if si == s && data[i * 3 + c] > best {
                        best = data[i * 3 + c];
                        found = true;
                    }
                }
                let expect = if found { best } else { 0.0 };
                prop_assert_eq!(
                    got.get(s, c).to_bits(),
                    expect.to_bits(),
                    "segment {} col {}",
                    s,
                    c
                );
            }
        }
    }
}

/// A tie must route the whole gradient to the earliest winning row.
#[test]
fn segment_max_tie_gradient_goes_to_earliest_row() {
    set_kernel_mode(KernelMode::Fast);
    let mut params = ParamSet::new();
    let id = params.add("x", Tensor::from_vec(3, 1, vec![7.0, 7.0, 3.0]));
    let mut tape = Tape::new(&params);
    let x = tape.param(id);
    let m = tape.segment_max(x, &[0, 0, 0], 1);
    let loss = tape.sum_all(m);
    let grads = tape.backward(loss);
    assert_eq!(grads.get(id).unwrap().as_slice(), &[1.0, 0.0, 0.0]);
}

/// An all-NaN column behaves like an empty segment: value 0, no grad.
#[test]
fn segment_max_all_nan_column_is_zero_with_no_gradient() {
    set_kernel_mode(KernelMode::Fast);
    let mut params = ParamSet::new();
    let id = params.add(
        "x",
        Tensor::from_vec(2, 2, vec![f32::NAN, 1.0, f32::NAN, -2.0]),
    );
    let mut tape = Tape::new(&params);
    let x = tape.param(id);
    let m = tape.segment_max(x, &[0, 0], 1);
    let loss = tape.sum_all(m);
    assert_eq!(tape.value(m).as_slice(), &[0.0, 1.0]);
    let grads = tape.backward(loss);
    assert_eq!(grads.get(id).unwrap().as_slice(), &[0.0, 1.0, 0.0, 0.0]);
}

/// Every `u32` bit pattern, split into 2²⁴-input chunks across the
/// worker pool: the vectorised kernel equals the scalar reference at
/// every width on all 2³² inputs. Minutes in release; `tier1.sh` runs it.
#[test]
#[ignore]
fn vectorised_tanh_matches_reference_on_every_input() {
    let pool = WorkerPool::new(resolve_threads(None));
    let chunks: Vec<u32> = (0..256).collect();
    let mismatches = pool.map_ordered(&chunks, |_, &c| {
        let mut batch = Vec::with_capacity(4096);
        for sub in 0..4096u32 {
            let base = (c << 24) | (sub << 12);
            batch.clear();
            batch.extend(base..base + 4096);
            if let Some(m) = tanh_mismatch(&batch) {
                return Some(m);
            }
        }
        None
    });
    let first = mismatches.into_iter().flatten().next();
    assert_eq!(first, None, "(input, kernel, reference) bits");
}

/// Branch-free segment max against the reference on its edge cases:
/// `+0`/`-0` ties keep the earliest row, all-`-inf` columns have no
/// winner (0.0, `usize::MAX`), NaN rows never win — for the argmax
/// kernel, the argmax-free kernel and a forward-only tape.
#[test]
fn segment_max_edge_cases_match_reference() {
    set_kernel_mode(KernelMode::Fast);
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    #[rustfmt::skip]
    let data = vec![
        0.0,  -0.0, -inf, nan,  -inf,
        -0.0, 0.0,  -inf, nan,  nan,
        nan,  nan,  -inf, 1.0,  -inf,
        -0.0, -0.0, -inf, -inf, nan,
    ];
    let x = Tensor::from_vec(4, 5, data);
    for segments in [[0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 2, 2]] {
        let plan = SegmentPlan::build(&segments, 3);
        let (want, want_argmax) = segment::reference::max(&x, &segments, 3);
        let (got, got_argmax) = segment::max_blocked(&x, &plan);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{segments:?}");
        assert_eq!(got_argmax, want_argmax, "{segments:?}");
        assert_eq!(
            bits(&segment::max_values_blocked(&x, &plan)),
            bits(&want),
            "{segments:?}"
        );
        let params = ParamSet::new();
        let mut tape = Tape::forward_only(&params);
        let xin = tape.input(x.clone());
        let m = tape.segment_max(xin, &segments, 3);
        assert_eq!(bits(tape.value(m)), bits(&want), "{segments:?}");
    }
    // The earliest of tied rows wins, whatever the sign of its zero.
    let (_, argmax) = segment::reference::max(&x, &[0, 0, 0, 0], 3);
    assert_eq!(&argmax[..5], &[0, 0, usize::MAX, 2, usize::MAX]);
}
