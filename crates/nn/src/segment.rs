//! Blocked segment reductions (`segment_sum` / `segment_mean` /
//! `segment_max`) and their backward kernels.
//!
//! The GNN's aggregation steps reduce node rows into per-segment rows
//! (and scatter gradients back) with segment ids in arbitrary order, so
//! the naive loops touch a different output row on almost every input
//! row. The fast path builds a [`SegmentPlan`] once per op — a stable
//! counting sort of row indices by segment id — and then streams each
//! segment's rows in one run: the forward accumulators stay cache-hot,
//! and the backward pass reads each segment's gradient row exactly once
//! while it is resident.
//!
//! Bit-compatibility: the plan is a *stable* sort, so within any one
//! segment the rows are visited in ascending original index — the exact
//! accumulation (and comparison) order of the reference loops in
//! [`reference`]. Regrouping work across segments never reorders the
//! float operations that land in any single output element, so every
//! kernel here is bitwise identical to its reference twin
//! (`kernel_bitident` proves it property-wise).

use crate::arena;
use crate::tensor::Tensor;

/// Rows grouped by segment id: a stable counting sort of `0..rows`
/// keyed by segment, in CSR-like `order`/`offsets` form. Built once per
/// op in fast kernel mode and, on a recording tape, stored on the node
/// so the backward pass reuses it.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    /// Row indices sorted by segment id, ascending within each segment.
    order: Vec<usize>,
    /// `offsets[s]..offsets[s + 1]` bounds segment `s` in `order`.
    offsets: Vec<usize>,
}

impl SegmentPlan {
    /// Groups `0..segments.len()` by segment id (stable, O(rows +
    /// segments)).
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= num_segments`.
    pub fn build(segments: &[usize], num_segments: usize) -> SegmentPlan {
        let mut offsets = vec![0usize; num_segments + 1];
        for &s in segments {
            assert!(s < num_segments, "segment id {s} out of range");
            offsets[s + 1] += 1;
        }
        for i in 1..=num_segments {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0usize; segments.len()];
        for (i, &s) in segments.iter().enumerate() {
            order[cursor[s]] = i;
            cursor[s] += 1;
        }
        SegmentPlan { order, offsets }
    }

    /// Number of segments the plan was built for.
    pub fn num_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The rows of segment `s`, in ascending original index.
    pub fn rows(&self, s: usize) -> &[usize] {
        &self.order[self.offsets[s]..self.offsets[s + 1]]
    }
}

/// Blocked `out[s] = Σ_{i: seg[i]=s} a[i]`: one segment's accumulator
/// row at a time, its member rows streamed in ascending index.
pub fn sum_blocked(a: &Tensor, plan: &SegmentPlan) -> Tensor {
    let mut out = arena::zeros(plan.num_segments(), a.cols());
    for s in 0..plan.num_segments() {
        let orow = out.row_mut(s);
        for &i in plan.rows(s) {
            for (o, &x) in orow.iter_mut().zip(a.row(i)) {
                *o += x;
            }
        }
    }
    out
}

/// Blocked segment mean; like [`sum_blocked`] with the reference's
/// scaling rule (rows divided only when a segment has more than one).
pub fn mean_blocked(a: &Tensor, plan: &SegmentPlan) -> Tensor {
    let mut out = sum_blocked(a, plan);
    for s in 0..plan.num_segments() {
        let n = plan.rows(s).len();
        if n > 1 {
            let inv = 1.0 / n as f32;
            for o in out.row_mut(s) {
                *o *= inv;
            }
        }
    }
    out
}

/// Blocked segment elementwise max, with the reference's exact tie and
/// NaN semantics: strict `>` from `-inf` in ascending row order, so
/// ties keep the earliest row and NaN never wins; columns with no
/// winner (empty segment or all-NaN) produce `0.0` and
/// `argmax = usize::MAX`.
///
/// The update is a branch-free select (`o = if x > o { x } else { o }`,
/// the same for the argmax), so each row's column loop vectorises.
pub fn max_blocked(a: &Tensor, plan: &SegmentPlan) -> (Tensor, Vec<usize>) {
    let cols = a.cols();
    let num = plan.num_segments();
    let mut argmax = vec![usize::MAX; num * cols];
    let mut out = arena::full(num, cols, f32::NEG_INFINITY);
    for s in 0..num {
        let orow = out.row_mut(s);
        let arow_max = &mut argmax[s * cols..(s + 1) * cols];
        for &i in plan.rows(s) {
            for ((o, am), &x) in orow.iter_mut().zip(arow_max.iter_mut()).zip(a.row(i)) {
                let wins = x > *o;
                *o = if wins { x } else { *o };
                *am = if wins { i } else { *am };
            }
        }
        for (o, &am) in orow.iter_mut().zip(arow_max.iter()) {
            *o = if am == usize::MAX { 0.0 } else { *o };
        }
    }
    (out, argmax)
}

/// [`max_blocked`] without the argmax, for forward-only tapes. A column
/// has a winner exactly when its running max left `-inf` (a winner
/// beats `-inf` strictly, so it is neither `-inf` nor NaN), so the
/// no-winner rule needs no argmax.
pub fn max_values_blocked(a: &Tensor, plan: &SegmentPlan) -> Tensor {
    let num = plan.num_segments();
    let mut out = arena::full(num, a.cols(), f32::NEG_INFINITY);
    for s in 0..num {
        let orow = out.row_mut(s);
        for &i in plan.rows(s) {
            for (o, &x) in orow.iter_mut().zip(a.row(i)) {
                *o = if x > *o { x } else { *o };
            }
        }
        for o in orow.iter_mut() {
            *o = if *o == f32::NEG_INFINITY { 0.0 } else { *o };
        }
    }
    out
}

/// Blocked backward of [`sum_blocked`]: each segment's gradient row is
/// read once, while resident, and copied to every member row — values
/// are pure copies, so the scatter is bitwise identical to the
/// reference gather.
pub fn sum_backward_blocked(g: &Tensor, plan: &SegmentPlan, rows: usize) -> Tensor {
    let mut ga = arena::zeros(rows, g.cols());
    for s in 0..plan.num_segments() {
        let grow = g.row(s);
        for &i in plan.rows(s) {
            ga.row_mut(i).copy_from_slice(grow);
        }
    }
    ga
}

/// Blocked backward of [`mean_blocked`]: like [`sum_backward_blocked`]
/// with each segment's gradient row scaled by `1/count` (the same
/// single multiplication per element as the reference).
pub fn mean_backward_blocked(g: &Tensor, plan: &SegmentPlan, rows: usize) -> Tensor {
    let mut ga = arena::zeros(rows, g.cols());
    for s in 0..plan.num_segments() {
        let members = plan.rows(s);
        let inv = 1.0 / members.len().max(1) as f32;
        let grow = g.row(s);
        for &i in members {
            for (o, &x) in ga.row_mut(i).iter_mut().zip(grow) {
                *o = x * inv;
            }
        }
    }
    ga
}

/// The pre-blocking segment kernels, kept callable so naive kernel mode
/// and the bit-equivalence property tests can compare against them
/// directly (the same role [`crate::tensor::reference`] plays for the
/// matmuls).
pub mod reference {
    use crate::arena;
    use crate::tensor::Tensor;

    /// Row-order segment sum.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= num_segments`.
    pub fn sum(a: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
        let mut out = arena::zeros(num_segments, a.cols());
        for (i, &s) in segments.iter().enumerate() {
            assert!(s < num_segments, "segment id {s} out of range");
            for (o, &x) in out.row_mut(s).iter_mut().zip(a.row(i)) {
                *o += x;
            }
        }
        out
    }

    /// Row-order segment mean; empty segments produce zero rows.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= num_segments`.
    pub fn mean(a: &Tensor, segments: &[usize], num_segments: usize) -> Tensor {
        let mut out = arena::zeros(num_segments, a.cols());
        let mut counts = vec![0usize; num_segments];
        for (i, &s) in segments.iter().enumerate() {
            assert!(s < num_segments, "segment id {s} out of range");
            counts[s] += 1;
            for (o, &x) in out.row_mut(s).iter_mut().zip(a.row(i)) {
                *o += x;
            }
        }
        for (s, &n) in counts.iter().enumerate() {
            if n > 1 {
                let inv = 1.0 / n as f32;
                for o in out.row_mut(s) {
                    *o *= inv;
                }
            }
        }
        out
    }

    /// Row-order segment elementwise max with argmax (strict `>` from
    /// `-inf`; ties keep the earliest row; NaN never wins; winnerless
    /// columns produce `0.0` / `usize::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= num_segments`.
    pub fn max(a: &Tensor, segments: &[usize], num_segments: usize) -> (Tensor, Vec<usize>) {
        let cols = a.cols();
        let mut argmax = vec![usize::MAX; num_segments * cols];
        let mut out = arena::full(num_segments, cols, f32::NEG_INFINITY);
        for (i, &s) in segments.iter().enumerate() {
            assert!(s < num_segments, "segment id {s} out of range");
            for c in 0..cols {
                if a.get(i, c) > out.get(s, c) {
                    out.set(s, c, a.get(i, c));
                    argmax[s * cols + c] = i;
                }
            }
        }
        for s in 0..num_segments {
            for c in 0..cols {
                if argmax[s * cols + c] == usize::MAX {
                    out.set(s, c, 0.0);
                }
            }
        }
        (out, argmax)
    }

    /// Row-order backward of [`sum`]: gather `g[seg[i]]` into row `i`.
    pub fn sum_backward(g: &Tensor, segments: &[usize], rows: usize) -> Tensor {
        debug_assert_eq!(segments.len(), rows);
        let mut buf = arena::take(rows * g.cols());
        for &s in segments {
            buf.extend_from_slice(g.row(s));
        }
        Tensor::from_vec(rows, g.cols(), buf)
    }

    /// Row-order backward of [`mean`]: the gathered rows scaled by
    /// `1/count`.
    pub fn mean_backward(
        g: &Tensor,
        segments: &[usize],
        num_segments: usize,
        rows: usize,
    ) -> Tensor {
        debug_assert_eq!(segments.len(), rows);
        let mut counts = vec![0usize; num_segments];
        for &s in segments {
            counts[s] += 1;
        }
        let mut buf = arena::take(rows * g.cols());
        for &s in segments {
            let inv = 1.0 / counts[s].max(1) as f32;
            buf.extend(g.row(s).iter().map(|&x| x * inv));
        }
        Tensor::from_vec(rows, g.cols(), buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_rows_stably() {
        let plan = SegmentPlan::build(&[2, 0, 2, 1, 0, 2], 4);
        assert_eq!(plan.num_segments(), 4);
        assert_eq!(plan.rows(0), &[1, 4]);
        assert_eq!(plan.rows(1), &[3]);
        assert_eq!(plan.rows(2), &[0, 2, 5]);
        assert_eq!(plan.rows(3), &[] as &[usize]);
    }

    #[test]
    #[should_panic(expected = "segment id 3 out of range")]
    fn plan_rejects_out_of_range_ids() {
        SegmentPlan::build(&[0, 3], 3);
    }

    #[test]
    fn blocked_kernels_match_reference_bitwise() {
        let a = Tensor::from_vec(
            5,
            2,
            vec![0.1, -2.0, 3.5, 0.25, -0.75, 1.5, 2.25, -0.125, 0.0, -0.0],
        );
        let segments = [1, 0, 1, 2, 1];
        let plan = SegmentPlan::build(&segments, 4);

        let sum = sum_blocked(&a, &plan);
        let sum_ref = reference::sum(&a, &segments, 4);
        assert_eq!(sum.as_slice(), sum_ref.as_slice());

        let mean = mean_blocked(&a, &plan);
        let mean_ref = reference::mean(&a, &segments, 4);
        assert_eq!(mean.as_slice(), mean_ref.as_slice());

        let (max, argmax) = max_blocked(&a, &plan);
        let (max_ref, argmax_ref) = reference::max(&a, &segments, 4);
        assert_eq!(max.as_slice(), max_ref.as_slice());
        assert_eq!(argmax, argmax_ref);
        assert_eq!(max_values_blocked(&a, &plan).as_slice(), max_ref.as_slice());

        let g = Tensor::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let gs = sum_backward_blocked(&g, &plan, 5);
        let gs_ref = reference::sum_backward(&g, &segments, 5);
        assert_eq!(gs.as_slice(), gs_ref.as_slice());

        let gm = mean_backward_blocked(&g, &plan, 5);
        let gm_ref = reference::mean_backward(&g, &segments, 4, 5);
        assert_eq!(gm.as_slice(), gm_ref.as_slice());
    }
}
