//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation applied to [`Var`] handles; calling
//! [`Tape::backward`] on a scalar loss walks the record in reverse and
//! returns gradients for every parameter that participated. Tapes are
//! cheap and rebuilt per training step, which is what lets the GNN unroll
//! a different message-passing structure for every input graph.
//!
//! Every tensor the tape materialises — op outputs and gradient
//! temporaries — is drawn from the thread-local [`crate::arena`]
//! (parameter reads borrow the [`ParamSet`] instead of copying), and
//! [`Tape::reset`] (or dropping the tape) returns the storage for the
//! next step, so a steady-state training loop stops allocating after
//! the first iteration. The fused ops
//! ([`Tape::matmul_bias`], [`Tape::add2_row_sigmoid`],
//! [`Tape::add2_row_tanh`], [`Tape::gru_combine`]) record one node where
//! the naive composition records three to four, skipping the
//! intermediate tensors entirely; their forward values and backward
//! accumulation order replicate the unfused composition exactly, so
//! results stay bit-identical (`DESIGN.md` §9). In
//! [`KernelMode::Naive`](crate::mode::KernelMode) the fused entry points
//! record the unfused composition instead, which is what `bench_nn`
//! compares against.
//!
//! [`Tape::forward_only`] builds the same tape for inference: the ops
//! and their kernels are unchanged, but nothing is recorded for
//! backward (no index copies, segment plans, masks or argmaxes), and
//! [`Tape::retain`] hands a finished step's intermediates back to the
//! arena so the next step reuses warm buffers. Values are bit-identical
//! to a recording tape's.

use crate::arena;
use crate::mode::{kernel_mode, KernelMode};
use crate::params::{Gradients, ParamId, ParamSet};
use crate::profile::{prof, run_op, OpKind};
use crate::segment::{self, SegmentPlan};
use crate::tanh::tanh_in_place;
use crate::tensor::Tensor;
use std::borrow::Cow;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
#[allow(dead_code)] // some payloads are forward-only (kept for Debug clarity)
enum Op {
    /// Constant input; no gradient. Every node of a forward-only tape
    /// is recorded as one.
    Input,
    /// Read of a trainable parameter.
    Param(ParamId),
    Matmul(Var, Var),
    /// `a · bᵀ`
    MatmulT(Var, Var),
    /// Fused `x·W + b` (one node instead of matmul + add_row).
    MatmulBias(Var, Var, Var),
    Transpose(Var),
    Add(Var, Var),
    /// `[n,m] + [1,m]` broadcast over rows.
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    Sigmoid(Var),
    Exp(Var),
    Tanh(Var),
    Relu(Var),
    /// Fused `σ(a + b + row)` — a GRU gate in one node.
    AddRowSigmoid(Var, Var, Var),
    /// Fused `tanh(a + b + row)` — the GRU candidate in one node.
    AddRowTanh(Var, Var, Var),
    /// Fused GRU state blend `h - z⊙h + z⊙cand`.
    GruCombine(Var, Var, Var),
    /// Row gather: `out[i] = a[indices[i]]`.
    Gather(Var, Vec<usize>),
    /// Segment sum: `out[s] = Σ_{i: seg[i]=s} a[i]`. Fast kernel mode
    /// carries the forward pass's [`SegmentPlan`] so the backward
    /// scatter streams contiguously too; `None` in naive mode.
    SegmentSum(Var, Vec<usize>, usize, Option<SegmentPlan>),
    /// Segment mean (plan as in [`Op::SegmentSum`]).
    SegmentMean(Var, Vec<usize>, usize, Option<SegmentPlan>),
    /// Segment elementwise max; `argmax[s*cols+c]` = winning row or usize::MAX.
    SegmentMax(Var, Vec<usize>, usize, Vec<usize>),
    /// Pairwise L1 distances between rows: `out[i,j] = ||a[i]-a[j]||₁`.
    PairwiseL1(Var),
    /// Row-wise log-softmax.
    LogSoftmax(Var),
    /// Row-wise standardisation (LayerNorm without affine parameters).
    RowNorm(Var),
    /// Negative log likelihood of per-row labels, averaged: `1×1`.
    NllLoss(Var, Vec<usize>),
    /// Elementwise multiplication by a constant mask.
    MulConst(Var, Tensor),
    /// Sum of all elements: `1×1`.
    SumAll(Var),
    /// Vertical concatenation of rows.
    ConcatRows(Vec<Var>),
    /// Horizontal concatenation of columns.
    ConcatCols(Vec<Var>),
}

struct Node<'p> {
    /// Op outputs are owned (arena-backed); parameter reads borrow the
    /// [`ParamSet`]'s tensor, which outlives the tape.
    value: Cow<'p, Tensor>,
    op: Op,
}

/// Returns a node's owned storage (and a mask's) to the arena.
fn recycle_node(node: Node<'_>) {
    if let Op::MulConst(_, mask) = node.op {
        arena::recycle(mask);
    }
    if let Cow::Owned(value) = node.value {
        arena::recycle(value);
    }
}

/// Elementwise map into an arena-backed tensor.
fn pooled_map(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = arena::take(t.len());
    buf.extend(t.as_slice().iter().map(|&x| f(x)));
    Tensor::from_vec(t.rows(), t.cols(), buf)
}

/// Elementwise zip of two same-shaped tensors into an arena-backed one.
fn pooled_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    debug_assert_eq!(a.shape(), b.shape());
    let mut buf = arena::take(a.len());
    buf.extend(
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| f(x, y)),
    );
    Tensor::from_vec(a.rows(), a.cols(), buf)
}

/// A gradient tape over a [`ParamSet`].
pub struct Tape<'p> {
    params: &'p ParamSet,
    nodes: Vec<Node<'p>>,
    /// Whether ops keep what backward needs ([`Tape::new`]) or nothing
    /// ([`Tape::forward_only`]).
    recording: bool,
}

impl<'p> Tape<'p> {
    /// Creates a fresh tape reading parameters from `params`.
    pub fn new(params: &'p ParamSet) -> Tape<'p> {
        Tape {
            params,
            nodes: Vec::new(),
            recording: true,
        }
    }

    /// Creates an inference tape: the same ops and values as
    /// [`Tape::new`], but no op keeps a backward payload, and
    /// [`Tape::retain`] recycles dead intermediates. Calling any
    /// `backward*` method on it panics.
    pub fn forward_only(params: &'p ParamSet) -> Tape<'p> {
        Tape {
            params,
            nodes: Vec::new(),
            recording: false,
        }
    }

    /// Records a node. `op` builds the backward payload and runs only
    /// on a recording tape.
    fn push_node(&mut self, value: Cow<'p, Tensor>, op: impl FnOnce() -> Op) -> Var {
        let op = if self.recording { op() } else { Op::Input };
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records an op output (see [`Tape::push_node`]).
    fn push(&mut self, value: Tensor, op: impl FnOnce() -> Op) -> Var {
        self.push_node(Cow::Owned(value), op)
    }

    /// The current value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Step boundary for inference loops: on a forward-only tape, every
    /// node recorded since `mark` (a [`Tape::len`] taken earlier) except
    /// `keep` is dropped and its storage returned to the arena, and
    /// `keep` moves to position `mark`; the returned [`Var`] replaces
    /// it, and every other `Var` from at or after `mark` is invalidated.
    /// A recording tape needs every node for backward, so there this
    /// returns `keep` unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `keep` was recorded before `mark`.
    pub fn retain(&mut self, mark: usize, keep: Var) -> Var {
        if self.recording {
            return keep;
        }
        assert!(keep.0 >= mark, "retain: kept var predates the mark");
        // The last node takes `keep`'s slot, which the drain then frees.
        let kept = self.nodes.swap_remove(keep.0);
        for node in self.nodes.drain(mark..) {
            recycle_node(node);
        }
        self.nodes.push(kept);
        Var(mark)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape and returns every node's storage to the arena,
    /// so the next step's ops reuse it instead of allocating. All
    /// outstanding [`Var`]s are invalidated. Dropping the tape does the
    /// same; `reset` just makes the reuse explicit inside a loop.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            recycle_node(node);
        }
    }

    // ---- sources ---------------------------------------------------------

    /// Records a constant input (no gradient flows into it).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, || Op::Input)
    }

    /// Records a read of parameter `id`. The node borrows the
    /// parameter tensor (the tape's borrow of the [`ParamSet`] keeps it
    /// unchanged), so no read copies it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tape's parameter set.
    pub fn param(&mut self, id: ParamId) -> Var {
        let value = self.params.get(id);
        self.push_node(Cow::Borrowed(value), || Op::Param(id))
    }

    // ---- arithmetic -------------------------------------------------------

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let v = run_op(OpKind::Matmul, || va.matmul(vb));
        self.push(v, || Op::Matmul(a, b))
    }

    /// `a · bᵀ`.
    pub fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let v = run_op(OpKind::MatmulT, || va.matmul_t(vb));
        self.push(v, || Op::MatmulT(a, b))
    }

    /// Fused `x·W + b` — one node for a whole [`crate::Linear`] apply;
    /// the matmul output is biased in place, skipping the intermediate.
    /// In naive kernel mode this records the unfused composition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if `b` is not `1×m`.
    pub fn matmul_bias(&mut self, x: Var, w: Var, b: Var) -> Var {
        if kernel_mode() == KernelMode::Naive {
            let y = self.matmul(x, w);
            return self.add_row(y, b);
        }
        let (vx, vw, vb) = (self.value(x), self.value(w), self.value(b));
        assert_eq!(vb.rows(), 1, "matmul_bias needs a 1×m bias row");
        assert_eq!(vw.cols(), vb.cols(), "matmul_bias width mismatch");
        let v = run_op(OpKind::MatmulBias, || {
            let mut out = vx.matmul(vw);
            let brow = vb.as_slice();
            for r in 0..out.rows() {
                for (o, &bv) in out.row_mut(r).iter_mut().zip(brow) {
                    *o += bv;
                }
            }
            out
        });
        self.push(v, || Op::MatmulBias(x, w, b))
    }

    /// `aᵀ`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Transpose, || va.transposed());
        self.push(v, || Op::Transpose(a))
    }

    /// Elementwise `a + b` (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let v = run_op(OpKind::Elementwise, || pooled_zip(va, vb, |x, y| x + y));
        self.push(v, || Op::Add(a, b))
    }

    /// `a + row` where `row` is `1×m`, broadcast over the rows of `a`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or `row` is not a single row.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (va, vr) = (self.value(a), self.value(row));
        assert_eq!(vr.rows(), 1, "add_row needs a 1×m row");
        assert_eq!(va.cols(), vr.cols(), "add_row width mismatch");
        let v = run_op(OpKind::Elementwise, || {
            let mut buf = arena::take(va.len());
            let rrow = vr.as_slice();
            for r in 0..va.rows() {
                buf.extend(va.row(r).iter().zip(rrow).map(|(&x, &y)| x + y));
            }
            Tensor::from_vec(va.rows(), va.cols(), buf)
        });
        self.push(v, || Op::AddRow(a, row))
    }

    /// Elementwise `a - b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let v = run_op(OpKind::Elementwise, || pooled_zip(va, vb, |x, y| x - y));
        self.push(v, || Op::Sub(a, b))
    }

    /// Elementwise `a * b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let v = run_op(OpKind::Elementwise, || pooled_zip(va, vb, |x, y| x * y));
        self.push(v, || Op::Mul(a, b))
    }

    /// `a * c` for a scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Elementwise, || pooled_map(va, |x| x * c));
        self.push(v, || Op::Scale(a, c))
    }

    // ---- nonlinearities ----------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Elementwise, || {
            pooled_map(va, |x| 1.0 / (1.0 + (-x).exp()))
        });
        self.push(v, || Op::Sigmoid(a))
    }

    /// Hyperbolic tangent ([`crate::tanh`]).
    pub fn tanh(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Elementwise, || {
            let mut out = arena::copy_of(va);
            tanh_in_place(out.as_mut_slice());
            out
        });
        self.push(v, || Op::Tanh(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Elementwise, || pooled_map(va, f32::exp));
        self.push(v, || Op::Exp(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Elementwise, || pooled_map(va, |x| x.max(0.0)));
        self.push(v, || Op::Relu(a))
    }

    /// Fused `σ(a + b + row)` — one node for a whole GRU gate
    /// (`tape.sigmoid(tape.add_row(tape.add(a, b), row))`), skipping
    /// both intermediates. In naive kernel mode this records the
    /// unfused composition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if `row` is not `1×m`.
    pub fn add2_row_sigmoid(&mut self, a: Var, b: Var, row: Var) -> Var {
        if kernel_mode() == KernelMode::Naive {
            let s = self.add(a, b);
            let s = self.add_row(s, row);
            return self.sigmoid(s);
        }
        let v = self.fused_gate(a, b, row, |out| {
            for x in out {
                *x = 1.0 / (1.0 + (-*x).exp());
            }
        });
        self.push(v, || Op::AddRowSigmoid(a, b, row))
    }

    /// Fused `tanh(a + b + row)` — the GRU candidate state in one node.
    /// In naive kernel mode this records the unfused composition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if `row` is not `1×m`.
    pub fn add2_row_tanh(&mut self, a: Var, b: Var, row: Var) -> Var {
        if kernel_mode() == KernelMode::Naive {
            let s = self.add(a, b);
            let s = self.add_row(s, row);
            return self.tanh(s);
        }
        let v = self.fused_gate(a, b, row, tanh_in_place);
        self.push(v, || Op::AddRowTanh(a, b, row))
    }

    /// Shared forward for the fused gates: `(a + b) + row`, associated
    /// exactly as in the unfused composition, then `f` applied in place.
    fn fused_gate(&self, a: Var, b: Var, row: Var, f: impl Fn(&mut [f32])) -> Tensor {
        let (va, vb, vr) = (self.value(a), self.value(b), self.value(row));
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        assert_eq!(vr.rows(), 1, "add_row needs a 1×m row");
        assert_eq!(va.cols(), vr.cols(), "add_row width mismatch");
        run_op(OpKind::Fused, || {
            let mut buf = arena::take(va.len());
            let rrow = vr.as_slice();
            for r in 0..va.rows() {
                buf.extend(
                    va.row(r)
                        .iter()
                        .zip(vb.row(r))
                        .zip(rrow)
                        .map(|((&x, &y), &z)| (x + y) + z),
                );
            }
            f(&mut buf);
            Tensor::from_vec(va.rows(), va.cols(), buf)
        })
    }

    /// Fused GRU state blend `h' = h - z⊙h + z⊙cand` — one node for the
    /// four-op tail of a GRU step, skipping three intermediates. In
    /// naive kernel mode this records the unfused composition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn gru_combine(&mut self, z: Var, h: Var, cand: Var) -> Var {
        if kernel_mode() == KernelMode::Naive {
            let zh = self.mul(z, h);
            let zc = self.mul(z, cand);
            let keep = self.sub(h, zh);
            return self.add(keep, zc);
        }
        let (vz, vh, vc) = (self.value(z), self.value(h), self.value(cand));
        assert_eq!(vz.shape(), vh.shape(), "mul shape mismatch");
        assert_eq!(vz.shape(), vc.shape(), "mul shape mismatch");
        let v = run_op(OpKind::Fused, || {
            let mut buf = arena::take(vz.len());
            buf.extend(
                vz.as_slice()
                    .iter()
                    .zip(vh.as_slice())
                    .zip(vc.as_slice())
                    .map(|((&zv, &hv), &cv)| (hv - zv * hv) + zv * cv),
            );
            Tensor::from_vec(vz.rows(), vz.cols(), buf)
        });
        self.push(v, || Op::GruCombine(z, h, cand))
    }

    // ---- structure ops -----------------------------------------------------

    /// Row gather: `out[i] = a[indices[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&mut self, a: Var, indices: &[usize]) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Gather, || {
            let mut buf = arena::take(indices.len() * va.cols());
            for &idx in indices {
                assert!(idx < va.rows(), "gather index {idx} out of bounds");
                buf.extend_from_slice(va.row(idx));
            }
            Tensor::from_vec(indices.len(), va.cols(), buf)
        });
        self.push(v, || Op::Gather(a, indices.to_vec()))
    }

    /// Segment sum: rows of `a` grouped by `segments`, summed per segment.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != a.rows()` or an id `>= num_segments`.
    pub fn segment_sum(&mut self, a: Var, segments: &[usize], num_segments: usize) -> Var {
        let va = self.value(a);
        assert_eq!(segments.len(), va.rows(), "segment id per row required");
        let (v, plan) = match kernel_mode() {
            KernelMode::Fast => {
                let plan = SegmentPlan::build(segments, num_segments);
                let v = run_op(OpKind::Segment, || segment::sum_blocked(va, &plan));
                (v, Some(plan))
            }
            KernelMode::Naive => {
                let v = run_op(OpKind::Segment, || {
                    segment::reference::sum(va, segments, num_segments)
                });
                (v, None)
            }
        };
        self.push(v, || {
            Op::SegmentSum(a, segments.to_vec(), num_segments, plan)
        })
    }

    /// Segment mean; empty segments produce zero rows.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tape::segment_sum`].
    pub fn segment_mean(&mut self, a: Var, segments: &[usize], num_segments: usize) -> Var {
        let va = self.value(a);
        assert_eq!(segments.len(), va.rows(), "segment id per row required");
        let (v, plan) = match kernel_mode() {
            KernelMode::Fast => {
                let plan = SegmentPlan::build(segments, num_segments);
                let v = run_op(OpKind::Segment, || segment::mean_blocked(va, &plan));
                (v, Some(plan))
            }
            KernelMode::Naive => {
                let v = run_op(OpKind::Segment, || {
                    segment::reference::mean(va, segments, num_segments)
                });
                (v, None)
            }
        };
        self.push(v, || {
            Op::SegmentMean(a, segments.to_vec(), num_segments, plan)
        })
    }

    /// Segment elementwise max; empty segments produce zero rows. This is
    /// the max-pooling aggregation the paper uses in its GGNN.
    ///
    /// Ties keep the earliest row (strict `>` comparison); NaN inputs
    /// never win a comparison, so a segment whose every entry is NaN in
    /// a column behaves like an empty segment for that column.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tape::segment_sum`].
    pub fn segment_max(&mut self, a: Var, segments: &[usize], num_segments: usize) -> Var {
        let va = self.value(a);
        assert_eq!(segments.len(), va.rows(), "segment id per row required");
        let mut argmax = Vec::new();
        let v = match kernel_mode() {
            KernelMode::Fast => {
                let plan = SegmentPlan::build(segments, num_segments);
                if self.recording {
                    run_op(OpKind::Segment, || {
                        let (out, am) = segment::max_blocked(va, &plan);
                        argmax = am;
                        out
                    })
                } else {
                    run_op(OpKind::Segment, || segment::max_values_blocked(va, &plan))
                }
            }
            KernelMode::Naive => run_op(OpKind::Segment, || {
                let (out, am) = segment::reference::max(va, segments, num_segments);
                argmax = am;
                out
            }),
        };
        self.push(v, || {
            Op::SegmentMax(a, segments.to_vec(), num_segments, argmax)
        })
    }

    /// Pairwise L1 distance matrix between the rows of `a`.
    pub fn pairwise_l1(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let n = va.rows();
        let v = run_op(OpKind::Reduce, || {
            let mut out = arena::zeros(n, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = Tensor::l1_row_distance(va.row(i), va.row(j));
                    out.set(i, j, d);
                    out.set(j, i, d);
                }
            }
            out
        });
        self.push(v, || Op::PairwiseL1(a))
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Reduce, || {
            let mut out = arena::copy_of(va);
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let logsum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
                for x in row.iter_mut() {
                    *x -= logsum;
                }
            }
            out
        });
        self.push(v, || Op::LogSoftmax(a))
    }

    /// Row-wise standardisation: each row is shifted to zero mean and
    /// scaled to unit variance (plus a small epsilon) — LayerNorm
    /// without learned affine parameters.
    pub fn row_norm(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = run_op(OpKind::Reduce, || {
            let mut out = arena::copy_of(va);
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let n = row.len() as f32;
                let mean = row.iter().sum::<f32>() / n;
                let var = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
                let inv = 1.0 / (var + 1e-5).sqrt();
                for x in row.iter_mut() {
                    *x = (*x - mean) * inv;
                }
            }
            out
        });
        self.push(v, || Op::RowNorm(a))
    }

    /// Mean negative log-likelihood of `labels` under row-wise
    /// log-probabilities `logp` (pair with [`Tape::log_softmax`]).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logp.rows()` or a label is out of range.
    pub fn nll_loss(&mut self, logp: Var, labels: &[usize]) -> Var {
        let v = self.value(logp);
        assert_eq!(labels.len(), v.rows(), "one label per row required");
        let mut total = 0.0;
        for (r, &l) in labels.iter().enumerate() {
            assert!(l < v.cols(), "label {l} out of range");
            total -= v.get(r, l);
        }
        let out = arena::full(1, 1, total / labels.len().max(1) as f32);
        self.push(out, || Op::NllLoss(logp, labels.to_vec()))
    }

    /// Elementwise product with a constant mask (no gradient through the
    /// mask) — used to select loss terms without breaking differentiation.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul_const(&mut self, a: Var, mask: &Tensor) -> Var {
        let va = self.value(a);
        assert_eq!(va.shape(), mask.shape(), "mask shape mismatch");
        let v = run_op(OpKind::Elementwise, || pooled_zip(va, mask, |x, m| x * m));
        self.push(v, || Op::MulConst(a, arena::copy_of(mask)))
    }

    /// Sum of all elements, as a `1×1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let out = arena::full(1, 1, self.value(a).sum());
        self.push(out, || Op::SumAll(a))
    }

    /// Mean of all elements, as a `1×1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).len().max(1) as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Vertically concatenates rows of several variables (same width).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or widths differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let v = run_op(OpKind::Concat, || {
            let mut buf = arena::take(total * cols);
            for &p in parts {
                let vp = self.value(p);
                assert_eq!(vp.cols(), cols, "concat_rows width mismatch");
                buf.extend_from_slice(vp.as_slice());
            }
            Tensor::from_vec(total, cols, buf)
        });
        self.push(v, || Op::ConcatRows(parts.to_vec()))
    }

    /// Horizontally concatenates columns of several variables (same
    /// number of rows) — e.g. joining forward and backward RNN states.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let v = run_op(OpKind::Concat, || {
            let mut buf = arena::take(rows * total);
            for r in 0..rows {
                for &p in parts {
                    let vp = self.value(p);
                    assert_eq!(vp.rows(), rows, "concat_cols row mismatch");
                    buf.extend_from_slice(vp.row(r));
                }
            }
            Tensor::from_vec(rows, total, buf)
        });
        self.push(v, || Op::ConcatCols(parts.to_vec()))
    }

    // ---- backward ----------------------------------------------------------

    /// Computes gradients of the scalar `loss` with respect to every
    /// parameter touched by the tape.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        self.backward_impl(loss, arena::full(1, 1, 1.0), &[]).0
    }

    /// Like [`Tape::backward`], but also returns the gradient of the loss
    /// with respect to each listed [`Tape::input`] variable, in the order
    /// given. Inputs the loss does not depend on get a zero gradient.
    ///
    /// This is the seam for data-parallel training: a batch-level loss
    /// tape takes per-file embeddings as inputs, and the returned input
    /// gradients seed each file's own forward tape via
    /// [`Tape::backward_from`].
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1×1`.
    pub fn backward_with_inputs(&self, loss: Var, inputs: &[Var]) -> (Gradients, Vec<Tensor>) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        self.backward_impl(loss, arena::full(1, 1, 1.0), inputs)
    }

    /// Backpropagates from an arbitrary (possibly non-scalar) variable,
    /// seeding it with `seed` — the gradient of some downstream scalar
    /// loss with respect to `root`, computed on another tape.
    ///
    /// # Panics
    ///
    /// Panics if `seed` does not have `root`'s shape.
    pub fn backward_from(&self, root: Var, seed: Tensor) -> Gradients {
        assert_eq!(
            self.value(root).shape(),
            seed.shape(),
            "seed must match the root's shape"
        );
        self.backward_impl(root, seed, &[]).0
    }

    fn backward_impl(&self, root: Var, seed: Tensor, inputs: &[Var]) -> (Gradients, Vec<Tensor>) {
        assert!(
            self.recording,
            "backward on a forward-only Tape: build it with Tape::new to record gradients"
        );
        prof!(OpKind::Backward, 0u64, {
            let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
            grads[root.0] = Some(seed);
            let mut out = Gradients::new();
            let mut input_grads: Vec<Option<Tensor>> = vec![None; inputs.len()];

            for i in (0..self.nodes.len()).rev() {
                let g = match grads[i].take() {
                    Some(g) => g,
                    None => continue,
                };
                let node = &self.nodes[i];
                match &node.op {
                    Op::Input => {
                        if let Some(slot) = inputs.iter().position(|v| v.0 == i) {
                            input_grads[slot] = Some(g);
                        } else {
                            arena::recycle(g);
                        }
                    }
                    Op::Param(id) => out.accumulate(*id, g),
                    Op::Matmul(a, b) => {
                        // out = a · b : da = g · bᵀ ; db = aᵀ · g — the
                        // latter via the fused kernel, no materialised aᵀ.
                        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                        let ga = g.matmul_t(vb);
                        let gb = run_op(OpKind::MatmulAtB, || va.matmul_at_b(&g));
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gb);
                    }
                    Op::MatmulT(a, b) => {
                        // out = a · bᵀ : da = g · b ; db = gᵀ · a — the
                        // latter via the fused kernel, no materialised gᵀ.
                        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                        let ga = g.matmul(vb);
                        let gb = run_op(OpKind::MatmulAtB, || g.matmul_at_b(va));
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gb);
                    }
                    Op::MatmulBias(x, w, b) => {
                        // Replicates the add_row ∘ matmul reverse walk:
                        // bias row grad first, then dx, then dW.
                        let (vx, vw) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
                        let mut row_grad = arena::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for c in 0..g.cols() {
                                let v = row_grad.get(0, c) + g.get(r, c);
                                row_grad.set(0, c, v);
                            }
                        }
                        let gx = g.matmul_t(vw);
                        let gw = run_op(OpKind::MatmulAtB, || vx.matmul_at_b(&g));
                        arena::recycle(g);
                        accumulate(&mut grads, *b, row_grad);
                        accumulate(&mut grads, *x, gx);
                        accumulate(&mut grads, *w, gw);
                    }
                    Op::Transpose(a) => {
                        let gt = g.transposed();
                        arena::recycle(g);
                        accumulate(&mut grads, *a, gt);
                    }
                    Op::Add(a, b) => {
                        accumulate(&mut grads, *a, arena::copy_of(&g));
                        accumulate(&mut grads, *b, g);
                    }
                    Op::AddRow(a, row) => {
                        let mut row_grad = arena::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for c in 0..g.cols() {
                                let v = row_grad.get(0, c) + g.get(r, c);
                                row_grad.set(0, c, v);
                            }
                        }
                        accumulate(&mut grads, *a, g);
                        accumulate(&mut grads, *row, row_grad);
                    }
                    Op::Sub(a, b) => {
                        let ga = arena::copy_of(&g);
                        let gb = pooled_map(&g, |x| -x);
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gb);
                    }
                    Op::Mul(a, b) => {
                        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                        let ga = pooled_zip(&g, vb, |x, y| x * y);
                        let mut gb = g;
                        for (x, &y) in gb.as_mut_slice().iter_mut().zip(va.as_slice()) {
                            *x *= y;
                        }
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gb);
                    }
                    Op::Scale(a, c) => {
                        let ga = pooled_map(&g, |x| x * c);
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::Sigmoid(a) => {
                        let y = &node.value;
                        let mut ga = g;
                        for (x, &s) in ga.as_mut_slice().iter_mut().zip(y.as_slice()) {
                            *x *= s * (1.0 - s);
                        }
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::Exp(a) => {
                        let y = &node.value;
                        let mut ga = g;
                        for (x, &e) in ga.as_mut_slice().iter_mut().zip(y.as_slice()) {
                            *x *= e;
                        }
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::Tanh(a) => {
                        let y = &node.value;
                        let mut ga = g;
                        for (x, &t) in ga.as_mut_slice().iter_mut().zip(y.as_slice()) {
                            *x *= 1.0 - t * t;
                        }
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::Relu(a) => {
                        let y = &node.value;
                        let mut ga = g;
                        for (x, &v) in ga.as_mut_slice().iter_mut().zip(y.as_slice()) {
                            if v <= 0.0 {
                                *x = 0.0;
                            }
                        }
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::AddRowSigmoid(a, b, row) | Op::AddRowTanh(a, b, row) => {
                        // Replicates sigmoid/tanh ∘ add_row ∘ add:
                        // gs = g ⊙ f'(y), then row grad, then a, then b.
                        let y = &node.value;
                        let sig = matches!(node.op, Op::AddRowSigmoid(..));
                        let mut gs = g;
                        for (x, &v) in gs.as_mut_slice().iter_mut().zip(y.as_slice()) {
                            *x *= if sig { v * (1.0 - v) } else { 1.0 - v * v };
                        }
                        let mut row_grad = arena::zeros(1, gs.cols());
                        for r in 0..gs.rows() {
                            for c in 0..gs.cols() {
                                let v = row_grad.get(0, c) + gs.get(r, c);
                                row_grad.set(0, c, v);
                            }
                        }
                        let ga = arena::copy_of(&gs);
                        accumulate(&mut grads, *row, row_grad);
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gs);
                    }
                    Op::GruCombine(z, h, cand) => {
                        // Replicates add(sub(h, mul(z,h)), mul(z,cand))'s
                        // reverse walk, in its exact accumulation order:
                        // h += g; z += g⊙cand; cand += g⊙z;
                        // z += (-g)⊙h; h += (-g)⊙z.
                        let (vz, vh, vc) = (
                            &self.nodes[z.0].value,
                            &self.nodes[h.0].value,
                            &self.nodes[cand.0].value,
                        );
                        let gh1 = arena::copy_of(&g);
                        let gz1 = pooled_zip(&g, vc, |x, y| x * y);
                        let gc = pooled_zip(&g, vz, |x, y| x * y);
                        let ng = pooled_map(&g, |x| -x);
                        arena::recycle(g);
                        let gz2 = pooled_zip(&ng, vh, |x, y| x * y);
                        let mut gh2 = ng;
                        for (x, &y) in gh2.as_mut_slice().iter_mut().zip(vz.as_slice()) {
                            *x *= y;
                        }
                        accumulate(&mut grads, *h, gh1);
                        accumulate(&mut grads, *z, gz1);
                        accumulate(&mut grads, *cand, gc);
                        accumulate(&mut grads, *z, gz2);
                        accumulate(&mut grads, *h, gh2);
                    }
                    Op::Gather(a, indices) => {
                        let va = &self.nodes[a.0].value;
                        let mut ga = arena::zeros(va.rows(), va.cols());
                        for (i, &idx) in indices.iter().enumerate() {
                            for c in 0..g.cols() {
                                let v = ga.get(idx, c) + g.get(i, c);
                                ga.set(idx, c, v);
                            }
                        }
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::SegmentSum(a, segments, _, plan) => {
                        let va = &self.nodes[a.0].value;
                        let ga = match plan {
                            Some(plan) => segment::sum_backward_blocked(&g, plan, va.rows()),
                            None => segment::reference::sum_backward(&g, segments, va.rows()),
                        };
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::SegmentMean(a, segments, num, plan) => {
                        let va = &self.nodes[a.0].value;
                        let ga = match plan {
                            Some(plan) => segment::mean_backward_blocked(&g, plan, va.rows()),
                            None => {
                                segment::reference::mean_backward(&g, segments, *num, va.rows())
                            }
                        };
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::SegmentMax(a, _, _, argmax) => {
                        let va = &self.nodes[a.0].value;
                        let cols = va.cols();
                        let mut ga = arena::zeros(va.rows(), va.cols());
                        for s in 0..g.rows() {
                            for c in 0..cols {
                                let winner = argmax[s * cols + c];
                                if winner != usize::MAX {
                                    let v = ga.get(winner, c) + g.get(s, c);
                                    ga.set(winner, c, v);
                                }
                            }
                        }
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::PairwiseL1(a) => {
                        let va = &self.nodes[a.0].value;
                        let n = va.rows();
                        let mut ga = arena::zeros(n, va.cols());
                        for i in 0..n {
                            for j in 0..n {
                                if i == j {
                                    continue;
                                }
                                let w = g.get(i, j);
                                if w == 0.0 {
                                    continue;
                                }
                                for c in 0..va.cols() {
                                    let s = (va.get(i, c) - va.get(j, c)).signum();
                                    let vi = ga.get(i, c) + w * s;
                                    ga.set(i, c, vi);
                                    let vj = ga.get(j, c) - w * s;
                                    ga.set(j, c, vj);
                                }
                            }
                        }
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::LogSoftmax(a) => {
                        // dx = g - softmax(x) * rowsum(g)
                        let y = &node.value; // log-probabilities
                        let mut buf = arena::take(y.len());
                        for r in 0..y.rows() {
                            let rowsum: f32 = g.row(r).iter().sum();
                            for c in 0..y.cols() {
                                let p = y.get(r, c).exp();
                                buf.push(g.get(r, c) - p * rowsum);
                            }
                        }
                        let ga = Tensor::from_vec(y.rows(), y.cols(), buf);
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::RowNorm(a) => {
                        // y = (x - mu) / sigma;
                        // dx = (g - mean(g) - y * mean(g*y)) / sigma
                        let x = &self.nodes[a.0].value;
                        let y = &node.value;
                        let mut buf = arena::take(y.len());
                        for r in 0..y.rows() {
                            let n = y.cols() as f32;
                            let mean_x = x.row(r).iter().sum::<f32>() / n;
                            let var =
                                x.row(r).iter().map(|v| (v - mean_x).powi(2)).sum::<f32>() / n;
                            let inv = 1.0 / (var + 1e-5).sqrt();
                            let mean_g = g.row(r).iter().sum::<f32>() / n;
                            let mean_gy = g
                                .row(r)
                                .iter()
                                .zip(y.row(r))
                                .map(|(gv, yv)| gv * yv)
                                .sum::<f32>()
                                / n;
                            for c in 0..y.cols() {
                                buf.push((g.get(r, c) - mean_g - y.get(r, c) * mean_gy) * inv);
                            }
                        }
                        let ga = Tensor::from_vec(y.rows(), y.cols(), buf);
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::NllLoss(logp, labels) => {
                        let v = &self.nodes[logp.0].value;
                        let scale = g.item() / labels.len().max(1) as f32;
                        let mut ga = arena::zeros(v.rows(), v.cols());
                        for (r, &l) in labels.iter().enumerate() {
                            ga.set(r, l, -scale);
                        }
                        arena::recycle(g);
                        accumulate(&mut grads, *logp, ga);
                    }
                    Op::MulConst(a, mask) => {
                        let mut ga = g;
                        for (x, &m) in ga.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                            *x *= m;
                        }
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::SumAll(a) => {
                        let va = &self.nodes[a.0].value;
                        let ga = arena::full(va.rows(), va.cols(), g.item());
                        arena::recycle(g);
                        accumulate(&mut grads, *a, ga);
                    }
                    Op::ConcatRows(parts) => {
                        let mut r = 0;
                        for &p in parts {
                            let rows = self.nodes[p.0].value.rows();
                            let cols = self.nodes[p.0].value.cols();
                            let mut buf = arena::take(rows * cols);
                            for i in 0..rows {
                                buf.extend_from_slice(g.row(r + i));
                            }
                            let gp = Tensor::from_vec(rows, cols, buf);
                            r += rows;
                            accumulate(&mut grads, p, gp);
                        }
                        arena::recycle(g);
                    }
                    Op::ConcatCols(parts) => {
                        let mut base = 0;
                        for &p in parts {
                            let rows = self.nodes[p.0].value.rows();
                            let cols = self.nodes[p.0].value.cols();
                            let mut buf = arena::take(rows * cols);
                            for r in 0..rows {
                                for c in 0..cols {
                                    buf.push(g.get(r, base + c));
                                }
                            }
                            let gp = Tensor::from_vec(rows, cols, buf);
                            base += cols;
                            accumulate(&mut grads, p, gp);
                        }
                        arena::recycle(g);
                    }
                }
            }
            let input_grads = inputs
                .iter()
                .zip(input_grads)
                .map(|(v, g)| {
                    g.unwrap_or_else(|| {
                        let t = self.value(*v);
                        arena::zeros(t.rows(), t.cols())
                    })
                })
                .collect();
            (out, input_grads)
        })
    }
}

impl Drop for Tape<'_> {
    fn drop(&mut self) {
        self.reset();
    }
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut grads[v.0] {
        Some(existing) => {
            existing.add_assign(&g);
            arena::recycle(g);
        }
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerically checks d loss / d param against finite differences.
    fn check_gradient(build: impl Fn(&mut Tape<'_>, Var) -> Var, init: Tensor, tol: f32) {
        let mut params = ParamSet::new();
        let id = params.add("w", init);
        // Analytic gradient.
        let analytic = {
            let mut tape = Tape::new(&params);
            let w = tape.param(id);
            let loss = build(&mut tape, w);
            tape.backward(loss).get(id).expect("param used").clone()
        };
        // Finite differences.
        let eps = 1e-3;
        let (rows, cols) = params.get(id).shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = params.get(id).get(r, c);
                params.get_mut(id).set(r, c, orig + eps);
                let plus = {
                    let mut tape = Tape::new(&params);
                    let w = tape.param(id);
                    build(&mut tape, w);
                    let loss_idx = tape.len() - 1;
                    tape.value(Var(loss_idx)).item()
                };
                params.get_mut(id).set(r, c, orig - eps);
                let minus = {
                    let mut tape = Tape::new(&params);
                    let w = tape.param(id);
                    build(&mut tape, w);
                    let loss_idx = tape.len() - 1;
                    tape.value(Var(loss_idx)).item()
                };
                params.get_mut(id).set(r, c, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                let got = analytic.get(r, c);
                assert!(
                    (numeric - got).abs() < tol,
                    "grad mismatch at ({r},{c}): numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::glorot(3, 4, &mut rng);
        check_gradient(
            move |tape, w| {
                let xin = tape.input(x.clone());
                let y = tape.matmul(xin, w);
                let y = tape.tanh(y);
                tape.mean_all(y)
            },
            Tensor::glorot(4, 2, &mut StdRng::seed_from_u64(12)),
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid_relu_add() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::glorot(2, 3, &mut rng);
        check_gradient(
            move |tape, w| {
                let xin = tape.input(x.clone());
                let s = tape.mul(xin, w);
                let s = tape.sigmoid(s);
                let r = tape.relu(s);
                let r2 = tape.add(r, s);
                tape.sum_all(r2)
            },
            Tensor::glorot(2, 3, &mut StdRng::seed_from_u64(22)),
            1e-2,
        );
    }

    #[test]
    fn grad_log_softmax_nll() {
        check_gradient(
            |tape, w| {
                let lp = tape.log_softmax(w);
                tape.nll_loss(lp, &[1, 0])
            },
            Tensor::from_vec(2, 3, vec![0.1, 0.5, -0.2, 0.3, -0.4, 0.8]),
            1e-2,
        );
    }

    #[test]
    fn grad_gather_segment_sum() {
        check_gradient(
            |tape, w| {
                let g = tape.gather(w, &[0, 1, 1, 2]);
                let s = tape.segment_sum(g, &[0, 0, 1, 1], 2);
                let s = tape.tanh(s);
                tape.sum_all(s)
            },
            Tensor::from_vec(3, 2, vec![0.5, -0.2, 0.1, 0.9, -0.7, 0.3]),
            1e-2,
        );
    }

    #[test]
    fn grad_segment_mean_and_max() {
        check_gradient(
            |tape, w| {
                let mean = tape.segment_mean(w, &[0, 0, 1], 2);
                let max = tape.segment_max(w, &[0, 0, 1], 2);
                let out = tape.add(mean, max);
                tape.sum_all(out)
            },
            Tensor::from_vec(3, 2, vec![0.5, -0.2, 0.1, 0.9, -0.7, 0.3]),
            1e-2,
        );
    }

    #[test]
    fn grad_pairwise_l1() {
        check_gradient(
            |tape, w| {
                let d = tape.pairwise_l1(w);
                let mask = Tensor::from_vec(3, 3, vec![0., 1., 0., 0., 0., 1., 0., 0., 0.]);
                let sel = tape.mul_const(d, &mask);
                tape.sum_all(sel)
            },
            Tensor::from_vec(3, 2, vec![0.9, -0.2, 0.1, 0.7, -0.5, 0.3]),
            1e-2,
        );
    }

    #[test]
    fn grad_add_row_and_matmul_t() {
        let mut rng = StdRng::seed_from_u64(31);
        let x = Tensor::glorot(3, 4, &mut rng);
        let b = Tensor::glorot(1, 3, &mut rng);
        check_gradient(
            move |tape, w| {
                let xin = tape.input(x.clone());
                let bin = tape.input(b.clone());
                let y = tape.matmul_t(xin, w); // [3,4]x[3,4]T -> [3,3]
                let y = tape.add_row(y, bin);
                let y = tape.sigmoid(y);
                tape.mean_all(y)
            },
            Tensor::glorot(3, 4, &mut StdRng::seed_from_u64(32)),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_and_transpose() {
        check_gradient(
            |tape, w| {
                let t = tape.transpose(w);
                let c = tape.concat_rows(&[t, t]);
                let c = tape.tanh(c);
                tape.sum_all(c)
            },
            Tensor::from_vec(2, 3, vec![0.2, -0.1, 0.4, 0.6, -0.3, 0.5]),
            1e-2,
        );
    }

    #[test]
    fn grad_exp() {
        check_gradient(
            |tape, w| {
                let e = tape.exp(w);
                tape.mean_all(e)
            },
            Tensor::from_vec(1, 3, vec![0.1, -0.5, 0.9]),
            1e-2,
        );
    }

    #[test]
    fn grad_row_norm() {
        check_gradient(
            |tape, w| {
                let n = tape.row_norm(w);
                let t = tape.tanh(n);
                tape.mean_all(t)
            },
            Tensor::from_vec(2, 4, vec![0.3, -0.6, 0.2, 0.8, 1.2, -0.1, 0.4, -0.9]),
            2e-2,
        );
    }

    #[test]
    fn grad_matmul_bias() {
        let mut rng = StdRng::seed_from_u64(41);
        let x = Tensor::glorot(3, 4, &mut rng);
        let b = Tensor::glorot(1, 2, &mut rng);
        check_gradient(
            move |tape, w| {
                let xin = tape.input(x.clone());
                let bin = tape.input(b.clone());
                let y = tape.matmul_bias(xin, w, bin);
                let y = tape.tanh(y);
                tape.mean_all(y)
            },
            Tensor::glorot(4, 2, &mut StdRng::seed_from_u64(42)),
            1e-2,
        );
    }

    #[test]
    fn grad_fused_gates_and_combine() {
        let mut rng = StdRng::seed_from_u64(51);
        let b = Tensor::glorot(2, 3, &mut rng);
        let row = Tensor::glorot(1, 3, &mut rng);
        check_gradient(
            move |tape, w| {
                let bin = tape.input(b.clone());
                let rin = tape.input(row.clone());
                let z = tape.add2_row_sigmoid(w, bin, rin);
                let cand = tape.add2_row_tanh(w, bin, rin);
                let h = tape.gru_combine(z, w, cand);
                tape.mean_all(h)
            },
            Tensor::glorot(2, 3, &mut StdRng::seed_from_u64(52)),
            1e-2,
        );
    }

    #[test]
    fn fused_ops_match_unfused_composition_bitwise() {
        // The same computation through the fused nodes and through the
        // naive composition must agree bit-for-bit — forward value AND
        // every parameter gradient.
        let mut rng = StdRng::seed_from_u64(61);
        let mut params = ParamSet::new();
        let a_id = params.add("a", Tensor::glorot(4, 5, &mut rng));
        let b_id = params.add("b", Tensor::glorot(4, 5, &mut rng));
        let r_id = params.add("r", Tensor::glorot(1, 5, &mut rng));
        let run = |fused: bool| {
            let mut tape = Tape::new(&params);
            let a = tape.param(a_id);
            let b = tape.param(b_id);
            let r = tape.param(r_id);
            let (z, cand, h) = if fused {
                let z = tape.add2_row_sigmoid(a, b, r);
                let cand = tape.add2_row_tanh(a, b, r);
                let h = tape.gru_combine(z, b, cand);
                (z, cand, h)
            } else {
                let s = tape.add(a, b);
                let s = tape.add_row(s, r);
                let z = tape.sigmoid(s);
                let t = tape.add(a, b);
                let t = tape.add_row(t, r);
                let cand = tape.tanh(t);
                let zh = tape.mul(z, b);
                let zc = tape.mul(z, cand);
                let keep = tape.sub(b, zh);
                let h = tape.add(keep, zc);
                (z, cand, h)
            };
            let _ = (z, cand);
            let loss = tape.mean_all(h);
            let value = tape.value(h).clone();
            let grads = tape.backward(loss);
            let gs: Vec<Vec<f32>> = [a_id, b_id, r_id]
                .iter()
                .map(|&id| grads.get(id).unwrap().as_slice().to_vec())
                .collect();
            (value, gs)
        };
        let (vf, gf) = run(true);
        let (vu, gu) = run(false);
        assert_eq!(vf.as_slice(), vu.as_slice(), "fused forward differs");
        assert_eq!(gf, gu, "fused gradients differ");
    }

    #[test]
    fn reset_recycles_and_preserves_results() {
        // Running the same computation twice through one reset tape must
        // give identical results, and the second run must reuse buffers.
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::from_vec(2, 2, vec![0.3, -0.2, 0.8, 0.1]));
        let mut tape = Tape::new(&params);
        let run = |tape: &mut Tape<'_>| {
            let w = tape.param(id);
            let s = tape.sigmoid(w);
            let loss = tape.mean_all(s);
            let grads = tape.backward(loss);
            (
                tape.value(loss).item(),
                grads.get(id).unwrap().as_slice().to_vec(),
            )
        };
        let first = run(&mut tape);
        tape.reset();
        assert!(tape.is_empty());
        let before = crate::arena::arena_stats();
        let second = run(&mut tape);
        let after = crate::arena::arena_stats();
        assert_eq!(first, second, "reset changed results");
        if kernel_mode() == KernelMode::Fast {
            assert!(
                after.reused > before.reused,
                "reset tape did not reuse buffers"
            );
        }
    }

    #[test]
    fn row_norm_standardises() {
        let params = ParamSet::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let n = tape.row_norm(x);
        let row = tape.value(n).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn grad_concat_cols() {
        check_gradient(
            |tape, w| {
                let c = tape.concat_cols(&[w, w]);
                let t = tape.tanh(c);
                tape.mean_all(t)
            },
            Tensor::from_vec(2, 2, vec![0.3, -0.6, 0.2, 0.8]),
            1e-2,
        );
    }

    #[test]
    fn segment_max_empty_segment_is_zero() {
        let params = ParamSet::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let m = tape.segment_max(x, &[0, 0], 3);
        assert_eq!(tape.value(m).row(1), &[0.0, 0.0]);
        assert_eq!(tape.value(m).row(0), &[3.0, 4.0]);
    }

    #[test]
    fn log_softmax_rows_normalise() {
        let params = ParamSet::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]));
        let lp = tape.log_softmax(x);
        for r in 0..2 {
            let total: f32 = tape.value(lp).row(r).iter().map(|&x| x.exp()).sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn unused_params_get_no_gradient() {
        let mut params = ParamSet::new();
        let used = params.add("used", Tensor::scalar(2.0));
        let unused = params.add("unused", Tensor::scalar(5.0));
        let mut tape = Tape::new(&params);
        let w = tape.param(used);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        assert!(grads.get(used).is_some());
        assert!(grads.get(unused).is_none());
    }

    #[test]
    fn shared_param_grads_accumulate() {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::scalar(3.0));
        let mut tape = Tape::new(&params);
        let a = tape.param(id);
        let b = tape.param(id);
        let s = tape.add(a, b); // loss = 2w -> dw = 2
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(id).unwrap().item(), 2.0);
    }

    #[test]
    fn backward_with_inputs_returns_input_gradients() {
        let params = ParamSet::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(Tensor::from_vec(1, 2, vec![2.0, -1.0]));
        let unused = tape.input(Tensor::from_vec(1, 3, vec![0.0, 0.0, 0.0]));
        let sq = tape.mul(x, x); // d(sum x^2)/dx = 2x
        let loss = tape.sum_all(sq);
        let (_, input_grads) = tape.backward_with_inputs(loss, &[x, unused]);
        assert_eq!(input_grads[0].as_slice(), &[4.0, -2.0]);
        // Inputs the loss ignores get a zero gradient of matching shape.
        assert_eq!(input_grads[1].shape(), (1, 3));
        assert!(input_grads[1].as_slice().iter().all(|&g| g == 0.0));
    }

    /// Splitting a computation over two tapes — a forward tape producing
    /// an intermediate, and a loss tape consuming it as an input — must
    /// yield the same parameter gradients as the single-tape run:
    /// `backward_with_inputs` extracts d loss / d intermediate, and
    /// `backward_from` pushes it through the forward tape.
    #[test]
    fn two_tape_split_matches_single_tape() {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::from_vec(1, 2, vec![0.7, -0.4]));

        // Single tape: loss = sum(tanh(w) * tanh(w)).
        let mut whole = Tape::new(&params);
        let w = whole.param(id);
        let t = whole.tanh(w);
        let sq = whole.mul(t, t);
        let loss = whole.sum_all(sq);
        let reference = whole.backward(loss);

        // Split: forward tape computes tanh(w); loss tape squares it.
        let mut forward = Tape::new(&params);
        let w = forward.param(id);
        let mid = forward.tanh(w);
        let mid_value = forward.value(mid).clone();

        let mut loss_tape = Tape::new(&params);
        let x = loss_tape.input(mid_value);
        let sq = loss_tape.mul(x, x);
        let loss = loss_tape.sum_all(sq);
        let (mut grads, input_grads) = loss_tape.backward_with_inputs(loss, &[x]);
        grads.merge(forward.backward_from(mid, input_grads.into_iter().next().unwrap()));

        let (r, s) = (reference.get(id).unwrap(), grads.get(id).unwrap());
        assert_eq!(r.shape(), s.shape());
        for (a, b) in r.as_slice().iter().zip(s.as_slice()) {
            assert!(
                (a - b).abs() < 1e-6,
                "split-tape gradient mismatch: {a} vs {b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward on a forward-only Tape")]
    fn backward_on_forward_only_tape_panics() {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::scalar(3.0));
        let mut tape = Tape::forward_only(&params);
        let w = tape.param(id);
        let loss = tape.sum_all(w);
        tape.backward(loss);
    }

    #[test]
    fn retain_frees_a_step_and_keeps_its_result() {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        let step = |tape: &mut Tape<'_>, h: Var| {
            let w = tape.param(id);
            let s = tape.mul(h, w);
            tape.tanh(s)
        };
        let run = |mut tape: Tape<'_>| {
            let mut h = tape.input(Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
            let mark = tape.len();
            let mut lens = Vec::new();
            for _ in 0..3 {
                h = step(&mut tape, h);
                h = tape.retain(mark, h);
                lens.push(tape.len());
            }
            (tape.value(h).clone(), lens)
        };
        let (recorded, rec_lens) = run(Tape::new(&params));
        let (forward, fwd_lens) = run(Tape::forward_only(&params));
        assert_eq!(recorded, forward);
        // A recording tape keeps every node; a forward-only tape keeps
        // the input plus the current state.
        assert_eq!(rec_lens, vec![4, 7, 10]);
        assert_eq!(fwd_lens, vec![2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "seed must match")]
    fn backward_from_rejects_mismatched_seed() {
        let params = ParamSet::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        tape.backward_from(x, Tensor::scalar(1.0));
    }
}
