//! The optimizer: Adam (the paper's stack uses Adam-family training).

use crate::params::{Gradients, ParamId, ParamSet};
use crate::pool::WorkerPool;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One detached per-parameter Adam update: the parameter, its two
/// moment tensors and its gradient, moved out of their owners so a
/// worker thread can update them without touching shared state.
struct AdamTask {
    id: ParamId,
    p: Tensor,
    m: Tensor,
    v: Tensor,
    g: Tensor,
}

/// Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Max global gradient norm; gradients are rescaled above it.
    pub clip_norm: Option<f32>,
    t: u64,
    m: BTreeMap<ParamId, Tensor>,
    v: BTreeMap<ParamId, Tensor>,
}

impl Adam {
    /// Creates Adam with standard hyperparameters and the given rate.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            t: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        }
    }

    /// Applies one update step from `grads` onto `params`.
    pub fn step(&mut self, params: &mut ParamSet, grads: Gradients) {
        self.step_impl(params, grads, None);
    }

    /// Like [`Adam::step`], but spreads the per-parameter elementwise
    /// updates across `pool`'s workers. Every scalar's update reads and
    /// writes only its own parameter/moment/gradient slots, so splitting
    /// the work by parameter reorders no floating-point operation: the
    /// result is byte-identical to the sequential [`Adam::step`] at any
    /// worker count. Gradient clipping — a global reduction whose
    /// summation order matters — stays sequential.
    pub fn step_pooled(&mut self, params: &mut ParamSet, grads: Gradients, pool: &WorkerPool) {
        self.step_impl(params, grads, Some(pool));
    }

    fn step_impl(
        &mut self,
        params: &mut ParamSet,
        mut grads: Gradients,
        pool: Option<&WorkerPool>,
    ) {
        if let Some(max_norm) = self.clip_norm {
            let norm = grads.global_norm();
            if norm > max_norm {
                grads.scale(max_norm / norm);
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Detach one owned task per parameter, in ascending id order:
        // moments and parameter tensors are moved out (the parameter
        // slot is left holding an empty, allocation-free placeholder)
        // and restored in the same order after the updates complete.
        let mut tasks: Vec<AdamTask> = grads
            .into_pairs()
            .map(|(id, g)| {
                let shape = g.shape();
                let m = self
                    .m
                    .remove(&id)
                    .unwrap_or_else(|| Tensor::zeros(shape.0, shape.1));
                let v = self
                    .v
                    .remove(&id)
                    .unwrap_or_else(|| Tensor::zeros(shape.0, shape.1));
                let p = std::mem::replace(params.get_mut(id), Tensor::zeros(0, 0));
                debug_assert_eq!(p.shape(), shape, "gradient shape mismatch for {id:?}");
                AdamTask { id, p, m, v, g }
            })
            .collect();
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let update = |t: &mut AdamTask| {
            for i in 0..t.g.len() {
                let gi = t.g.as_slice()[i];
                let mi = beta1 * t.m.as_slice()[i] + (1.0 - beta1) * gi;
                let vi = beta2 * t.v.as_slice()[i] + (1.0 - beta2) * gi * gi;
                t.m.as_mut_slice()[i] = mi;
                t.v.as_mut_slice()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                t.p.as_mut_slice()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        };
        match pool {
            Some(pool) if pool.threads() > 1 && tasks.len() > 1 => {
                pool.map_ordered_mut(&mut tasks, |_, t| update(t));
            }
            _ => {
                for t in &mut tasks {
                    update(t);
                }
            }
        }
        // Reattach in the same ascending id order, and return the spent
        // gradient buffers to the shared arena pool (they were
        // allocated on worker threads; see `Gradients::recycle`).
        for t in tasks {
            *params.get_mut(t.id) = t.p;
            self.m.insert(t.id, t.m);
            self.v.insert(t.id, t.v);
            crate::arena::recycle_shared(t.g);
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimises (w - 3)^2 and expects convergence to 3.
    fn quadratic_descent(mut step: impl FnMut(&mut ParamSet, Gradients)) -> f32 {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::scalar(0.0));
        for _ in 0..500 {
            let grads = {
                let mut tape = Tape::new(&params);
                let w = tape.param(id);
                let three = tape.input(Tensor::scalar(3.0));
                let c = tape.sub(w, three);
                let sq = tape.mul(c, c);
                let loss = tape.sum_all(sq);
                tape.backward(loss)
            };
            step(&mut params, grads);
        }
        params.get(id).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let w = quadratic_descent(|p, g| adam.step(p, g));
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn pooled_step_is_bitwise_identical_to_sequential() {
        let mut seq_params = ParamSet::new();
        let ids: Vec<ParamId> = (0..5)
            .map(|k| seq_params.add(format!("w{k}"), Tensor::full(3, 2, 0.5 + k as f32)))
            .collect();
        let mut pooled_params = seq_params.clone();
        let mut seq = Adam::new(0.01);
        let mut pooled = seq.clone();
        let pool = WorkerPool::new(3);
        for step_no in 0..5 {
            let mut gs = Gradients::new();
            let mut gp = Gradients::new();
            for (k, &id) in ids.iter().enumerate() {
                let g = Tensor::full(3, 2, 0.25 * (k as f32 + 1.0) - step_no as f32 * 0.1);
                gs.accumulate(id, g.clone());
                gp.accumulate(id, g);
            }
            seq.step(&mut seq_params, gs);
            pooled.step_pooled(&mut pooled_params, gp, &pool);
        }
        assert_eq!(seq.steps(), pooled.steps());
        for &id in &ids {
            let a: Vec<u32> = seq_params
                .get(id)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = pooled_params
                .get(id)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "parameter {id:?} diverged");
        }
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::scalar(0.0));
        let mut grads = Gradients::new();
        grads.accumulate(id, Tensor::scalar(1e6));
        let mut adam = Adam::new(0.1);
        adam.step(&mut params, grads);
        // A huge gradient must not produce a huge step.
        assert!(params.get(id).item().abs() < 1.0);
    }
}
