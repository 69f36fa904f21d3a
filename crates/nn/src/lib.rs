//! # typilus-nn
//!
//! A small tape-based automatic-differentiation library: the neural
//! substrate of the Typilus reproduction (the original system uses
//! TensorFlow, which is unavailable here). It provides dense `f32`
//! tensors, reverse-mode autodiff with the segment operations graph
//! neural networks need (gather, segment sum/mean/max, pairwise L1),
//! GRU cells, embeddings and Adam.
//!
//! ```
//! use typilus_nn::{ParamSet, Tape, Tensor};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::scalar(2.0));
//! let mut tape = Tape::new(&params);
//! let wv = tape.param(w);
//! let sq = tape.mul(wv, wv); // loss = w^2
//! let loss = tape.sum_all(sq);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(w).unwrap().item(), 4.0); // d(w^2)/dw = 2w
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod layers;
pub mod log;
pub mod mode;
pub mod optim;
pub mod par;
pub mod params;
pub mod pool;
pub mod profile;
pub mod segment;
pub mod simd;
pub mod tanh;
pub mod tape;
pub mod tensor;

pub use arena::{arena_stats, recycle_shared, reset_arena_stats, ArenaStats};
pub use layers::{Embedding, GruCell, Linear};
pub use log::{reset_warnings, warn_once, warning_count, warning_counts};
pub use mode::{kernel_mode, set_kernel_mode, KernelMode};
pub use optim::Adam;
pub use par::{parse_thread_spec, resolve_threads, try_resolve_threads, ThreadConfigError};
pub use params::{Gradients, ParamId, ParamSet};
pub use pool::{PoolCell, WorkerPool};
pub use profile::{
    profile_rows, profiling_enabled, report as profile_report, reset_profile, set_profiling,
    OpProfile,
};
pub use segment::SegmentPlan;
pub use simd::{available_widths, set_simd_width, simd_width, SimdWidth};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
