//! # timekd-tensor
//!
//! A small, dependency-light CPU tensor library with reverse-mode autograd,
//! built as the numerical substrate of the TimeKD reproduction.
//!
//! Features:
//! - dense row-major f32 tensors of arbitrary rank ([`Tensor`], [`Shape`]);
//! - NumPy-style broadcasting for all element-wise ops;
//! - 2-D, batched 3-D, and `[B, M, K] @ [K, N]` matrix products;
//! - reductions, numerically stable softmax / log-softmax / cross-entropy,
//!   the Smooth-L1 loss of the TimeKD paper (Eq. 17), and the activations
//!   its models use (ReLU, GELU, tanh, sigmoid);
//! - shape surgery (reshape, permute, slice, concat, gather) with exact
//!   gradient scatter;
//! - reverse-mode autodiff over the recorded DAG with a [`no_grad`]
//!   inference scope;
//! - single-threaded, bitwise deterministic kernels that the dynamic
//!   engine and the compiled plans ([`plan`], [`plan_train`]) share;
//! - explicit-width `f32x8` microkernels ([`simd`]) with one pinned
//!   lane-blocked reduction order;
//! - seedable initialisers and finite-difference gradient-check utilities;
//! - a compact binary tensor format for model checkpoints ([`io`]);
//! - graph introspection and auditing ([`GraphAudit`]) plus an opt-in
//!   numeric sanitizer (`--features sanitize`) that traps NaN outputs at
//!   the op that produced them and prints its provenance chain.
//!
//! ## Example
//!
//! ```
//! use timekd_tensor::{seeded_rng, Tensor};
//!
//! let mut rng = seeded_rng(0);
//! let w = Tensor::xavier_uniform([3, 2], &mut rng);
//! let x = Tensor::randn([4, 3], 1.0, &mut rng);
//! let loss = x.matmul(&w).square().mean();
//! loss.backward();
//! assert_eq!(w.grad().unwrap().len(), 6);
//! ```

#![deny(
    unused_must_use,
    unused_imports,
    unused_variables,
    dead_code,
    unreachable_patterns,
    missing_debug_implementations
)]
#![warn(missing_docs)]

pub mod audit;
pub mod bytes;
mod grad_check;
mod init;
pub mod io;
mod ops;
pub mod parallel;
pub mod plan;
pub mod plan_train;
pub mod recorder;
pub mod rng;
#[cfg(feature = "sanitize")]
pub mod sanitize;
mod shape;
pub mod simd;
pub mod symbolic;
mod tensor;

pub use audit::{AuditIssue, GraphAudit, GraphStats, NodeSummary};
pub use grad_check::{assert_gradients_close, check_gradient, GradCheckReport};
pub use init::{sample_standard_normal, seeded_rng};
pub use ops::attention::NEG_INF;
pub use plan::{
    Plan, PlanError, PlanExecutor, PlanFault, PlanOp, PlanSlot, PlanSpec, PlanStep, PlanValue,
    Precision, ValueId, ValueSource,
};
pub use plan_train::{BwdStep, GradMode, PlanOptimizer, TrainExecutor, TrainSpec, UpdateStep};
pub use recorder::{RecordedNode, Recorder, ReplayError, Rewrite};
pub use rng::SeededRng;
pub use shape::{IndexIter, Shape};
pub use simd::F32x8;
pub use symbolic::{find_path, reachable_params, SymAttr, SymCtx, SymbolicTensor};
pub use tensor::{is_grad_disabled, is_recording, no_grad, record, Tensor};
