//! Differentiable tensor operations.
//!
//! Each op computes its forward value eagerly and, when any input requires
//! grad (and grad recording is enabled), registers a backward closure on the
//! output node. The arithmetic of both passes lives in slice-in/slice-out
//! kernels that the plan executors call too: [`kernels`] for the
//! element-wise, reduction and permute ops (broadcasting binary ops walk the
//! output row by row with per-operand offsets and steps, and the backward
//! reuses the same walk to scatter gradients), [`matmul`] and [`attention`]
//! for the row-block products.

pub(crate) mod attention;
pub(crate) mod elementwise;
pub(crate) mod kernels;
pub(crate) mod matmul;
pub(crate) mod reduce;
pub(crate) mod shape_ops;
pub(crate) mod softmax;
