//! Differentiable tensor operations.
//!
//! Each op computes its forward value eagerly and, when any input requires
//! grad (and grad recording is enabled), registers a backward closure on the
//! output node. Broadcasting binary ops walk the output row by row with
//! per-operand strides, and the backward pass reuses the same walk to
//! scatter gradients.

pub(crate) mod attention;
pub(crate) mod elementwise;
pub(crate) mod matmul;
pub(crate) mod qmm;
pub(crate) mod reduce;
pub(crate) mod shape_ops;
pub(crate) mod softmax;
