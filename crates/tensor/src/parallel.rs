//! Thread count of the kernel layer.
//!
//! Every kernel runs on its calling thread: the dense matmul and fused
//! attention ops call the same `_block` kernels as the plan executors.

/// Threads a kernel call uses: always 1. Kept only because the benchmark
/// package records it in its host fingerprint.
pub fn configured_threads() -> usize {
    1
}
