//! Portable explicit-width SIMD lanes for the dense kernels.
//!
//! This module defines [`F32x8`], a fixed-width 8-lane f32 vector written as
//! a plain array newtype so that rustc/LLVM autovectorize it (no intrinsics,
//! no `unsafe`), plus the two hot lane loops ([`dot_lanes`], [`axpy_lanes`])
//! shared by the matmul and fused-attention kernels.
//!
//! ## Reduction-order contract
//!
//! The parallel-determinism suite proves every kernel produces bitwise
//! identical results at any `TIMEKD_THREADS`. SIMD does not weaken that
//! contract — it *re-pins* it: lane-width blocking is part of the defined
//! reduction order, and each dense kernel has exactly one such order.
//!
//! - Dot-style reductions assign element `i` to lane `i % 8`; each lane
//!   accumulates in ascending order with a fused multiply-add chain; the 8
//!   lane partials combine with the fixed tree
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`; the `len % 8` tail folds in
//!   ascending order with scalar [`fmadd`].
//! - Matmul NN-style loops use one ascending-`k` fmadd chain per output
//!   element (register tiling over rows/columns never reorders a chain).
//!
//! `crates/tensor/tests/simd_equivalence.rs` restates both orders as plain
//! scalar loops and proves the kernels match them bitwise.

/// Scalar fused multiply-add with a deterministic per-build contract.
///
/// Compiles to a single `vfmadd` when the build target has FMA (the
/// committed `.cargo/config.toml` sets `target-cpu=native`); otherwise
/// falls back to `a * b + c` so that builds without hardware FMA never
/// hit the slow libm `fma` path. Within one build the choice is fixed,
/// which is all the determinism contract requires.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Eight f32 lanes in a plain array, aligned for one AVX2 register.
///
/// Every operation is written as a straight-line per-lane loop so LLVM's
/// SLP vectorizer lowers it to single vector instructions under
/// `target-cpu=native`, while remaining portable scalar code elsewhere.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
pub struct F32x8(pub [f32; 8]);

impl F32x8 {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// All-zero vector.
    pub const ZERO: F32x8 = F32x8([0.0; 8]);

    /// Broadcasts `x` into every lane.
    #[inline(always)]
    pub fn splat(x: f32) -> F32x8 {
        F32x8([x; 8])
    }

    /// Loads lanes from the first 8 elements of `src`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> F32x8 {
        let mut lanes = [0.0f32; 8];
        lanes.copy_from_slice(&src[..8]);
        F32x8(lanes)
    }

    /// Stores lanes into the first 8 elements of `dst`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..8].copy_from_slice(&self.0);
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, rhs: F32x8) -> F32x8 {
        let mut out = [0.0f32; 8];
        for l in 0..8 {
            out[l] = self.0[l] + rhs.0[l];
        }
        F32x8(out)
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, rhs: F32x8) -> F32x8 {
        let mut out = [0.0f32; 8];
        for l in 0..8 {
            out[l] = self.0[l] * rhs.0[l];
        }
        F32x8(out)
    }

    /// Lane-wise fused multiply-add: `self * b + c` via [`fmadd`].
    #[inline(always)]
    pub fn fma(self, b: F32x8, c: F32x8) -> F32x8 {
        let mut out = [0.0f32; 8];
        for l in 0..8 {
            out[l] = fmadd(self.0[l], b.0[l], c.0[l]);
        }
        F32x8(out)
    }

    /// Horizontal sum with the pinned tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

/// Pinned 8-lane dot product: `sum_i a[i] * b[i]` over `a.len()` elements.
///
/// Element `i` goes to lane `i % 8`; lanes accumulate ascending with fma;
/// partials combine via [`F32x8::hsum`]'s fixed tree; the tail folds
/// ascending with scalar [`fmadd`]. This is the reduction order for every
/// dot-style contraction (NT matmul, attention scores/context).
#[inline]
pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = F32x8::ZERO;
    let mut i = 0;
    while i + F32x8::LANES <= n {
        acc = F32x8::load(&a[i..]).fma(F32x8::load(&b[i..]), acc);
        i += F32x8::LANES;
    }
    let mut sum = acc.hsum();
    while i < n {
        sum = fmadd(a[i], b[i], sum);
        i += 1;
    }
    sum
}

/// Pinned lane-wise axpy: `dst[j] += a * x[j]` with one fma per element.
///
/// Each output element depends on exactly one product, so lane blocking
/// cannot reorder anything; the pin is simply "one fused round per
/// element".
#[inline]
pub fn axpy_lanes(dst: &mut [f32], a: f32, x: &[f32]) {
    let n = dst.len();
    let av = F32x8::splat(a);
    let mut j = 0;
    while j + F32x8::LANES <= n {
        let d = av.fma(F32x8::load(&x[j..]), F32x8::load(&dst[j..]));
        d.store(&mut dst[j..]);
        j += F32x8::LANES;
    }
    while j < n {
        dst[j] = fmadd(a, x[j], dst[j]);
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsum_uses_pinned_tree() {
        let v = F32x8([1e8, 1.0, -1e8, 1.0, 0.5, 0.25, -0.5, -0.25]);
        let l = v.0;
        let expected = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        assert_eq!(v.hsum().to_bits(), expected.to_bits());
    }

    #[test]
    fn dot_lanes_matches_blocked_scalar_reference() {
        for n in [0usize, 1, 7, 8, 9, 16, 37, 64, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            // Scalar replica of the pinned order: 8 lane accumulators,
            // ascending fmadd per lane, fixed combine tree, ascending tail.
            let mut lanes = [0.0f32; 8];
            let blocks = n / 8;
            for blk in 0..blocks {
                for l in 0..8 {
                    let i = blk * 8 + l;
                    lanes[l] = fmadd(a[i], b[i], lanes[l]);
                }
            }
            let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
            for i in blocks * 8..n {
                sum = fmadd(a[i], b[i], sum);
            }
            assert_eq!(dot_lanes(&a, &b).to_bits(), sum.to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_lanes_matches_per_element_fmadd() {
        for n in [0usize, 1, 7, 8, 13, 32, 53] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.19).sin()).collect();
            let mut dst: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos()).collect();
            let mut expect = dst.clone();
            for j in 0..n {
                expect[j] = fmadd(0.8125, x[j], expect[j]);
            }
            axpy_lanes(&mut dst, 0.8125, &x);
            for j in 0..n {
                assert_eq!(dst[j].to_bits(), expect[j].to_bits(), "n={n} j={j}");
            }
        }
    }
}
