//! Portable explicit-width SIMD lanes for the dense kernels.
//!
//! This module defines [`F32x8`], a fixed-width 8-lane f32 vector written as
//! a plain array newtype so that rustc/LLVM autovectorize it (no intrinsics,
//! no `unsafe`), the two hot lane loops ([`dot_lanes`], [`axpy_lanes`])
//! shared by the matmul and fused-attention kernels, the pinned
//! transcendentals ([`exp`], [`tanh`]) with their element-wise lane loops
//! ([`map_lanes`], [`update_lanes`]), and the fused AdamW update
//! ([`adamw_lanes`]).
//!
//! ## Reduction-order contract
//!
//! Every dense kernel has exactly one reduction order, and lane-width
//! blocking is part of it, so planned and dynamic execution (which call
//! the same kernels) agree bit for bit.
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
//!
//! ## Element-wise contract
//!
//! [`exp`] and [`tanh`] are branch-free mul/add polynomials with no fused
//! multiply-add and no libm call, so an element's bits depend only on its
//! input — not on the host's libm, its CPU or the build's target features.
//! Every element-wise lane loop is an [`F32x8`] body plus a scalar tail that
//! call the same scalar function, so an element gets the same bits in
//! either. Bounds against the exact function (the seeded tests assert 2
//! ULP; a sweep of all 2^32 inputs measured the worst case in brackets):
//!
//! - [`exp`]: at most 2 ULP (0.99) wherever the result is a normal float.
//!   Inputs below [`EXP_LO`], where the result would be subnormal, give
//!   exactly `+0.0`, as do `−inf` and the attention masks' `−1e9`; inputs
//!   above [`EXP_HI`] give `+inf`; NaN stays NaN.
//! - [`tanh`]: at most 2 ULP (1.33); `±inf` give `±1`, `−0.0` stays
//!   `−0.0`, NaN stays NaN.
//!
//! `crates/tensor/tests/simd_equivalence.rs` holds both to an f64 reference
//! and checks the special values and the lane/tail agreement.

/// Scalar fused multiply-add: `a * b + c` with one rounding, on every
/// build.
///
/// `f32::mul_add` is correctly rounded by definition, so its bits do not
/// depend on the build target: a target with FMA (the committed
/// `.cargo/config.toml` sets `target-cpu=native`) compiles it to one
/// `vfmadd`, and a target without it calls the software `fmaf`, which is
/// slower but gives the same bits.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
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

    /// Lane-wise `self + b`.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, b: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(|l| self.0[l] + b.0[l]))
    }

    /// Lane-wise fused multiply-add: `self * b + c` via [`fmadd`].
    #[inline(always)]
    pub fn fma(self, b: F32x8, c: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(|l| fmadd(self.0[l], b.0[l], c.0[l])))
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

/// Largest input whose [`exp`] is finite; larger inputs give `+inf`.
pub const EXP_HI: f32 = 88.722_83;

/// Smallest input [`exp`] evaluates; smaller inputs give exactly `+0.0`.
/// Just above `ln(f32::MIN_POSITIVE)`, so no result is ever subnormal
/// (subnormal arithmetic is many times slower on x86).
pub const EXP_LO: f32 = -87.33;

/// `1.5 · 2^23`: adding it rounds any `|v| < 2^22` to the nearest integer
/// (ties to even) in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln 2` split so that `n · LN2_HI` is exact for every `|n| ≤ 128`
/// (`LN2_HI` has nine significant bits).
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `e^r − 1 − r ≈ r² · P(r)` on `|r| ≤ ln 2 / 2` (Cephes `expf`), highest
/// degree first.
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// `tanh(x) ≈ x + x³ · T(x²)` on `|x| < 0.625` (Cephes `tanhf`), highest
/// degree first.
const TANH_T: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_909e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328e-1,
];

/// `2^n` for `n` in the normal exponent range `[-126, 127]`.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits(((n + 127) as u32) << 23)
}

/// Pinned `e^x`: the element function of every exp lane kernel.
///
/// `x = n·ln 2 + r` with `n` the nearest integer to `x·log2 e` and
/// `|r| ≲ ln 2 / 2` (Cody–Waite reduction, exact in its first step), then
/// `e^r ≈ 1 + r + r²·P(r)` by Horner and `e^x = e^r · 2^n`, scaled in two
/// exact power-of-two steps so `n = 128` needs no special case. The input
/// is clamped to `[EXP_LO, EXP_HI]` first and the ends are selected after,
/// so the arithmetic never sees an infinity or produces a subnormal. See
/// the module docs for the accuracy bound and special values.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // `clamp` passes NaN through.
    let xc = x.clamp(EXP_LO, EXP_HI);
    let k = xc * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = k - ROUND_MAGIC;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let q =
        ((((EXP_P[0] * r + EXP_P[1]) * r + EXP_P[2]) * r + EXP_P[3]) * r + EXP_P[4]) * r + EXP_P[5];
    let er = q * (r * r) + r + 1.0;
    // `n` as an integer, read back from the rounded sum's mantissa.
    let ni = k.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
    let half = ni >> 1;
    let y = er * pow2(half) * pow2(ni - half);
    let y = if x > EXP_HI { f32::INFINITY } else { y };
    let y = if x < EXP_LO { 0.0 } else { y };
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// Pinned `tanh x`: the element function of every tanh lane kernel.
///
/// An odd polynomial `|x| + |x|³·T(x²)` below `|x| = 0.625`, and
/// `1 − 2 / (exp(2|x|) + 1)` with the pinned [`exp`] above it; both are
/// computed and one is selected, then `x`'s sign is copied on. Large `|x|`
/// needs no cut-off: `exp` saturates to `+inf` and the quotient to `0`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ax = x.abs();
    let z = ax * ax;
    let poly = (((((TANH_T[0] * z + TANH_T[1]) * z + TANH_T[2]) * z + TANH_T[3]) * z + TANH_T[4])
        * z)
        * ax
        + ax;
    let sat = 1.0 - 2.0 / (exp(ax + ax) + 1.0);
    let t = if ax < 0.625 { poly } else { sat };
    let y = f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000));
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// Element-wise `out[j] = f([ins[0][j], …, ins[N-1][j]])` over
/// `out.len()` elements: an [`F32x8`] body plus a scalar tail, both calling
/// `f`, so each element's bits do not depend on where it falls. Every
/// input must be at least `out.len()` long.
#[inline(always)]
pub fn map_lanes<const N: usize>(ins: [&[f32]; N], out: &mut [f32], f: impl Fn([f32; N]) -> f32) {
    let n = out.len();
    let mut j = 0;
    while j + F32x8::LANES <= n {
        let v: [F32x8; N] = std::array::from_fn(|k| F32x8::load(&ins[k][j..]));
        F32x8(std::array::from_fn(|l| {
            f(std::array::from_fn(|k| v[k].0[l]))
        }))
        .store(&mut out[j..]);
        j += F32x8::LANES;
    }
    while j < n {
        out[j] = f(std::array::from_fn(|k| ins[k][j]));
        j += 1;
    }
}

/// In-place element-wise `x[j] = f(x[j])`, with [`map_lanes`]'s
/// body/tail contract.
#[inline(always)]
pub fn update_lanes(x: &mut [f32], f: impl Fn(f32) -> f32) {
    let n = x.len();
    let mut j = 0;
    while j + F32x8::LANES <= n {
        let v = F32x8::load(&x[j..]);
        F32x8(std::array::from_fn(|l| f(v.0[l]))).store(&mut x[j..]);
        j += F32x8::LANES;
    }
    while j < n {
        x[j] = f(x[j]);
        j += 1;
    }
}

/// One AdamW step's scalars: the hyper-parameters and the step's bias
/// corrections `1 − β^t`.
#[derive(Clone, Copy, Debug)]
pub struct AdamWStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// `1 − β₁^t`.
    pub bias1: f32,
    /// `1 − β₂^t`.
    pub bias2: f32,
}

impl AdamWStep {
    /// The scalars of step `t` (1-based). The bias corrections use libm's
    /// `powf`, once per step.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32, t: u64) -> AdamWStep {
        let t = t as f32;
        AdamWStep {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            bias1: 1.0 - beta1.powf(t),
            bias2: 1.0 - beta2.powf(t),
        }
    }

    /// One element's update: `(p, m, v)` after the step with gradient `g`.
    #[inline(always)]
    fn apply(&self, p: f32, g: f32, m: f32, v: f32) -> (f32, f32, f32) {
        let m = self.beta1 * m + (1.0 - self.beta1) * g;
        let v = self.beta2 * v + (1.0 - self.beta2) * g * g;
        let m_hat = m / self.bias1;
        let v_hat = v / self.bias2;
        let p = p - self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * p);
        (p, m, v)
    }
}

/// Fused AdamW over one parameter: updates `p`, its first moment `m` and
/// second moment `v` in place from the gradient `g`. Each element keeps
/// the scalar update's operation order (plain mul/add/div/sqrt, no fma),
/// so the [`F32x8`] body and the scalar tail give the scalar loop's bits.
pub fn adamw_lanes(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], step: &AdamWStep) {
    let n = p.len();
    let (g, m, v) = (&g[..n], &mut m[..n], &mut v[..n]);
    let mut j = 0;
    while j + F32x8::LANES <= n {
        let (pv, gv) = (F32x8::load(&p[j..]), F32x8::load(&g[j..]));
        let (mv, vv) = (F32x8::load(&m[j..]), F32x8::load(&v[j..]));
        let mut out = [F32x8::ZERO; 3];
        for l in 0..F32x8::LANES {
            let (pl, ml, vl) = step.apply(pv.0[l], gv.0[l], mv.0[l], vv.0[l]);
            out[0].0[l] = pl;
            out[1].0[l] = ml;
            out[2].0[l] = vl;
        }
        out[0].store(&mut p[j..]);
        out[1].store(&mut m[j..]);
        out[2].store(&mut v[j..]);
        j += F32x8::LANES;
    }
    while j < n {
        (p[j], m[j], v[j]) = step.apply(p[j], g[j], m[j], v[j]);
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
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let i = blk * 8 + l;
                    *lane = fmadd(a[i], b[i], *lane);
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

    #[test]
    fn adamw_lanes_matches_the_scalar_update_at_every_length() {
        // The scalar loop the dynamic optimizer and the plan executor ran
        // before the lane kernel, restated; three steps so the moments and
        // bias corrections evolve.
        for n in 0..=33usize {
            let init = |k: usize| -> Vec<f32> {
                (0..n).map(|i| ((i * 7 + k) as f32 * 0.31).sin()).collect()
            };
            let (mut p, mut m, mut v) = (init(1), vec![0.0f32; n], vec![0.0f32; n]);
            let (mut p_ref, mut m_ref, mut v_ref) = (p.clone(), m.clone(), v.clone());
            let (lr, beta1, beta2, eps, wd) = (0.05f32, 0.9f32, 0.999f32, 1e-8f32, 0.01f32);
            for t in 1..=3u64 {
                let g = init(t as usize * 5);
                let step = AdamWStep::new(lr, beta1, beta2, eps, wd, t);
                adamw_lanes(&mut p, &g, &mut m, &mut v, &step);
                let bias1 = 1.0 - beta1.powf(t as f32);
                let bias2 = 1.0 - beta2.powf(t as f32);
                for i in 0..n {
                    m_ref[i] = beta1 * m_ref[i] + (1.0 - beta1) * g[i];
                    v_ref[i] = beta2 * v_ref[i] + (1.0 - beta2) * g[i] * g[i];
                    let m_hat = m_ref[i] / bias1;
                    let v_hat = v_ref[i] / bias2;
                    p_ref[i] -= lr * (m_hat / (v_hat.sqrt() + eps) + wd * p_ref[i]);
                }
                for (got, want) in [(&p, &p_ref), (&m, &m_ref), (&v, &v_ref)] {
                    let (gb, wb): (Vec<u32>, Vec<u32>) = (
                        got.iter().map(|x| x.to_bits()).collect(),
                        want.iter().map(|x| x.to_bits()).collect(),
                    );
                    assert_eq!(gb, wb, "n={n} t={t}");
                }
            }
        }
    }
}
