//! Matrix multiplication: 2-D, batched 3-D, and the `[..., K] @ [K, N]`
//! contraction used by linear layers.
//!
//! The three accumulate kernels (`NN`, `TN`, `NT`) are the hottest code in
//! the workspace — nearly all teacher/student training wall-clock is
//! attention and linear-layer GEMMs routed through here. They are:
//!
//! - **explicit-width microkernels**: the NN loop runs 4-row × 16-column
//!   [`F32x8`] register tiles of fused multiply-adds, and the NT loop runs
//!   the pinned 8-lane [`simd::dot_lanes`] reduction for 8 outputs at
//!   once — one accumulator per lane class, combined by the same fixed
//!   tree — each with one pinned reduction order (see [`crate::simd`]);
//! - **packed**: both transposed variants pack one operand once per call
//!   so the hot loop streams contiguous rows. TN transposes its `[K, M]`
//!   operand, turning TN into the NN kernel; NT packs its `[N, K]` operand
//!   into 8-column panels `[N/8, K, 8]` ([`pack_nt_operand`]), so 8
//!   consecutive outputs take one vector load per contraction step;
//! - **parallel and bitwise deterministic**: work is partitioned into
//!   disjoint output-row blocks (batched matmul: batch chunks) via
//!   [`crate::parallel`]; every row is computed by exactly one task
//!   running the same serial code as the `TIMEKD_THREADS=1` path, so
//!   parallel results are bitwise identical to serial ones. Sizes below
//!   [`PARALLEL_MULS_CUTOFF`] never touch the pool, and
//!   [`min_rows_per_block`] keeps parallel blocks coarse enough to
//!   amortise dispatch.
//!
//! Naming contract with `timekd-check`: functions ending in `_block` are
//! per-block worker loops — no locks, no allocation, no I/O inside them
//! (enforced by the `no-*-in-worker` lint rules).

use crate::parallel;
use crate::shape::Shape;
use crate::simd::{self, F32x8};
use crate::tensor::Tensor;

/// Minimum multiply count (`m * k * n`) before a kernel call fans out to
/// the worker pool; below this, pool dispatch overhead would exceed the
/// kernel time, so tiny (test-scale) matrices always run serial.
const PARALLEL_MULS_CUTOFF: usize = 64 * 64 * 64;

/// Minimum output rows per parallel block, so the split never gets finer
/// than the register-blocked inner loops can amortise.
const MIN_ROWS_PER_BLOCK: usize = 4;

/// True when a `[m, k] x [k, n]` product is worth pool dispatch.
#[inline]
fn worth_parallel(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= PARALLEL_MULS_CUTOFF
}

/// Work-aware minimum rows per parallel block.
///
/// The flat [`MIN_ROWS_PER_BLOCK`] floor let wide-but-short shapes split
/// into blocks whose pool-dispatch overhead rivalled their kernel time:
/// the v4 kernel baseline's `mm_rect_512x64x256` row (in git history)
/// measured parallel *slower* than serial (18.8 vs 23.6 GFLOP/s). The
/// floor now scales so every block carries at least
/// [`PARALLEL_MULS_CUTOFF`] multiplies — the same "worth dispatching at
/// all" threshold — before the pool may split finer. Partition granularity
/// never affects results: every row block runs the same serial code at any
/// split, so this is purely a scheduling heuristic.
#[inline]
fn min_rows_per_block(k: usize, n: usize) -> usize {
    MIN_ROWS_PER_BLOCK.max(PARALLEL_MULS_CUTOFF.div_ceil(k.saturating_mul(n).max(1)))
}

/// NN worker loop: `out_block[i - i0, n] += a[i, k] * b[k, n]` for rows
/// `i0..i1`. `a` and `b` are the full operands; `out_block` is the
/// caller's exclusive row block.
///
/// Runs 4-row × 16-column [`F32x8`] register tiles of fused multiply-adds,
/// with 8-wide and scalar column tails and a single-row loop for
/// `rows % 4` remainders. Every output element accumulates exactly one
/// ascending-`k` fmadd chain (`acc = fmadd(a[i,kk], b[kk,j], acc)`) no
/// matter which tile path computes it — register tiling reorders the
/// *schedule*, never a chain — so the pinned order for NN is simply "one
/// fused round per `k`-step, ascending", identical at any thread count and
/// tile boundary.
pub(crate) fn mm_row_block(
    a: &[f32],
    b: &[f32],
    out_block: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
) {
    const L: usize = F32x8::LANES;
    let mut i = i0;
    while i + 4 <= i1 {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let r0 = (i - i0) * n;
        let (r1, r2, r3) = (r0 + n, r0 + 2 * n, r0 + 3 * n);
        let mut j = 0;
        while j + 2 * L <= n {
            let mut c00 = F32x8::load(&out_block[r0 + j..]);
            let mut c01 = F32x8::load(&out_block[r0 + j + L..]);
            let mut c10 = F32x8::load(&out_block[r1 + j..]);
            let mut c11 = F32x8::load(&out_block[r1 + j + L..]);
            let mut c20 = F32x8::load(&out_block[r2 + j..]);
            let mut c21 = F32x8::load(&out_block[r2 + j + L..]);
            let mut c30 = F32x8::load(&out_block[r3 + j..]);
            let mut c31 = F32x8::load(&out_block[r3 + j + L..]);
            for kk in 0..k {
                let brow = &b[kk * n + j..];
                let b0 = F32x8::load(brow);
                let b1 = F32x8::load(&brow[L..]);
                let s0 = F32x8::splat(a0[kk]);
                c00 = s0.fma(b0, c00);
                c01 = s0.fma(b1, c01);
                let s1 = F32x8::splat(a1[kk]);
                c10 = s1.fma(b0, c10);
                c11 = s1.fma(b1, c11);
                let s2 = F32x8::splat(a2[kk]);
                c20 = s2.fma(b0, c20);
                c21 = s2.fma(b1, c21);
                let s3 = F32x8::splat(a3[kk]);
                c30 = s3.fma(b0, c30);
                c31 = s3.fma(b1, c31);
            }
            c00.store(&mut out_block[r0 + j..]);
            c01.store(&mut out_block[r0 + j + L..]);
            c10.store(&mut out_block[r1 + j..]);
            c11.store(&mut out_block[r1 + j + L..]);
            c20.store(&mut out_block[r2 + j..]);
            c21.store(&mut out_block[r2 + j + L..]);
            c30.store(&mut out_block[r3 + j..]);
            c31.store(&mut out_block[r3 + j + L..]);
            j += 2 * L;
        }
        while j + L <= n {
            let mut c0 = F32x8::load(&out_block[r0 + j..]);
            let mut c1 = F32x8::load(&out_block[r1 + j..]);
            let mut c2 = F32x8::load(&out_block[r2 + j..]);
            let mut c3 = F32x8::load(&out_block[r3 + j..]);
            for kk in 0..k {
                let bv = F32x8::load(&b[kk * n + j..]);
                c0 = F32x8::splat(a0[kk]).fma(bv, c0);
                c1 = F32x8::splat(a1[kk]).fma(bv, c1);
                c2 = F32x8::splat(a2[kk]).fma(bv, c2);
                c3 = F32x8::splat(a3[kk]).fma(bv, c3);
            }
            c0.store(&mut out_block[r0 + j..]);
            c1.store(&mut out_block[r1 + j..]);
            c2.store(&mut out_block[r2 + j..]);
            c3.store(&mut out_block[r3 + j..]);
            j += L;
        }
        while j < n {
            let (mut t0, mut t1, mut t2, mut t3) = (
                out_block[r0 + j],
                out_block[r1 + j],
                out_block[r2 + j],
                out_block[r3 + j],
            );
            for kk in 0..k {
                let bv = b[kk * n + j];
                t0 = simd::fmadd(a0[kk], bv, t0);
                t1 = simd::fmadd(a1[kk], bv, t1);
                t2 = simd::fmadd(a2[kk], bv, t2);
                t3 = simd::fmadd(a3[kk], bv, t3);
            }
            out_block[r0 + j] = t0;
            out_block[r1 + j] = t1;
            out_block[r2 + j] = t2;
            out_block[r3 + j] = t3;
            j += 1;
        }
        i += 4;
    }
    while i < i1 {
        let a_row = &a[i * k..(i + 1) * k];
        let r0 = (i - i0) * n;
        let mut j = 0;
        while j + 2 * L <= n {
            let mut c0 = F32x8::load(&out_block[r0 + j..]);
            let mut c1 = F32x8::load(&out_block[r0 + j + L..]);
            for kk in 0..k {
                let brow = &b[kk * n + j..];
                let s = F32x8::splat(a_row[kk]);
                c0 = s.fma(F32x8::load(brow), c0);
                c1 = s.fma(F32x8::load(&brow[L..]), c1);
            }
            c0.store(&mut out_block[r0 + j..]);
            c1.store(&mut out_block[r0 + j + L..]);
            j += 2 * L;
        }
        while j + L <= n {
            let mut c0 = F32x8::load(&out_block[r0 + j..]);
            for kk in 0..k {
                c0 = F32x8::splat(a_row[kk]).fma(F32x8::load(&b[kk * n + j..]), c0);
            }
            c0.store(&mut out_block[r0 + j..]);
            j += L;
        }
        while j < n {
            let mut t = out_block[r0 + j];
            for kk in 0..k {
                t = simd::fmadd(a_row[kk], b[kk * n + j], t);
            }
            out_block[r0 + j] = t;
            j += 1;
        }
        i += 1;
    }
}

/// NT worker loop: `out[i - i0, j] += dot(a[i, :], b[j, :])` for rows
/// `i0..i1`, contracting over the shared last axis of length `k`. `out` is
/// the caller's exclusive row block and `panels` is `b` packed by
/// [`pack_nt_operand`].
///
/// Each output element is bitwise one [`simd::dot_lanes`] call: lane
/// class `l` (the elements `kk ≡ l mod 8`) accumulates ascending with
/// fma, the classes combine through the fixed tree
/// `((c0+c1)+(c2+c3)) + ((c4+c5)+(c6+c7))`, and the `k % 8` tail folds
/// ascending with fma. The kernel runs that order for 8 consecutive
/// outputs at once: one [`F32x8`] accumulator per lane class holds the 8
/// outputs' partials and takes one load of the packed panel per
/// contraction step, and the tree and the tail run as vector adds and
/// fmas. Two rows share each load. Columns past the last whole group of
/// 8, and an odd last row, call `dot_lanes` on the unpacked `b` rows. The
/// order is pinned per element, so it is independent of the row split.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn mm_nt_row_block(
    a: &[f32],
    b: &[f32],
    panels: &[f32],
    out: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
) {
    const L: usize = F32x8::LANES;
    let (a, m) = (&a[i0 * k..i1 * k], i1 - i0);
    if k == 0 {
        // Every dot product is empty: `dot_lanes` gives `+0`.
        for o in out.iter_mut() {
            *o += 0.0;
        }
        return;
    }
    let (k8, n8) = (k / L * L, n / L * L);
    // The exact panel length keeps the accumulators in registers.
    let panels = &panels[..n8 * k];
    let tree = |c: [F32x8; L]| {
        c[0].add(c[1])
            .add(c[2].add(c[3]))
            .add(c[4].add(c[5]).add(c[6].add(c[7])))
    };
    let mut i = 0;
    while i + 2 <= m {
        let r0 = &a[i * k..(i + 1) * k];
        let r1 = &a[(i + 1) * k..(i + 2) * k];
        for (g, panel) in panels.chunks_exact(k * L).enumerate() {
            let (mut c0, mut c1) = ([F32x8::ZERO; L], [F32x8::ZERO; L]);
            for ((blk, x0), x1) in panel[..k8 * L]
                .as_chunks::<{ L * L }>()
                .0
                .iter()
                .zip(r0.as_chunks::<L>().0)
                .zip(r1.as_chunks::<L>().0)
            {
                for l in 0..L {
                    let bv = F32x8::load(&blk[l * L..]);
                    c0[l] = F32x8::splat(x0[l]).fma(bv, c0[l]);
                    c1[l] = F32x8::splat(x1[l]).fma(bv, c1[l]);
                }
            }
            let (mut s0, mut s1) = (tree(c0), tree(c1));
            for kk in k8..k {
                let bv = F32x8::load(&panel[kk * L..]);
                s0 = F32x8::splat(r0[kk]).fma(bv, s0);
                s1 = F32x8::splat(r1[kk]).fma(bv, s1);
            }
            let j = g * L;
            F32x8::load(&out[i * n + j..])
                .add(s0)
                .store(&mut out[i * n + j..]);
            F32x8::load(&out[(i + 1) * n + j..])
                .add(s1)
                .store(&mut out[(i + 1) * n + j..]);
        }
        for j in n8..n {
            let b_row = &b[j * k..(j + 1) * k];
            out[i * n + j] += simd::dot_lanes(r0, b_row);
            out[(i + 1) * n + j] += simd::dot_lanes(r1, b_row);
        }
        i += 2;
    }
    if i < m {
        let r0 = &a[i * k..(i + 1) * k];
        for j in 0..n {
            out[i * n + j] += simd::dot_lanes(r0, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Length of the [`pack_nt_operand`] panels of an NT product with
/// `k`-long rows and `n` outputs: every whole group of 8 columns.
pub(crate) fn nt_panels_len(k: usize, n: usize) -> usize {
    n / F32x8::LANES * F32x8::LANES * k
}

/// Packs the `[n, k]` NT operand `b` into panels of 8 columns:
/// `panels[g][kk][c] = b[8g + c][kk]`, so one contraction step of 8
/// consecutive outputs is one contiguous load. `panels` must be
/// [`nt_panels_len`] long; columns past the last whole group of 8 stay
/// unpacked.
pub(crate) fn pack_nt_operand(b: &[f32], panels: &mut [f32], k: usize, n: usize) {
    const L: usize = F32x8::LANES;
    if k == 0 {
        return;
    }
    debug_assert_eq!(panels.len(), nt_panels_len(k, n));
    for (g, panel) in panels.chunks_exact_mut(k * L).enumerate() {
        let cols = &b[g * L * k..(g + 1) * L * k];
        for (kk, dst) in panel.as_chunks_mut::<L>().0.iter_mut().enumerate() {
            for (c, d) in dst.iter_mut().enumerate() {
                *d = cols[c * k + kk];
            }
        }
    }
}

/// Cache-blocked transpose of a `[rows, cols]` row-major buffer into a
/// fresh `[cols, rows]` buffer. Used to pack the TN operand once per call
/// so the hot loop can run the (contiguous-streaming) NN kernel.
fn pack_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut dst = vec![0.0f32; src.len()];
    pack_transpose_into(src, &mut dst, rows, cols);
    dst
}

/// Cache-blocked transpose into a caller-provided `[cols, rows]` buffer —
/// the allocation-free form used by plan executors and the attention
/// workers' head-panel packing. `dst` must be exactly `rows * cols` long.
pub(crate) fn pack_transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TB).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// `out[m, n] += a[m, k] * b[k, n]` over dense row-major buffers.
///
/// Partitioned across the worker pool by disjoint output-row blocks; each
/// row is computed by [`mm_row_block`] regardless of the split, so the
/// result is bitwise identical to the serial (`TIMEKD_THREADS=1`) path.
pub(crate) fn mm_accumulate(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if !worth_parallel(m, k, n) {
        timekd_obs::POOL_SERIAL_FALLBACK.add(1);
        mm_row_block(a, b, out, 0, m, k, n);
        return;
    }
    parallel::par_row_blocks(out, m, n, min_rows_per_block(k, n), |i0, i1, block| {
        mm_row_block(a, b, block, i0, i1, k, n);
    });
}

/// `out[m, n] += a[k, m]ᵀ * b[k, n]` (contract over the first axis of both).
///
/// Packs `a` as `[m, k]` once, then runs the row-blocked NN kernel — the
/// packed layout streams contiguously where the unpacked loop strided by
/// `m` on every step.
pub(crate) fn mm_tn_accumulate(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let at = pack_transpose(a, k, m);
    if !worth_parallel(m, k, n) {
        timekd_obs::POOL_SERIAL_FALLBACK.add(1);
        mm_row_block(&at, b, out, 0, m, k, n);
        return;
    }
    parallel::par_row_blocks(out, m, n, min_rows_per_block(k, n), |i0, i1, block| {
        mm_row_block(&at, b, block, i0, i1, k, n);
    });
}

/// `out[m, n] += a[m, k] * b[n, k]ᵀ` (contract over the last axis of both).
///
/// Packs `b` into 8-column panels once per call ([`pack_nt_operand`]),
/// so the lane-class kernel takes one contiguous load per contraction
/// step of 8 outputs; every output element keeps its [`simd::dot_lanes`]
/// order.
pub(crate) fn mm_nt_accumulate(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let mut panels = vec![0.0f32; nt_panels_len(k, n)];
    pack_nt_operand(b, &mut panels, k, n);
    if !worth_parallel(m, k, n) {
        timekd_obs::POOL_SERIAL_FALLBACK.add(1);
        mm_nt_row_block(a, b, &panels, out, 0, m, k, n);
        return;
    }
    parallel::par_row_blocks(out, m, n, min_rows_per_block(k, n), |i0, i1, block| {
        mm_nt_row_block(a, b, &panels, block, i0, i1, k, n);
    });
}

/// Runs `body(t, chunk_t)` over the `batch` disjoint chunks of `out`,
/// parallelising over the batch axis when there are at least as many
/// batches as threads (each per-batch kernel then runs serially inside
/// its task); otherwise the batch loop stays serial and the per-batch
/// kernels parallelise internally over rows. Both schedules are bitwise
/// identical because every output row is computed by the same serial
/// worker loop either way.
fn for_each_batch(
    out: &mut [f32],
    chunk_len: usize,
    batch: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if batch >= parallel::effective_threads() {
        parallel::par_chunks(out, chunk_len, batch, body);
    } else {
        for (t, chunk) in out.chunks_mut(chunk_len).enumerate() {
            body(t, chunk);
        }
    }
}

impl Tensor {
    /// Matrix product.
    ///
    /// Supported shapes:
    /// - `[M, K] @ [K, N] -> [M, N]`
    /// - `[B, M, K] @ [B, K, N] -> [B, M, N]` (batched)
    /// - `[B, M, K] @ [K, N] -> [B, M, N]` (shared right operand, e.g. a
    ///   linear layer applied per batch)
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (ar, br) = (self.shape().rank(), other.shape().rank());
        match (ar, br) {
            (2, 2) => self.matmul_2d(other),
            (3, 3) => self.matmul_batched(other),
            (3, 2) => self.matmul_3d_2d(other),
            _ => panic!(
                "matmul: unsupported ranks {} x {} (shapes {} and {})",
                ar,
                br,
                self.shape(),
                other.shape()
            ),
        }
    }

    fn matmul_2d(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k,
            k2,
            "matmul: inner dims differ: {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = vec![0.0f32; m * n];
        mm_accumulate(&self.data(), &other.data(), &mut out, m, k, n);
        Tensor::from_op(
            "matmul_2d",
            out,
            Shape::new([m, n]),
            vec![self.clone(), other.clone()],
            Box::new(move |grad, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                if a.requires_grad() {
                    // gA = gC @ Bᵀ
                    let mut ga = vec![0.0f32; m * k];
                    mm_nt_accumulate(grad, &b.data(), &mut ga, m, n, k);
                    a.accumulate_grad(&ga);
                }
                if b.requires_grad() {
                    // gB = Aᵀ @ gC
                    let mut gb = vec![0.0f32; k * n];
                    mm_tn_accumulate(&a.data(), grad, &mut gb, k, m, n);
                    b.accumulate_grad(&gb);
                }
            }),
        )
    }

    fn matmul_batched(&self, other: &Tensor) -> Tensor {
        let (ba, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (bb, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(ba, bb, "batched matmul: batch dims differ");
        assert_eq!(k, k2, "batched matmul: inner dims differ");
        let mut out = vec![0.0f32; ba * m * n];
        {
            let a_ref = self.data();
            let b_ref = other.data();
            let (a, b): (&[f32], &[f32]) = (&a_ref, &b_ref);
            for_each_batch(&mut out, m * n, ba, |t, chunk| {
                mm_accumulate(
                    &a[t * m * k..(t + 1) * m * k],
                    &b[t * k * n..(t + 1) * k * n],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        }
        Tensor::from_op(
            "matmul_batched",
            out,
            Shape::new([ba, m, n]),
            vec![self.clone(), other.clone()],
            Box::new(move |grad, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                if a.requires_grad() {
                    let b_ref = b.data();
                    let b_data: &[f32] = &b_ref;
                    let mut ga = vec![0.0f32; ba * m * k];
                    for_each_batch(&mut ga, m * k, ba, |t, chunk| {
                        mm_nt_accumulate(
                            &grad[t * m * n..(t + 1) * m * n],
                            &b_data[t * k * n..(t + 1) * k * n],
                            chunk,
                            m,
                            n,
                            k,
                        );
                    });
                    drop(b_ref);
                    a.accumulate_grad(&ga);
                }
                if b.requires_grad() {
                    let a_ref = a.data();
                    let a_data: &[f32] = &a_ref;
                    let mut gb = vec![0.0f32; ba * k * n];
                    for_each_batch(&mut gb, k * n, ba, |t, chunk| {
                        mm_tn_accumulate(
                            &a_data[t * m * k..(t + 1) * m * k],
                            &grad[t * m * n..(t + 1) * m * n],
                            chunk,
                            k,
                            m,
                            n,
                        );
                    });
                    drop(a_ref);
                    b.accumulate_grad(&gb);
                }
            }),
        )
    }

    fn matmul_3d_2d(&self, other: &Tensor) -> Tensor {
        let (ba, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul 3dx2d: inner dims differ");
        // Treat as a single [B*M, K] @ [K, N].
        let mut out = vec![0.0f32; ba * m * n];
        mm_accumulate(&self.data(), &other.data(), &mut out, ba * m, k, n);
        Tensor::from_op(
            "matmul_3d_2d",
            out,
            Shape::new([ba, m, n]),
            vec![self.clone(), other.clone()],
            Box::new(move |grad, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                if a.requires_grad() {
                    let mut ga = vec![0.0f32; ba * m * k];
                    mm_nt_accumulate(grad, &b.data(), &mut ga, ba * m, n, k);
                    a.accumulate_grad(&ga);
                }
                if b.requires_grad() {
                    let mut gb = vec![0.0f32; k * n];
                    mm_tn_accumulate(&a.data(), grad, &mut gb, k, ba * m, n);
                    b.accumulate_grad(&gb);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_2d_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        // [[1,2],[3,4]] @ [[5,6],[7,8]] = [[19,22],[43,50]]
        assert_eq!(a.matmul(&b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn mm_rectangular() {
        let a = Tensor::from_vec((1..=6).map(|x| x as f32).collect(), [2, 3]);
        let b = Tensor::from_vec((1..=12).map(|x| x as f32).collect(), [3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 4]);
        assert_eq!(c.at(&[0, 0]), 1.0 * 1.0 + 2.0 * 5.0 + 3.0 * 9.0);
        assert_eq!(c.at(&[1, 3]), 4.0 * 4.0 + 5.0 * 8.0 + 6.0 * 12.0);
    }

    #[test]
    fn mm_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(a.matmul(&i).to_vec(), a.to_vec());
        assert_eq!(i.matmul(&a).to_vec(), a.to_vec());
    }

    #[test]
    fn mm_grad() {
        // L = sum(A @ B): gA = rowsum over B's columns, gB likewise.
        let a = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::param(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        a.matmul(&b).sum().backward();
        // gA = 1s @ Bᵀ = [[11, 15], [11, 15]]
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        // gB = Aᵀ @ 1s = [[4, 4], [6, 6]]
        assert_eq!(b.grad().unwrap(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn batched_matches_per_batch() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [2, 2, 3]);
        let b = Tensor::from_vec((0..18).map(|x| x as f32 * 0.5).collect(), [2, 3, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 3]);
        // Check batch 1 manually against 2-D matmul.
        let a1 = Tensor::from_vec(a.to_vec()[6..12].to_vec(), [2, 3]);
        let b1 = Tensor::from_vec(b.to_vec()[9..18].to_vec(), [3, 3]);
        let c1 = a1.matmul(&b1);
        assert_eq!(&c.to_vec()[6..12], c1.to_vec().as_slice());
    }

    #[test]
    fn batched_grad_flows() {
        let a = Tensor::param(vec![1.0; 12], [2, 2, 3]);
        let b = Tensor::param(vec![1.0; 18], [2, 3, 3]);
        a.matmul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![3.0; 12]);
        assert_eq!(b.grad().unwrap(), vec![2.0; 18]);
    }

    #[test]
    fn mm_3d_2d_like_linear() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [2, 2, 3]);
        let w = Tensor::from_vec(vec![1.0; 12], [3, 4]);
        let y = x.matmul(&w);
        assert_eq!(y.dims(), &[2, 2, 4]);
        // Every output = sum of the 3 inputs in that row.
        assert_eq!(y.at(&[0, 0, 0]), 0.0 + 1.0 + 2.0);
        assert_eq!(y.at(&[1, 1, 3]), 9.0 + 10.0 + 11.0);
    }

    #[test]
    fn mm_3d_2d_grad() {
        let x = Tensor::param(vec![1.0; 6], [1, 2, 3]);
        let w = Tensor::param(vec![2.0; 6], [3, 2]);
        x.matmul(&w).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![4.0; 6]);
        assert_eq!(w.grad().unwrap(), vec![2.0; 6]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn mm_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn kernel_tn_nt_consistency() {
        // (AᵀB)ᵀ == Bᵀ A — check kernels against each other.
        let a: Vec<f32> = (0..6).map(|x| x as f32 + 1.0).collect(); // [3,2] as k=3,m=2
        let b: Vec<f32> = (0..9).map(|x| x as f32 * 0.5).collect(); // [3,3]
        let mut tn = vec![0.0; 2 * 3];
        mm_tn_accumulate(&a, &b, &mut tn, 2, 3, 3);
        // Build Aᵀ explicitly and use plain mm.
        let mut at = vec![0.0; 6];
        for k in 0..3 {
            for m in 0..2 {
                at[m * 3 + k] = a[k * 2 + m];
            }
        }
        let mut plain = vec![0.0; 6];
        mm_accumulate(&at, &b, &mut plain, 2, 3, 3);
        assert_eq!(tn, plain);
    }

    #[test]
    fn pack_transpose_roundtrip() {
        // Rectangular transpose, including a shape larger than one 32-wide
        // transpose tile in each direction.
        let (rows, cols) = (37, 41);
        let src: Vec<f32> = (0..rows * cols).map(|v| v as f32).collect();
        let dst = pack_transpose(&src, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(dst[c * rows + r], src[r * cols + c]);
            }
        }
        let back = pack_transpose(&dst, cols, rows);
        assert_eq!(back, src);
    }

    #[test]
    fn blocked_kernels_match_naive_reference() {
        // The register-blocked loops must agree with a plain triple loop on
        // exactly-representable inputs (integer-valued f32s), where every
        // summation order yields the same exact result.
        let (m, k, n) = (5, 7, 6);
        let a: Vec<f32> = (0..m * k).map(|v| (v % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v % 7) as f32 - 3.0).collect();
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    naive[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        let mut blocked = vec![0.0f32; m * n];
        mm_accumulate(&a, &b, &mut blocked, m, k, n);
        assert_eq!(blocked, naive);

        // NT against the same reference with B laid out as [n, k].
        let mut bt = vec![0.0f32; k * n];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut nt = vec![0.0f32; m * n];
        mm_nt_accumulate(&a, &bt, &mut nt, m, k, n);
        assert_eq!(nt, naive);
    }
}
