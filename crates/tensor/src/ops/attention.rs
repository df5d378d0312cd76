//! Fused scaled-dot-product attention: `softmax(QK^T/√dh + mask) V` as a
//! single graph node with a hand-derived analytic backward.
//!
//! The composed formulation (matmul → scale → add → softmax → matmul →
//! merge) materializes the `[H, T_q, T_k]` probability tensor twice (once
//! as op output, once as the softmax backward's saved copy) and records
//! ~10 graph nodes per attention call. The fused op keeps only two
//! per-row softmax statistics — the running max `m` and the normalizer
//! `l`, `[T_q, H]` floats each — and recomputes probabilities pointwise in
//! the backward pass, so graph memory per call drops from
//! `O(H·T_q·T_k)` to `O(T_q·(H + T_k + D))`.
//!
//! Two nodes are emitted per call:
//!
//! - `fused_attention`: the head-merged context `[T_q, H·dh]` (the
//!   `merge_heads` permute + reshape are folded into the output layout),
//!   with gradient parents `[Q, K, V]`;
//! - `fused_attention_map`: the head-averaged attention map `[T_q, T_k]`,
//!   with gradient parents `[Q, K]` — differentiable because correlation
//!   distillation (paper Eq. 24) trains *through* the student's map.
//!
//! A mask, when given, is the last parent of both nodes; it is a constant
//! and never takes a gradient.
//!
//! The two backward closures are fully independent: the softmax Jacobian
//! is linear in the upstream probability gradient, so each closure derives
//! its own `dP`, row statistic `D_i = Σ_j dP_ij P_ij`, and
//! `dS_ij = P_ij (dP_ij − D_i)`, and the engine's `accumulate_grad` sums
//! the two contributions on `Q` and `K` in (deterministic) topological
//! order.
//!
//! ## Kernels and determinism
//!
//! Every call runs on the calling thread, through the same `_block`
//! kernels the plan executors call, so planned and dynamic attention
//! agree bit for bit. The kernels pack the head panels they read into
//! `[dh, T_k]` scratch so the hot loops are contiguous length-`T_k`
//! `axpy`/dot sweeps (vectorizable), instead of `T_k` short length-`dh`
//! dots. The forward ([`attn_fwd_row_block`]) visits heads outermost, and
//! each row accumulates its share of the averaged map across heads in
//! ascending order. The backward ([`attn_bwd_block`]) runs two passes per
//! head: pass A recomputes `P` from the saved statistics (same packed
//! accumulation order as the forward, so bit-identical scores), computes
//! `dQ`, and stores `P` and `dS` into transient scratch — never retained
//! across forward/backward like the composed chain's saved softmax
//! output; pass B is then pure accumulation of `dK`/`dV`, with a
//! fixed-order query loop and every output element an independent sum.
//!
//! The length-`T_k` dot/axpy sweeps are [`simd::dot_lanes`] and
//! [`simd::axpy_lanes`], whose 8-lane fused-multiply-add blocking is the
//! one pinned reduction order (see [`crate::simd`]). The head panels are
//! packed with the matmul kernels' cache-blocked transpose.
//!
//! ## Forbidden keys
//!
//! A mask bias at or below [`NEG_INF`] (−1e9) forbids a key. Each query
//! row visits only its *live* keys: `0..n` where `n` is one past the last
//! key whose bias is above `NEG_INF`, rounded up to the 8-lane width and
//! capped at `T_k`. The forward kernel and pass A truncate their score,
//! probability and `dS` rows to `n`; pass B truncates (or skips) each
//! query row's contribution to its keys the same way. Unmasked calls
//! — which includes every plan executor — keep all `T_k` keys, and so
//! does a row with no allowed key at all (its softmax spreads over the
//! forbidden keys as before). The counts are computed once per mask,
//! never inside a `_block` kernel.
//!
//! The skip is exact, not an approximation. A forbidden score sits about
//! 1e9 below every allowed one, so it never sets the row max and its
//! probability `exp(s − m)` is exactly `+0` (the pinned [`simd::exp`]
//! flushes every input below [`simd::EXP_LO`] to `+0`); its `dS` is then
//! `±0`, so every skipped term would add `±0` to its accumulator. That is
//! a no-op: the accumulators start at `+0`, a round-to-nearest sum that
//! starts at `+0` never becomes `−0`, and `x + ±0 = x` for every other
//! `x`. Rounding `n` up to whole lanes keeps every visited key in its
//! lane `j % 8` of [`simd::dot_lanes`], so outputs, maps, statistics and
//! gradients are bitwise identical to visiting all `T_k` keys.
//!
//! Naming contract with `timekd-check`: functions ending in `_block` are
//! kernel loops — no locks, no allocation, no I/O inside them. Their
//! scratch is preallocated by the caller ([`AttnBwdScratch`] for the
//! backward).

use std::rc::Rc;

use crate::ops::matmul::pack_transpose_into;
use crate::shape::Shape;
use crate::simd::{self, F32x8};
use crate::symbolic::SymAttr;
use crate::tensor::Tensor;

/// Additive mask bias that forbids a key. Masks built from it (the causal
/// and calibrated masks) let the kernels skip trailing forbidden keys; see
/// the module docs ("Forbidden keys").
pub const NEG_INF: f32 = -1e9;

/// Per-row softmax statistics saved by the forward pass and shared (via
/// `Rc`) by both backward closures: `m[i·H + h]` is the row max of the
/// scaled masked scores, `l[i·H + h]` the sum of `exp(s − m)` over keys.
struct SoftmaxStats {
    m: Vec<f32>,
    l: Vec<f32>,
}

/// An additive `[T_q, T_k]` mask as the kernels read it: the bias rows
/// plus each row's live key count (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyMask<'a> {
    bias: &'a [f32],
    live: &'a [usize],
}

impl<'a> KeyMask<'a> {
    /// A mask view over `bias` with the counts [`live_keys`] filled in.
    pub(crate) fn new(bias: &'a [f32], live: &'a [usize]) -> KeyMask<'a> {
        KeyMask { bias, live }
    }
}

/// Each query row's live key count of a `[T_q, T_k]` bias into `live`:
/// one past its last key above [`NEG_INF`], rounded up to the 8-lane
/// width and capped at `T_k`, or `T_k` for a row with no allowed key.
/// Callers run it once per mask, outside the `_block` kernels.
pub(crate) fn live_keys(bias: &[f32], tk: usize, live: &mut [usize]) {
    for (row, n) in bias.chunks_exact(tk).zip(live.iter_mut()) {
        // NaN counts as allowed so a corrupt mask still poisons its row
        // instead of being skipped.
        *n = match row.iter().rposition(|&b| b > NEG_INF || b.is_nan()) {
            Some(last) => (last + 1).next_multiple_of(F32x8::LANES).min(tk),
            None => tk,
        };
    }
}

/// Owned mask data shared by the forward and both backward closures; the
/// live counts are computed once, here.
struct MaskData {
    bias: Vec<f32>,
    live: Vec<usize>,
}

impl MaskData {
    fn new(bias: Vec<f32>, tq: usize, tk: usize) -> MaskData {
        let mut live = vec![0; tq];
        live_keys(&bias, tk, &mut live);
        MaskData { bias, live }
    }

    fn view(&self) -> KeyMask<'_> {
        KeyMask::new(&self.bias, &self.live)
    }
}

/// Forward kernel: computes every output row across all heads.
///
/// The head loop is outermost so each head's `K`/`V` panels are packed
/// once (into `kt`/`vt`, `[dh, T_k]` layout) and reused by every row;
/// the score, softmax and context loops then run contiguously over keys.
/// For each (head, row): scaled masked scores into `scores` scratch, a
/// max-shifted softmax (statistics recorded into `stats_m`/`stats_l`),
/// the head's slice of the merged context row, and the row's share of
/// the head-averaged map. Heads are visited in
/// ascending order, so the map's cross-head accumulation order is fixed.
/// A masked row visits only its live keys; the rest of its map row
/// keeps the caller's zeros. Without `map_out` (a caller that reads only
/// the context) no map is built; the context and statistics do not depend
/// on it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attn_fwd_row_block(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<KeyMask<'_>>,
    out: &mut [f32],
    mut map_out: Option<&mut [f32]>,
    stats_m: &mut [f32],
    stats_l: &mut [f32],
    kt: &mut [f32],
    vt: &mut [f32],
    scores: &mut [f32],
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let d = heads * dh;
    let inv_heads = 1.0 / heads as f32;
    for h in 0..heads {
        pack_transpose_into(&k[h * tk * dh..(h + 1) * tk * dh], kt, tk, dh);
        pack_transpose_into(&v[h * tk * dh..(h + 1) * tk * dh], vt, tk, dh);
        for i in 0..tq {
            let q_row = &q[(h * tq + i) * dh..(h * tq + i + 1) * dh];
            let n = mask.map_or(tk, |mk| mk.live[i]);
            let row = &mut scores[..n];
            match mask {
                Some(mk) => row.copy_from_slice(&mk.bias[i * tk..i * tk + n]),
                None => row.fill(0.0),
            }
            for (kcol, &qd) in kt.chunks_exact(tk).zip(q_row) {
                simd::axpy_lanes(row, scale * qd, &kcol[..n]);
            }
            let mut mx = f32::NEG_INFINITY;
            for &s in row.iter() {
                if s > mx {
                    mx = s;
                }
            }
            simd::update_lanes(row, |s| simd::exp(s - mx));
            let mut denom = 0.0f32;
            for &e in row.iter() {
                denom += e;
            }
            stats_m[i * heads + h] = mx;
            stats_l[i * heads + h] = denom;
            let inv = 1.0 / denom;
            if let Some(map) = map_out.as_deref_mut() {
                simd::axpy_lanes(&mut map[i * tk..i * tk + n], inv * inv_heads, row);
            }
            let out_head = &mut out[i * d + h * dh..i * d + (h + 1) * dh];
            for (o, vcol) in out_head.iter_mut().zip(vt.chunks_exact(tk)) {
                *o = inv * simd::dot_lanes(row, &vcol[..n]);
            }
        }
    }
}

/// Backward kernel, pass A: `dQ` of head `h`.
///
/// `g_out` is the upstream gradient on the merged `[T_q, H·dh]` output
/// when `Some`, in which case `dP_ij = g_out[i, h·dh..] · V[h, j, :]`;
/// otherwise `g_map` drives the map path with `dP_ij = g_map[i, j] / H`.
/// The head's `K` (and, on the output path, `V`) panel is packed once
/// into `kt`/`vt` so every inner loop runs contiguously over keys.
/// Probabilities are recomputed from the saved statistics with the same
/// packed-score accumulation as the forward, then stored into `p_rows`,
/// and the scaled score gradients `dS_ij = P_ij (dP_ij − D_i) · scale`
/// into `ds_rows`, so pass B is pure accumulation. A masked row fills
/// only its live keys; pass B never reads past them.
#[allow(clippy::too_many_arguments)]
fn attn_bwd_dq_block(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<KeyMask<'_>>,
    g_out: Option<&[f32]>,
    g_map: Option<&[f32]>,
    stats_m: &[f32],
    stats_l: &[f32],
    dq: &mut [f32],
    p_rows: &mut [f32],
    ds_rows: &mut [f32],
    kt: &mut [f32],
    vt: &mut [f32],
    h: usize,
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let d = heads * dh;
    let inv_heads = 1.0 / heads as f32;
    pack_transpose_into(&k[h * tk * dh..(h + 1) * tk * dh], kt, tk, dh);
    if g_out.is_some() {
        pack_transpose_into(&v[h * tk * dh..(h + 1) * tk * dh], vt, tk, dh);
    }
    for i in 0..tq {
        let q_row = &q[(h * tq + i) * dh..(h * tq + i + 1) * dh];
        let inv = 1.0 / stats_l[i * heads + h];
        let mx = stats_m[i * heads + h];
        let n = mask.map_or(tk, |mk| mk.live[i]);
        let p_row = &mut p_rows[i * tk..i * tk + n];
        let ds_row = &mut ds_rows[i * tk..i * tk + n];
        // Scores rebuilt with the forward's exact packed accumulation
        // order, then normalized against the saved statistics.
        match mask {
            Some(mk) => p_row.copy_from_slice(&mk.bias[i * tk..i * tk + n]),
            None => p_row.fill(0.0),
        }
        for (kcol, &qd) in kt.chunks_exact(tk).zip(q_row) {
            simd::axpy_lanes(p_row, scale * qd, &kcol[..n]);
        }
        simd::update_lanes(p_row, |s| simd::exp(s - mx));
        for p in p_row.iter_mut() {
            *p *= inv;
        }
        // dP into the dS slots (converted in place after D is known).
        match (g_out, g_map) {
            (Some(g), _) => {
                let g_head = &g[i * d + h * dh..i * d + (h + 1) * dh];
                ds_row.fill(0.0);
                for (vcol, &gd) in vt.chunks_exact(tk).zip(g_head) {
                    simd::axpy_lanes(ds_row, gd, &vcol[..n]);
                }
            }
            (None, Some(g)) => {
                for (dp, &gm) in ds_row.iter_mut().zip(&g[i * tk..i * tk + n]) {
                    *dp = gm * inv_heads;
                }
            }
            (None, None) => ds_row.fill(0.0),
        }
        let dsum = simd::dot_lanes(p_row, ds_row);
        for (ds, &p) in ds_row.iter_mut().zip(p_row.iter()) {
            *ds = p * (*ds - dsum) * scale;
        }
        let dq_row = &mut dq[i * dh..(i + 1) * dh];
        for (o, kcol) in dq_row.iter_mut().zip(kt.chunks_exact(tk)) {
            *o += simd::dot_lanes(ds_row, &kcol[..n]);
        }
    }
}

/// Backward kernel, pass B: `dK` (and, on the output path, `dV`) of
/// head `h`, reading the `P`/`dS` buffers pass A filled. Accumulates
/// into `[dh, T_k]` panels (`dkt`/`dvt`) so the inner loops are
/// contiguous `axpy`s over keys, then unpacks into the `[T_k, dh]`
/// gradient layout. The query loop is outermost and runs in fixed
/// `0..tq` order, and each `dK[h, j, d]` element is an independent sum
/// over queries. `dS` already carries the `scale` factor, so
/// `dK_j = Σ_i dS_ij Q_i` and `dV_j = Σ_i P_ij g_i` are plain
/// accumulations. With `live` counts (a masked call), query `i`
/// contributes only to keys below `live[i]`.
#[allow(clippy::too_many_arguments)]
fn attn_bwd_dkv_block(
    q: &[f32],
    live: Option<&[usize]>,
    g_out: Option<&[f32]>,
    p_buf: &[f32],
    ds_buf: &[f32],
    dk: &mut [f32],
    dv: &mut [f32],
    dkt: &mut [f32],
    dvt: &mut [f32],
    h: usize,
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
) {
    let d = heads * dh;
    let dkt = &mut dkt[..dh * tk];
    let dvt = &mut dvt[..if g_out.is_some() { dh * tk } else { 0 }];
    dkt.fill(0.0);
    dvt.fill(0.0);
    for i in 0..tq {
        let n = live.map_or(tk, |l| l[i]);
        let q_row = &q[(h * tq + i) * dh..(h * tq + i + 1) * dh];
        let base = (h * tq + i) * tk;
        let ds_row = &ds_buf[base..base + n];
        for (kcol, &qd) in dkt.chunks_exact_mut(tk).zip(q_row) {
            simd::axpy_lanes(&mut kcol[..n], qd, ds_row);
        }
        if let Some(g) = g_out {
            let g_head = &g[i * d + h * dh..i * d + (h + 1) * dh];
            let p_row = &p_buf[base..base + n];
            for (vcol, &gd) in dvt.chunks_exact_mut(tk).zip(g_head) {
                simd::axpy_lanes(&mut vcol[..n], gd, p_row);
            }
        }
    }
    for (j, dk_row) in dk.chunks_exact_mut(dh).enumerate() {
        for (o, kcol) in dk_row.iter_mut().zip(dkt.chunks_exact(tk)) {
            *o += kcol[j];
        }
    }
    if g_out.is_some() {
        for (j, dv_row) in dv.chunks_exact_mut(dh).enumerate() {
            for (o, vcol) in dv_row.iter_mut().zip(dvt.chunks_exact(tk)) {
                *o += vcol[j];
            }
        }
    }
}

/// Scratch of [`attn_bwd_block`]: the `P`/`dS` row maps pass A fills for
/// pass B (`[H, T_q, T_k]` each) and four `[dh, T_k]` head panels. Sized
/// once for the largest attention a caller runs.
#[derive(Debug)]
pub(crate) struct AttnBwdScratch {
    p: Vec<f32>,
    ds: Vec<f32>,
    kt: Vec<f32>,
    vt: Vec<f32>,
    dkt: Vec<f32>,
    dvt: Vec<f32>,
}

impl AttnBwdScratch {
    /// Room for row maps of `p_len` floats and panels of `kt_len`.
    pub(crate) fn new(p_len: usize, kt_len: usize) -> AttnBwdScratch {
        AttnBwdScratch {
            p: vec![0.0; p_len],
            ds: vec![0.0; p_len],
            kt: vec![0.0; kt_len],
            vt: vec![0.0; kt_len],
            dkt: vec![0.0; kt_len],
            dvt: vec![0.0; kt_len],
        }
    }
}

/// The attention backward, both passes over every head: pass A
/// ([`attn_bwd_dq_block`]) writes `dq` and the `P`/`dS` row maps, then
/// pass B ([`attn_bwd_dkv_block`]) accumulates `dk` (and, on the output
/// path, `dv`) from them. `g_out` drives the output path, `g_map` the map
/// path (exactly one is `Some`); on the map path `v` and `dv` are never
/// read and may be empty. `dq`, `dk` and `dv` are overwritten. The
/// dynamic op and both planned backward arms call this one driver.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attn_bwd_block(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: Option<KeyMask<'_>>,
    g_out: Option<&[f32]>,
    g_map: Option<&[f32]>,
    stats_m: &[f32],
    stats_l: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    scratch: &mut AttnBwdScratch,
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let (hq, hk, hp) = (tq * dh, tk * dh, tq * tk);
    let dv_len = if g_out.is_some() { heads * hk } else { 0 };
    dq[..heads * hq].fill(0.0);
    dk[..heads * hk].fill(0.0);
    dv[..dv_len].fill(0.0);
    let AttnBwdScratch {
        p,
        ds,
        kt,
        vt,
        dkt,
        dvt,
    } = scratch;
    for h in 0..heads {
        attn_bwd_dq_block(
            q,
            k,
            v,
            mask,
            g_out,
            g_map,
            stats_m,
            stats_l,
            &mut dq[h * hq..(h + 1) * hq],
            &mut p[h * hp..(h + 1) * hp],
            &mut ds[h * hp..(h + 1) * hp],
            &mut kt[..hk],
            &mut vt[..hk],
            h,
            heads,
            tq,
            tk,
            dh,
            scale,
        );
    }
    let live = mask.map(|mk| mk.live);
    for h in 0..heads {
        let dv_head = if g_out.is_some() {
            &mut dv[h * hk..(h + 1) * hk]
        } else {
            &mut []
        };
        attn_bwd_dkv_block(
            q,
            live,
            g_out,
            &p[..heads * hp],
            &ds[..heads * hp],
            &mut dk[h * hk..(h + 1) * hk],
            dv_head,
            &mut dkt[..hk],
            &mut dvt[..hk],
            h,
            heads,
            tq,
            tk,
            dh,
        );
    }
}

impl Tensor {
    /// Fused scaled-dot-product attention over per-head inputs.
    ///
    /// `q` is `[H, T_q, dh]`, `k` and `v` are `[H, T_k, dh]`, and `mask`
    /// (optional) is an additive `[T_q, T_k]` bias applied to the
    /// pre-softmax scores of every head. Returns the pair
    ///
    /// - merged context `[T_q, H·dh]` (rows are head-concatenated, i.e.
    ///   `merge_heads` is already applied), and
    /// - head-averaged attention map `[T_q, T_k]`, differentiable with
    ///   respect to `q` and `k`.
    ///
    /// The mask must not require gradients (attention masks are
    /// constants); both outputs are bitwise the planned executors'.
    pub fn fused_attention(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        mask: Option<&Tensor>,
    ) -> (Tensor, Tensor) {
        assert_eq!(
            q.shape().rank(),
            3,
            "fused_attention: q must be [H, T_q, dh], got {}",
            q.shape()
        );
        assert_eq!(
            k.shape().rank(),
            3,
            "fused_attention: k must be [H, T_k, dh], got {}",
            k.shape()
        );
        let (heads, tq, dh) = (q.dims()[0], q.dims()[1], q.dims()[2]);
        let tk = k.dims()[1];
        assert_eq!(
            k.dims(),
            &[heads, tk, dh],
            "fused_attention: q {} and k {} disagree on heads or head dim",
            q.shape(),
            k.shape()
        );
        assert_eq!(
            v.dims(),
            k.dims(),
            "fused_attention: k {} and v {} must have identical shapes",
            k.shape(),
            v.shape()
        );
        assert!(
            heads > 0 && tq > 0 && tk > 0 && dh > 0,
            "fused_attention: empty dimension in q {} / k {}",
            q.shape(),
            k.shape()
        );
        if let Some(m) = mask {
            assert_eq!(
                m.dims(),
                &[tq, tk],
                "fused_attention: mask {} does not match scores [{tq}, {tk}]",
                m.shape()
            );
            assert!(
                !m.requires_grad(),
                "fused_attention: the additive mask must not require gradients"
            );
        }
        let d = heads * dh;
        let scale = 1.0 / (dh as f32).sqrt();

        let mut out = vec![0.0f32; tq * d];
        let mut map = vec![0.0f32; tq * tk];
        let mut stats = SoftmaxStats {
            m: vec![0.0f32; tq * heads],
            l: vec![0.0f32; tq * heads],
        };
        let mask_data: Option<Rc<MaskData>> =
            mask.map(|m| Rc::new(MaskData::new(m.to_vec(), tq, tk)));
        {
            let (q_ref, k_ref, v_ref) = (q.data(), k.data(), v.data());
            // Packed K and V panels ([dh, T_k] each) plus a score row.
            let mut scratch = vec![0.0f32; 2 * tk * dh + tk];
            let (kt, rest) = scratch.split_at_mut(tk * dh);
            let (vt, scores) = rest.split_at_mut(tk * dh);
            attn_fwd_row_block(
                &q_ref,
                &k_ref,
                &v_ref,
                mask_data.as_deref().map(MaskData::view),
                &mut out,
                Some(&mut map),
                &mut stats.m,
                &mut stats.l,
                kt,
                vt,
                scores,
                heads,
                tq,
                tk,
                dh,
                scale,
            );
        }
        let stats = Rc::new(stats);
        // A mask is the last parent of both nodes (it never takes a
        // gradient), so a recording keeps it as a leaf a plan can feed.
        let payload = || match mask {
            Some(_) => SymAttr::Masked,
            None => SymAttr::None,
        };
        let with_mask = |mut parents: Vec<Tensor>| {
            parents.extend(mask.cloned());
            parents
        };

        let out_t = Tensor::from_op(
            "fused_attention",
            out,
            Shape::new([tq, d]),
            with_mask(vec![q.clone(), k.clone(), v.clone()]),
            Box::new({
                let stats = Rc::clone(&stats);
                let mask_data = mask_data.clone();
                move |grad, parents| {
                    let (q, k, v) = (&parents[0], &parents[1], &parents[2]);
                    if !(q.requires_grad() || k.requires_grad() || v.requires_grad()) {
                        return;
                    }
                    let mut dq = vec![0.0f32; heads * tq * dh];
                    let mut dk = vec![0.0f32; heads * tk * dh];
                    let mut dv = vec![0.0f32; heads * tk * dh];
                    {
                        let (q_ref, k_ref, v_ref) = (q.data(), k.data(), v.data());
                        attn_bwd_block(
                            &q_ref,
                            &k_ref,
                            &v_ref,
                            mask_data.as_deref().map(MaskData::view),
                            Some(grad),
                            None,
                            &stats.m,
                            &stats.l,
                            &mut dq,
                            &mut dk,
                            &mut dv,
                            &mut AttnBwdScratch::new(heads * tq * tk, tk * dh),
                            heads,
                            tq,
                            tk,
                            dh,
                            scale,
                        );
                    }
                    if q.requires_grad() {
                        q.accumulate_grad(&dq);
                    }
                    if k.requires_grad() {
                        k.accumulate_grad(&dk);
                    }
                    if v.requires_grad() {
                        v.accumulate_grad(&dv);
                    }
                }
            }),
        )
        .with_rec(payload);
        let map_t = Tensor::from_op(
            "fused_attention_map",
            map,
            Shape::new([tq, tk]),
            with_mask(vec![q.clone(), k.clone()]),
            Box::new({
                let stats = Rc::clone(&stats);
                let mask_data = mask_data.clone();
                // The map path never touches V: dP_ij = g_map[i, j] / H.
                move |grad, parents| {
                    let (q, k) = (&parents[0], &parents[1]);
                    if !(q.requires_grad() || k.requires_grad()) {
                        return;
                    }
                    let mut dq = vec![0.0f32; heads * tq * dh];
                    let mut dk = vec![0.0f32; heads * tk * dh];
                    {
                        let (q_ref, k_ref) = (q.data(), k.data());
                        attn_bwd_block(
                            &q_ref,
                            &k_ref,
                            &[],
                            mask_data.as_deref().map(MaskData::view),
                            None,
                            Some(grad),
                            &stats.m,
                            &stats.l,
                            &mut dq,
                            &mut dk,
                            &mut [],
                            &mut AttnBwdScratch::new(heads * tq * tk, tk * dh),
                            heads,
                            tq,
                            tk,
                            dh,
                            scale,
                        );
                    }
                    if q.requires_grad() {
                        q.accumulate_grad(&dq);
                    }
                    if k.requires_grad() {
                        k.accumulate_grad(&dk);
                    }
                }
            }),
        )
        .with_rec(payload);
        (out_t, map_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::tensor::no_grad;

    /// Composed reference built from the existing ops: softmax(QKᵀ·scale +
    /// mask)V with merge, plus the head-averaged map.
    fn composed(q: &Tensor, k: &Tensor, v: &Tensor, mask: Option<&Tensor>) -> (Tensor, Tensor) {
        let (heads, tq, dh) = (q.dims()[0], q.dims()[1], q.dims()[2]);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut scores = q.matmul(&k.transpose_last()).mul_scalar(scale);
        if let Some(m) = mask {
            scores = scores.add(m);
        }
        let attn = scores.softmax_last();
        let ctx = attn.matmul(v);
        let merged = ctx.permute(&[1, 0, 2]).reshape([tq, heads * dh]);
        (merged, attn.mean_axis(0, false))
    }

    fn rand_qkv(
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor) {
        let mut rng = seeded_rng(seed);
        (
            Tensor::randn_param([heads, tq, dh], 0.7, &mut rng),
            Tensor::randn_param([heads, tk, dh], 0.7, &mut rng),
            Tensor::randn_param([heads, tk, dh], 0.7, &mut rng),
        )
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol,
                "{what}: index {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn forward_matches_composed_reference() {
        for &(heads, tq, tk, dh) in &[(1usize, 3usize, 3usize, 4usize), (2, 5, 7, 4), (4, 6, 2, 3)]
        {
            let (q, k, v) = rand_qkv(heads, tq, tk, dh, 7 + heads as u64);
            let (fo, fm) = no_grad(|| Tensor::fused_attention(&q, &k, &v, None));
            let (co, cm) = no_grad(|| composed(&q, &k, &v, None));
            assert_eq!(fo.dims(), &[tq, heads * dh]);
            assert_eq!(fm.dims(), &[tq, tk]);
            assert_close(&fo.to_vec(), &co.to_vec(), 1e-5, "output");
            assert_close(&fm.to_vec(), &cm.to_vec(), 1e-5, "map");
        }
    }

    #[test]
    fn forward_matches_composed_with_mask() {
        let (heads, tq, tk, dh) = (2, 4, 6, 4);
        let mut rng = seeded_rng(42);
        let (q, k, v) = rand_qkv(heads, tq, tk, dh, 9);
        let mask = Tensor::randn([tq, tk], 1.0, &mut rng);
        let (fo, fm) = no_grad(|| Tensor::fused_attention(&q, &k, &v, Some(&mask)));
        let (co, cm) = no_grad(|| composed(&q, &k, &v, Some(&mask)));
        assert_close(&fo.to_vec(), &co.to_vec(), 1e-5, "masked output");
        assert_close(&fm.to_vec(), &cm.to_vec(), 1e-5, "masked map");
    }

    #[test]
    fn map_rows_sum_to_one() {
        let (q, k, v) = rand_qkv(3, 5, 6, 4, 11);
        let (_, map) = no_grad(|| Tensor::fused_attention(&q, &k, &v, None));
        let m = map.to_vec();
        for i in 0..5 {
            let s: f32 = m[i * 6..(i + 1) * 6].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gradients_match_composed_reference() {
        // Same loss through both formulations; gradients on q, k, v must
        // agree within float tolerance (summation orders differ).
        let (heads, tq, tk, dh) = (2, 5, 7, 4);
        let mut rng = seeded_rng(13);
        let mask = Tensor::randn([tq, tk], 0.5, &mut rng);
        let loss_of = |fused: bool| {
            let (q, k, v) = rand_qkv(heads, tq, tk, dh, 21);
            let (out, map) = if fused {
                Tensor::fused_attention(&q, &k, &v, Some(&mask))
            } else {
                composed(&q, &k, &v, Some(&mask))
            };
            out.square().sum().add(&map.square().sum()).backward();
            (
                q.grad().expect("dq"),
                k.grad().expect("dk"),
                v.grad().expect("dv"),
            )
        };
        let (fq, fk, fv) = loss_of(true);
        let (cq, ck, cv) = loss_of(false);
        assert_close(&fq, &cq, 1e-4, "dq");
        assert_close(&fk, &ck, 1e-4, "dk");
        assert_close(&fv, &cv, 1e-4, "dv");
    }

    #[test]
    fn grad_check_dq_dk_dv_output_path() {
        let (q, k, v) = rand_qkv(2, 3, 4, 3, 31);
        for (name, p) in [("q", &q), ("k", &k), ("v", &v)] {
            crate::grad_check::assert_gradients_close(
                p,
                || {
                    let (out, _) = Tensor::fused_attention(&q, &k, &v, None);
                    out.square().mean()
                },
                2e-2,
            );
            let _ = name;
        }
    }

    #[test]
    fn grad_check_dq_dk_map_path() {
        // Loss purely on the attention map: the correlation-distillation
        // wiring. V gets no gradient at all on this path.
        let (q, k, v) = rand_qkv(2, 3, 4, 3, 37);
        for p in [&q, &k] {
            crate::grad_check::assert_gradients_close(
                p,
                || {
                    let (_, map) = Tensor::fused_attention(&q, &k, &v, None);
                    map.square().mean()
                },
                2e-2,
            );
        }
        let (_, map) = Tensor::fused_attention(&q, &k, &v, None);
        map.square().mean().backward();
        assert!(v.grad().is_none(), "map path must not reach v");
    }

    #[test]
    fn grad_check_with_mask() {
        let (q, k, v) = rand_qkv(2, 3, 3, 3, 41);
        // Causal-style mask with a finite off-diagonal bias so finite
        // differences stay well-conditioned.
        let mut m = vec![0.0f32; 9];
        for i in 0..3 {
            for j in (i + 1)..3 {
                m[i * 3 + j] = -2.0;
            }
        }
        let mask = Tensor::from_vec(m, [3, 3]);
        crate::grad_check::assert_gradients_close(
            &q,
            || {
                let (out, map) = Tensor::fused_attention(&q, &k, &v, Some(&mask));
                out.square().mean().add(&map.square().mean())
            },
            2e-2,
        );
    }

    #[test]
    fn untracked_under_no_grad() {
        let (q, k, v) = rand_qkv(2, 3, 4, 3, 43);
        let (out, map) = no_grad(|| Tensor::fused_attention(&q, &k, &v, None));
        assert!(!out.requires_grad() && out.is_leaf());
        assert!(!map.requires_grad() && map.is_leaf());
    }

    #[test]
    #[should_panic(expected = "mask must not require gradients")]
    fn grad_requiring_mask_panics() {
        let (q, k, v) = rand_qkv(1, 2, 2, 2, 47);
        let mut rng = seeded_rng(48);
        let mask = Tensor::randn_param([2, 2], 1.0, &mut rng);
        let _ = Tensor::fused_attention(&q, &k, &v, Some(&mask));
    }

    #[test]
    #[should_panic(expected = "must have identical shapes")]
    fn mismatched_kv_panics() {
        let (q, k, _) = rand_qkv(2, 3, 4, 3, 49);
        let mut rng = seeded_rng(50);
        let v = Tensor::randn([2, 5, 3], 1.0, &mut rng);
        let _ = Tensor::fused_attention(&q, &k, &v, None);
    }

    #[test]
    fn clm_sized_call_matches_composed() {
        // A CLM-sized call; results must still agree with the composed
        // reference.
        let (heads, tq, tk, dh) = (4, 40, 40, 48);
        let (q, k, v) = rand_qkv(heads, tq, tk, dh, 53);
        let (fo, fm) = no_grad(|| Tensor::fused_attention(&q, &k, &v, None));
        let (co, cm) = no_grad(|| composed(&q, &k, &v, None));
        assert_close(&fo.to_vec(), &co.to_vec(), 1e-4, "output");
        assert_close(&fm.to_vec(), &cm.to_vec(), 1e-4, "map");
    }
}
