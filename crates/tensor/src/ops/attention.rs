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
//! agree bit for bit.
//!
//! Query rows run in lane groups: a run of up to 8 consecutive rows with
//! one live key count (see "Forbidden keys") runs side by side, one row
//! per [`F32x8`] lane ([`attn_fwd_group_block`], [`attn_bwd_dq_group_block`]).
//! Each lane keeps one operation order for its own row: the bias plus an
//! ascending-`d` fmadd chain per score, a sequential max, the pinned
//! [`simd::exp`] of `s − m`, a sequential denominator, and
//! [`simd::dot_rows_lanes`] for each context and `dQ` element, which
//! restates [`simd::dot_lanes`] per lane (8 class accumulators per output,
//! the `hsum` tree lane-wise, then the tail). A group's spare lanes repeat
//! its last row and are never stored, so a row's bits do not depend on the
//! size of its group; a lone row (such as the last row of an odd-length
//! call, or a one-row query) is a group of one. Causal masks, and the row
//! windows a prompt family feeds, split into full groups almost
//! everywhere: rows `8b..8b + 8` of a causal mask all have live count
//! `8b + 8`.
//!
//! The forward ([`attn_fwd_row_block`]) runs every group over all heads
//! (the group's bias is interleaved once); every row accumulates its share
//! of the averaged map across heads in ascending order. The backward
//! ([`attn_bwd_block`]) runs two passes: pass A ([`attn_bwd_dq_block`],
//! grouped the same way) recomputes `P` from the saved statistics (same
//! accumulation order as the forward, so bit-identical scores), computes
//! `dQ`, and stores `P` and `dS` into transient scratch — never retained
//! across forward/backward like the composed chain's saved softmax output;
//! pass B is then pure accumulation of `dK`/`dV` per head, vectorised over
//! keys, with a fixed-order query loop and every output element an
//! independent sum.
//!
//! The dot/axpy sweeps are [`simd::dot_rows_lanes`] and
//! [`simd::axpy_lanes`], whose 8-lane fused-multiply-add blocking is the
//! one pinned reduction order (see [`crate::simd`]).
//!
//! ## Forbidden keys
//!
//! A mask bias at or below [`NEG_INF`] (−1e9) forbids a key. Each query
//! row visits only its *live* keys: `0..n` where `n` is one past the last
//! key whose bias is above `NEG_INF`, rounded up to the 8-lane width and
//! capped at `T_k`. The forward kernel and pass A truncate their score,
//! probability and `dS` rows to `n`; pass B truncates (or skips) each
//! query row's contribution to its keys the same way. Unmasked calls keep
//! all `T_k` keys, and so does a row with no allowed key at all (its
//! softmax spreads over the forbidden keys as before). The counts are
//! computed once per mask, never inside a `_block` kernel.
//!
//! A lane group holds only rows with equal counts, so every lane stops at
//! the same key and no lane needs a stop of its own: a group reads keys
//! `0..n` and nothing past them (`attention_key_skip.rs` fills the keys
//! past a group's count with NaN to check it). Rows whose counts differ
//! end a group.
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
//! scratch is preallocated by the caller ([`attn_fwd_lanes_len`] floats of
//! lane buffers for the forward, [`AttnBwdScratch`] for the backward).

use std::rc::Rc;

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

/// Query rows one lane group holds: one row per [`F32x8`] lane.
const GROUP: usize = F32x8::LANES;

/// Floats of lane scratch the forward of an attention call with `tk` keys
/// and head dim `dh` needs: the group's interleaved bias, a `[T_k, 8]`
/// score buffer and the `[dh, 8]` query panel.
pub(crate) fn attn_fwd_lanes_len(tk: usize, dh: usize) -> usize {
    GROUP * (2 * tk + dh)
}

/// Floats of lane scratch pass A of an attention call needs: the
/// interleaved bias, `[T_k, 8]` `P` and `dS` buffers, and the `[dh, 8]`
/// query and output-gradient panels.
pub(crate) fn attn_bwd_lanes_len(tk: usize, dh: usize) -> usize {
    GROUP * (3 * tk + 2 * dh)
}

/// The query rows `0..tq` as ascending runs `(start, len)` of at most
/// [`GROUP`] consecutive rows with equal live key counts (every row of an
/// unmasked call sees all keys).
fn row_runs(live: Option<&[usize]>, tq: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let count = move |i: usize| live.map_or(0, |l| l[i]);
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= tq {
            return None;
        }
        let start = i;
        i += 1;
        while i < tq && i - start < GROUP && count(i) == count(start) {
            i += 1;
        }
        Some((start, i - start))
    })
}

/// Rows `first..first + len` of `src` (rows of `stride` floats) over
/// columns `0..n`, interleaved into `dst`: `dst[8·j + l]` is row
/// `first + l`'s column `j`, and spare lanes repeat the last row.
fn interleave_rows_block(
    src: &[f32],
    stride: usize,
    first: usize,
    len: usize,
    n: usize,
    dst: &mut [f32],
) {
    let row = |l: usize| &src[(first + l.min(len - 1)) * stride..][..n];
    let body = n - n % GROUP;
    for jb in (0..body).step_by(GROUP) {
        let block = simd::transpose8(std::array::from_fn(|l| F32x8::load(&row(l)[jb..])));
        for (c, x) in block.into_iter().enumerate() {
            x.store(&mut dst[(jb + c) * GROUP..]);
        }
    }
    for j in body..n {
        for l in 0..GROUP {
            dst[j * GROUP + l] = row(l)[j];
        }
    }
}

/// The inverse of [`interleave_rows_block`] for the `len` real lanes:
/// `dst[(first + l)·stride + j] = src[8·j + l]`.
fn deinterleave_rows_block(
    src: &[f32],
    n: usize,
    dst: &mut [f32],
    stride: usize,
    first: usize,
    len: usize,
) {
    let body = n - n % GROUP;
    for jb in (0..body).step_by(GROUP) {
        let block = simd::transpose8(std::array::from_fn(|c| {
            F32x8::load(&src[(jb + c) * GROUP..])
        }));
        for (l, x) in block.into_iter().enumerate().take(len) {
            x.store(&mut dst[(first + l) * stride + jb..]);
        }
    }
    for j in body..n {
        for l in 0..len {
            dst[(first + l) * stride + j] = src[j * GROUP + l];
        }
    }
}

/// Lane `l` of `panel[dd]` (a `[dh, 8]` panel) is element `dd` of row
/// `first + l` of `src` (rows of `stride` floats from `offset`), times
/// `factor`; spare lanes repeat the last row.
#[allow(clippy::too_many_arguments)]
fn gather_panel_block(
    src: &[f32],
    panel: &mut [f32],
    first: usize,
    len: usize,
    stride: usize,
    offset: usize,
    dh: usize,
    factor: f32,
) {
    for (dd, lanes) in panel[..GROUP * dh].chunks_exact_mut(GROUP).enumerate() {
        for (l, x) in lanes.iter_mut().enumerate() {
            *x = factor * src[(first + l.min(len - 1)) * stride + offset + dd];
        }
    }
}

/// Scaled masked scores of one lane group into `s_buf` (`[n, 8]`, `n`
/// the keys `bias_t` covers): each lane's bias, then one ascending-`dh`
/// fmadd chain per score.
/// `sq` holds the group's scaled `[dh, 8]` query panel and `k` the head's
/// `[T_k, dh]` keys. Four keys run side by side to overlap their chains.
fn group_scores_block(bias_t: &[f32], sq: &[f32], k: &[f32], dh: usize, s_buf: &mut [f32]) {
    const KEYS: usize = 4;
    let n = bias_t.len() / GROUP;
    let body = n - n % KEYS;
    let (s_body, s_tail) = s_buf[..GROUP * n].split_at_mut(GROUP * body);
    let (b_body, b_tail) = bias_t.split_at(GROUP * body);
    let (k_body, k_tail) = k[..n * dh].split_at(body * dh);
    for ((s, b), k4) in s_body
        .chunks_exact_mut(KEYS * GROUP)
        .zip(b_body.chunks_exact(KEYS * GROUP))
        .zip(k_body.chunks_exact(KEYS * dh))
    {
        let mut acc: [F32x8; KEYS] = std::array::from_fn(|c| F32x8::load(&b[c * GROUP..]));
        for (dd, qd) in sq.chunks_exact(GROUP).enumerate() {
            let qd = F32x8::load(qd);
            for (c, a) in acc.iter_mut().enumerate() {
                *a = qd.fma(F32x8::splat(k4[c * dh + dd]), *a);
            }
        }
        for (c, a) in acc.into_iter().enumerate() {
            a.store(&mut s[c * GROUP..]);
        }
    }
    for ((s, b), k_row) in s_tail
        .chunks_exact_mut(GROUP)
        .zip(b_tail.chunks_exact(GROUP))
        .zip(k_tail.chunks_exact(dh))
    {
        let mut acc = F32x8::load(b);
        for (qd, &kd) in sq.chunks_exact(GROUP).zip(k_row) {
            acc = F32x8::load(qd).fma(F32x8::splat(kd), acc);
        }
        acc.store(s);
    }
}

/// Forward kernel: computes every output row across all heads.
///
/// Rows run in lane groups ([`attn_fwd_group_block`]), one per run of
/// [`row_runs`], each over all heads. For each (head, row): scaled masked
/// scores, a max-shifted softmax (statistics recorded into
/// `stats_m`/`stats_l`), the head's slice of the merged context row, and
/// the row's share of the head-averaged map. Every row visits heads in
/// ascending order, so the map's cross-head accumulation order is fixed.
/// A masked row visits only its live keys; the rest of its map row keeps
/// the caller's zeros. Without `map_out` (a caller that reads only the
/// context) no map is built; the context and statistics do not depend on
/// it. `lanes` holds at least [`attn_fwd_lanes_len`] floats.
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
    lanes: &mut [f32],
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let hk = tk * dh;
    let live = mask.map(|mk| mk.live);
    let (bias_t, lanes) = lanes.split_at_mut(GROUP * tk);
    for (i0, len) in row_runs(live, tq) {
        let n = live.map_or(tk, |l| l[i0]);
        match mask {
            Some(mk) => interleave_rows_block(mk.bias, tk, i0, len, n, bias_t),
            None => bias_t[..GROUP * n].fill(0.0),
        }
        for h in 0..heads {
            attn_fwd_group_block(
                &q[h * tq * dh..(h + 1) * tq * dh],
                &k[h * hk..(h + 1) * hk],
                &v[h * hk..(h + 1) * hk],
                bias_t,
                lanes,
                out,
                map_out.as_deref_mut(),
                stats_m,
                stats_l,
                i0,
                len,
                n,
                h,
                heads,
                tk,
                dh,
                scale,
            );
        }
    }
}

/// One lane group of the forward, head `h`: query rows `i0..i0 + len`
/// (`len ≤ 8`, one live key count `n`), lane `l` holding row `i0 + l`.
/// `q`, `k` and `v` are the head's `[T_q, dh]`, `[T_k, dh]` and
/// `[T_k, dh]` blocks and `bias_t` the group's interleaved bias. Spare
/// lanes repeat the last row and are never stored.
///
/// Each lane keeps its row's operation order (see the module docs): the
/// bias plus an ascending-`dh` fmadd chain per score, the sequential max,
/// the pinned [`simd::exp`] of `s − m`, the sequential denominator, one
/// fmadd per map element, and [`simd::dot_rows_lanes`] (the
/// [`simd::dot_lanes`] order) per context element.
#[allow(clippy::too_many_arguments)]
fn attn_fwd_group_block(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    bias_t: &[f32],
    lanes: &mut [f32],
    out: &mut [f32],
    map_out: Option<&mut [f32]>,
    stats_m: &mut [f32],
    stats_l: &mut [f32],
    i0: usize,
    len: usize,
    n: usize,
    h: usize,
    heads: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let d = heads * dh;
    let inv_heads = 1.0 / heads as f32;
    let (e_buf, rest) = lanes.split_at_mut(GROUP * tk);
    let (e_buf, sq) = (&mut e_buf[..GROUP * n], &mut rest[..GROUP * dh]);
    gather_panel_block(q, sq, i0, len, dh, 0, dh, scale);
    group_scores_block(&bias_t[..GROUP * n], sq, k, dh, e_buf);
    let mut mx = F32x8::splat(f32::NEG_INFINITY);
    for e in e_buf.chunks_exact(GROUP) {
        let s = F32x8::load(e);
        mx = F32x8(std::array::from_fn(|l| {
            if s.0[l] > mx.0[l] {
                s.0[l]
            } else {
                mx.0[l]
            }
        }));
    }
    let mut denom = F32x8::ZERO;
    for e in e_buf.chunks_exact_mut(GROUP) {
        let x = F32x8::load(e).sub(mx).map(simd::exp);
        denom = denom.add(x);
        x.store(e);
    }
    let inv = denom.map(|x| 1.0 / x);
    for l in 0..len {
        let i = i0 + l;
        stats_m[i * heads + h] = mx.0[l];
        stats_l[i * heads + h] = denom.0[l];
    }
    if let Some(map) = map_out {
        let a = inv.map(|x| x * inv_heads);
        let body = n - n % GROUP;
        for jb in (0..body).step_by(GROUP) {
            let rows = simd::transpose8(std::array::from_fn(|c| {
                F32x8::load(&e_buf[(jb + c) * GROUP..])
            }));
            for (l, e) in rows.into_iter().enumerate().take(len) {
                let m = &mut map[(i0 + l) * tk + jb..];
                F32x8::splat(a.0[l]).fma(e, F32x8::load(m)).store(m);
            }
        }
        for j in body..n {
            for l in 0..len {
                let m = &mut map[(i0 + l) * tk + j];
                *m = simd::fmadd(a.0[l], e_buf[j * GROUP + l], *m);
            }
        }
    }
    for dd in 0..dh {
        let c = simd::dot_rows_lanes(e_buf, &v[dd..], n, dh);
        for l in 0..len {
            out[(i0 + l) * d + h * dh + dd] = inv.0[l] * c.0[l];
        }
    }
}

/// Backward kernel, pass A: `dQ` of every head.
///
/// `g_out` is the upstream gradient on the merged `[T_q, H·dh]` output
/// when `Some`, in which case `dP_ij = g_out[i, h·dh..] · V[h, j, :]`;
/// otherwise `g_map` drives the map path with `dP_ij = g_map[i, j] / H`.
/// Probabilities are recomputed from the saved statistics with the
/// forward's exact score accumulation, then stored into `p_rows`, and the
/// scaled score gradients `dS_ij = P_ij (dP_ij − D_i) · scale` into
/// `ds_rows` (`[H, T_q, T_k]` each), so pass B is pure accumulation. A
/// masked row fills only its live keys; pass B never reads past them.
/// Rows run in the forward's lane groups ([`attn_bwd_dq_group_block`]).
/// `lanes` holds at least [`attn_bwd_lanes_len`] floats.
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
    lanes: &mut [f32],
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let (hk, hp) = (tk * dh, tq * tk);
    let live = mask.map(|mk| mk.live);
    let (bias_t, lanes) = lanes.split_at_mut(GROUP * tk);
    for (i0, len) in row_runs(live, tq) {
        let n = live.map_or(tk, |l| l[i0]);
        match mask {
            Some(mk) => interleave_rows_block(mk.bias, tk, i0, len, n, bias_t),
            None => bias_t[..GROUP * n].fill(0.0),
        }
        for h in 0..heads {
            attn_bwd_dq_group_block(
                &q[h * tq * dh..(h + 1) * tq * dh],
                &k[h * hk..(h + 1) * hk],
                if g_out.is_some() {
                    &v[h * hk..(h + 1) * hk]
                } else {
                    &[]
                },
                bias_t,
                lanes,
                g_out,
                g_map,
                stats_m,
                stats_l,
                &mut dq[h * tq * dh..(h + 1) * tq * dh],
                &mut p_rows[h * hp..(h + 1) * hp],
                &mut ds_rows[h * hp..(h + 1) * hp],
                i0,
                len,
                n,
                h,
                heads,
                tk,
                dh,
                scale,
            );
        }
    }
}

/// One lane group of pass A, head `h`: query rows `i0..i0 + len` (`len ≤
/// 8`, one live key count `n`), lane `l` holding row `i0 + l`. `q`, `k`
/// and `v` are the head's blocks (`v` empty on the map path), `bias_t`
/// the group's interleaved bias, and `dq`, `p_rows` and `ds_rows` the
/// head's slices. Spare lanes repeat the last row and are never stored.
///
/// Each lane keeps its row's operation order (see the module docs): the
/// forward's score chain, `exp(s − m) · (1/l)`, `dP` as an ascending-`dh`
/// fmadd chain (or `g_map · (1/H)`), `D` in the [`simd::dot_lanes`] order,
/// `dS = P (dP − D) · scale`, and each `dQ` element as a
/// [`simd::dot_lanes`]-ordered sum added to the caller's zero. `P` and
/// `dS` are then written out as rows for pass B.
#[allow(clippy::too_many_arguments)]
fn attn_bwd_dq_group_block(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    bias_t: &[f32],
    lanes: &mut [f32],
    g_out: Option<&[f32]>,
    g_map: Option<&[f32]>,
    stats_m: &[f32],
    stats_l: &[f32],
    dq: &mut [f32],
    p_rows: &mut [f32],
    ds_rows: &mut [f32],
    i0: usize,
    len: usize,
    n: usize,
    h: usize,
    heads: usize,
    tk: usize,
    dh: usize,
    scale: f32,
) {
    let d = heads * dh;
    let inv_heads = 1.0 / heads as f32;
    let (p_buf, rest) = lanes.split_at_mut(GROUP * tk);
    let (ds_buf, rest) = rest.split_at_mut(GROUP * tk);
    let (sq, gq) = rest[..2 * GROUP * dh].split_at_mut(GROUP * dh);
    let (p_buf, ds_buf) = (&mut p_buf[..GROUP * n], &mut ds_buf[..GROUP * n]);
    gather_panel_block(q, sq, i0, len, dh, 0, dh, scale);
    let stat = |l: usize| (i0 + l.min(len - 1)) * heads + h;
    let mx = F32x8(std::array::from_fn(|l| stats_m[stat(l)]));
    let inv = F32x8(std::array::from_fn(|l| 1.0 / stats_l[stat(l)]));
    group_scores_block(&bias_t[..GROUP * n], sq, k, dh, p_buf);
    for p in p_buf.chunks_exact_mut(GROUP) {
        F32x8::load(p).sub(mx).map(simd::exp).mul(inv).store(p);
    }
    match (g_out, g_map) {
        (Some(g), _) => {
            gather_panel_block(g, gq, i0, len, d, h * dh, dh, 1.0);
            for (dp, v_row) in ds_buf.chunks_exact_mut(GROUP).zip(v.chunks_exact(dh)) {
                let mut acc = F32x8::ZERO;
                for (gd, &vd) in gq.chunks_exact(GROUP).zip(v_row) {
                    acc = F32x8::load(gd).fma(F32x8::splat(vd), acc);
                }
                acc.store(dp);
            }
        }
        (None, Some(g)) => {
            interleave_rows_block(g, tk, i0, len, n, ds_buf);
            let ih = F32x8::splat(inv_heads);
            for dp in ds_buf.chunks_exact_mut(GROUP) {
                F32x8::load(dp).mul(ih).store(dp);
            }
        }
        (None, None) => ds_buf.fill(0.0),
    }
    let dsum = simd::dot_rows_rows_lanes(p_buf, ds_buf, n);
    let scale_v = F32x8::splat(scale);
    for (ds, p) in ds_buf
        .chunks_exact_mut(GROUP)
        .zip(p_buf.chunks_exact(GROUP))
    {
        let p = F32x8::load(p);
        p.mul(F32x8::load(ds).sub(dsum)).mul(scale_v).store(ds);
    }
    for dd in 0..dh {
        let c = simd::dot_rows_lanes(ds_buf, &k[dd..], n, dh);
        for l in 0..len {
            dq[(i0 + l) * dh + dd] += c.0[l];
        }
    }
    deinterleave_rows_block(p_buf, n, p_rows, tk, i0, len);
    deinterleave_rows_block(ds_buf, n, ds_rows, tk, i0, len);
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
/// pass B (`[H, T_q, T_k]` each), pass B's two `[dh, T_k]` gradient
/// panels and pass A's lane buffers. Sized once for the largest attention a caller
/// runs.
#[derive(Debug)]
pub(crate) struct AttnBwdScratch {
    p: Vec<f32>,
    ds: Vec<f32>,
    dkt: Vec<f32>,
    dvt: Vec<f32>,
    lanes: Vec<f32>,
}

impl AttnBwdScratch {
    /// Room for row maps of `p_len` floats, panels of `kt_len` and lane
    /// buffers of `lanes_len` (see [`attn_bwd_lanes_len`]).
    pub(crate) fn new(p_len: usize, kt_len: usize, lanes_len: usize) -> AttnBwdScratch {
        AttnBwdScratch {
            p: vec![0.0; p_len],
            ds: vec![0.0; p_len],
            dkt: vec![0.0; kt_len],
            dvt: vec![0.0; kt_len],
            lanes: vec![0.0; lanes_len],
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
        dkt,
        dvt,
        lanes,
    } = scratch;
    attn_bwd_dq_block(
        q,
        k,
        v,
        mask,
        g_out,
        g_map,
        stats_m,
        stats_l,
        &mut dq[..heads * hq],
        &mut p[..heads * hp],
        &mut ds[..heads * hp],
        &mut lanes[..attn_bwd_lanes_len(tk, dh)],
        heads,
        tq,
        tk,
        dh,
        scale,
    );
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
            let mut lanes = vec![0.0f32; attn_fwd_lanes_len(tk, dh)];
            attn_fwd_row_block(
                &q_ref,
                &k_ref,
                &v_ref,
                mask_data.as_deref().map(MaskData::view),
                &mut out,
                Some(&mut map),
                &mut stats.m,
                &mut stats.l,
                &mut lanes,
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
                            &mut AttnBwdScratch::new(
                                heads * tq * tk,
                                tk * dh,
                                attn_bwd_lanes_len(tk, dh),
                            ),
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
                            &mut AttnBwdScratch::new(
                                heads * tq * tk,
                                tk * dh,
                                attn_bwd_lanes_len(tk, dh),
                            ),
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
