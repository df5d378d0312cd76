//! Exactness of forbidden-key skipping in the fused attention kernel.
//!
//! Masked query rows visit only their live keys (see the "Forbidden keys"
//! section of `ops/attention.rs`). These tests restate attention over
//! *all* `T_k` keys as plain scalar loops in the kernel's pinned orders —
//! ascending-`dh` fmadd score chains, a sequential softmax over the
//! pinned scalar `simd::exp`, the 8-lane `dot_lanes` order for context
//! and `dQ`, ascending-query fmadd chains for `dK`/`dV` — and assert the
//! kernel matches them **bitwise**: forward context and map, and Q/K/V
//! gradients on both the output and the map path. Masks cover none, causal, calibrated
//! (−Δ on cross pairs plus causal) and a fully forbidden row, with `T_k`
//! in {1, 7, 8, 9, 79} so live ranges end inside the lane tail, and
//! single-row queries against the last mask row (the pruned CLM block).
//!
//! The kernels run each run of up to eight rows with one live key count
//! side by side, one row per lane; a lone row is a group of one. So the
//! cases also cover
//! `(heads, dh) = (4, 8)` (the Base CLM), row windows `start..79` of a
//! 79×79 mask (start 40, as a prompt family's ground-truth member feeds
//! it, and start 3, whose first group mixes live counts), and `T_q` in
//! {7, 15, 16, 17} against the last rows of a 79-key mask or without one:
//! full groups, partial groups, groups cut by a count change, and lone
//! rows all meet the scalar reference. A last test fills the keys past
//! the first group's live count with NaN and checks that group reads
//! none of them.

use timekd_nn::causal_mask;
use timekd_tensor::simd::{exp, fmadd};
use timekd_tensor::{seeded_rng, Tensor, NEG_INF};

const KEY_LENS: [usize; 5] = [1, 7, 8, 9, 79];
/// (heads, head dim).
const HEADS_DH: [(usize, usize); 3] = [(4, 16), (3, 5), (4, 8)];
/// Key count of the row-window cases.
const WINDOW_KEYS: usize = 79;
/// First rows of the row-window cases: the ground-truth member's row
/// window of a 79-token family, and an unaligned start.
const WINDOW_STARTS: [usize; 2] = [40, 3];
/// Query counts run against the last rows of a `WINDOW_KEYS` mask: a
/// partial group, a full group plus a partial one, two full groups, and
/// two full groups plus a lone row.
const QUERY_LENS: [usize; 4] = [7, 15, 16, 17];

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Scalar restatement of `simd::dot_lanes`: element `i` feeds lane
/// `i % 8`, lanes accumulate ascending with fmadd, partials combine via
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, the tail folds ascending.
fn dot_lanes_reference(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut lanes = [0.0f32; 8];
    let mut i = 0;
    while i + 8 <= n {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = fmadd(a[i + l], b[i + l], *lane);
        }
        i += 8;
    }
    let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    while i < n {
        sum = fmadd(a[i], b[i], sum);
        i += 1;
    }
    sum
}

/// One attention geometry with its inputs and optional `[T_q, T_k]` mask.
struct Case {
    name: String,
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    mask: Option<Vec<f32>>,
}

impl Case {
    fn scale(&self) -> f32 {
        1.0 / (self.dh as f32).sqrt()
    }

    fn qi(&self, h: usize, i: usize, d: usize) -> f32 {
        self.q[(h * self.tq + i) * self.dh + d]
    }

    fn kcol(&self, h: usize, d: usize) -> Vec<f32> {
        (0..self.tk)
            .map(|j| self.k[(h * self.tk + j) * self.dh + d])
            .collect()
    }

    fn vcol(&self, h: usize, d: usize) -> Vec<f32> {
        (0..self.tk)
            .map(|j| self.v[(h * self.tk + j) * self.dh + d])
            .collect()
    }

    /// Scaled masked scores of (head, row) over all keys: the bias, then
    /// one ascending-`dh` fmadd chain per key.
    fn scores(&self, h: usize, i: usize) -> Vec<f32> {
        let tk = self.tk;
        let mut s = match &self.mask {
            Some(m) => m[i * tk..(i + 1) * tk].to_vec(),
            None => vec![0.0; tk],
        };
        for d in 0..self.dh {
            let a = self.scale() * self.qi(h, i, d);
            for (sj, kj) in s.iter_mut().zip(self.kcol(h, d)) {
                *sj = fmadd(a, kj, *sj);
            }
        }
        s
    }

    /// Row max and sequential normalizer of (head, row) over all keys.
    fn stats(&self, h: usize, i: usize) -> (f32, f32) {
        let s = self.scores(h, i);
        let mut mx = f32::NEG_INFINITY;
        for &x in &s {
            if x > mx {
                mx = x;
            }
        }
        let mut denom = 0.0f32;
        for &x in &s {
            denom += exp(x - mx);
        }
        (mx, denom)
    }

    /// Full-key forward: merged context `[T_q, H·dh]` and map `[T_q, T_k]`.
    fn forward_reference(&self) -> (Vec<f32>, Vec<f32>) {
        let (heads, tq, tk, dh) = (self.heads, self.tq, self.tk, self.dh);
        let inv_heads = 1.0 / heads as f32;
        let mut out = vec![0.0f32; tq * heads * dh];
        let mut map = vec![0.0f32; tq * tk];
        for h in 0..heads {
            for i in 0..tq {
                let (mx, denom) = self.stats(h, i);
                let e: Vec<f32> = self.scores(h, i).iter().map(|x| exp(x - mx)).collect();
                let inv = 1.0 / denom;
                for (mj, &ej) in map[i * tk..(i + 1) * tk].iter_mut().zip(&e) {
                    *mj = fmadd(inv * inv_heads, ej, *mj);
                }
                for d in 0..dh {
                    out[i * heads * dh + h * dh + d] =
                        inv * dot_lanes_reference(&e, &self.vcol(h, d));
                }
            }
        }
        (out, map)
    }

    /// Full-key backward for one path: `g_out` (`[T_q, H·dh]`) drives the
    /// output path, `g_map` (`[T_q, T_k]`) the map path. Returns
    /// `(dQ, dK, dV)`; `dV` is empty on the map path.
    fn backward_reference(
        &self,
        g_out: Option<&[f32]>,
        g_map: Option<&[f32]>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (heads, tq, tk, dh) = (self.heads, self.tq, self.tk, self.dh);
        let inv_heads = 1.0 / heads as f32;
        let scale = self.scale();
        let mut dq = vec![0.0f32; heads * tq * dh];
        let mut p_all = vec![0.0f32; heads * tq * tk];
        let mut ds_all = vec![0.0f32; heads * tq * tk];
        for h in 0..heads {
            for i in 0..tq {
                let (mx, l) = self.stats(h, i);
                let inv = 1.0 / l;
                let p: Vec<f32> = self
                    .scores(h, i)
                    .iter()
                    .map(|x| exp(x - mx) * inv)
                    .collect();
                let dp: Vec<f32> = match (g_out, g_map) {
                    (Some(g), _) => {
                        let mut dp = vec![0.0f32; tk];
                        for d in 0..dh {
                            let gd = g[i * heads * dh + h * dh + d];
                            for (dpj, vj) in dp.iter_mut().zip(self.vcol(h, d)) {
                                *dpj = fmadd(gd, vj, *dpj);
                            }
                        }
                        dp
                    }
                    (None, Some(g)) => g[i * tk..(i + 1) * tk]
                        .iter()
                        .map(|&x| x * inv_heads)
                        .collect(),
                    (None, None) => unreachable!("one path drives the backward"),
                };
                let dsum = dot_lanes_reference(&p, &dp);
                let ds: Vec<f32> = p
                    .iter()
                    .zip(&dp)
                    .map(|(&pj, &dpj)| pj * (dpj - dsum) * scale)
                    .collect();
                for d in 0..dh {
                    dq[(h * tq + i) * dh + d] = 0.0 + dot_lanes_reference(&ds, &self.kcol(h, d));
                }
                p_all[(h * tq + i) * tk..(h * tq + i + 1) * tk].copy_from_slice(&p);
                ds_all[(h * tq + i) * tk..(h * tq + i + 1) * tk].copy_from_slice(&ds);
            }
        }
        let mut dk = vec![0.0f32; heads * tk * dh];
        let mut dv = vec![0.0f32; if g_out.is_some() { heads * tk * dh } else { 0 }];
        for h in 0..heads {
            for j in 0..tk {
                for d in 0..dh {
                    let mut acc_k = 0.0f32;
                    let mut acc_v = 0.0f32;
                    for i in 0..tq {
                        let at = (h * tq + i) * tk + j;
                        acc_k = fmadd(self.qi(h, i, d), ds_all[at], acc_k);
                        if let Some(g) = g_out {
                            acc_v = fmadd(g[i * heads * dh + h * dh + d], p_all[at], acc_v);
                        }
                    }
                    dk[(h * tk + j) * dh + d] = 0.0 + acc_k;
                    if g_out.is_some() {
                        dv[(h * tk + j) * dh + d] = 0.0 + acc_v;
                    }
                }
            }
        }
        (dq, dk, dv)
    }
}

/// `[t, t]` calibrated mask: causal, plus `−Δ` on pairs whose (synthetic)
/// modalities differ.
fn calibrated(t: usize) -> Vec<f32> {
    let text = |i: usize| i % 3 != 1;
    let mut m = causal_mask(t).to_vec();
    for i in 0..t {
        for j in 0..=i {
            if text(i) != text(j) {
                m[i * t + j] = -2.5;
            }
        }
    }
    m
}

/// Causal mask with the middle row fully forbidden.
fn with_forbidden_row(t: usize) -> Vec<f32> {
    let mut m = causal_mask(t).to_vec();
    let r = t / 2;
    m[r * t..(r + 1) * t].fill(NEG_INF);
    m
}

/// Rows `start..` of a `[t, t]` mask.
fn window(mask: &[f32], t: usize, start: usize) -> Vec<f32> {
    mask[start * t..].to_vec()
}

/// A case with seeded inputs.
fn case(
    label: &str,
    (heads, dh): (usize, usize),
    tq: usize,
    tk: usize,
    mask: Option<Vec<f32>>,
    seed: u64,
) -> Case {
    let mut rng = seeded_rng(0x5C1B + seed);
    let mut draw = |n: usize| Tensor::randn([n], 1.0, &mut rng).to_vec();
    Case {
        name: format!("{label} H={heads} dh={dh} tq={tq} tk={tk}"),
        heads,
        tq,
        tk,
        dh,
        q: draw(heads * tq * dh),
        k: draw(heads * tk * dh),
        v: draw(heads * tk * dh),
        mask,
    }
}

/// The masks of a `t`-key case, each as a full `[t, t]` mask.
fn masks(t: usize) -> [(&'static str, Option<Vec<f32>>); 4] {
    [
        ("none", None),
        ("causal", Some(causal_mask(t).to_vec())),
        ("calibrated", Some(calibrated(t))),
        ("forbidden_row", Some(with_forbidden_row(t))),
    ]
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    let mut next = || {
        seed += 1;
        seed
    };
    for &hd in &HEADS_DH {
        for &tk in &KEY_LENS {
            for (label, mask) in masks(tk) {
                // All rows, then the last row alone against every key.
                for tq in [tk, 1] {
                    let mask = mask.as_ref().map(|m| window(m, tk, tk - tq));
                    out.push(case(label, hd, tq, tk, mask, next()));
                }
            }
        }
        let tk = WINDOW_KEYS;
        for (label, mask) in masks(tk) {
            for start in WINDOW_STARTS {
                let mask = mask.as_ref().map(|m| window(m, tk, start));
                let label = format!("{label} rows {start}..{tk}");
                out.push(case(&label, hd, tk - start, tk, mask, next()));
            }
            for tq in QUERY_LENS {
                let mask = mask.as_ref().map(|m| window(m, tk, tk - tq));
                out.push(case(label, hd, tq, tk, mask, next()));
            }
        }
    }
    out
}

fn tensors(c: &Case) -> (Tensor, Tensor, Tensor, Option<Tensor>) {
    (
        Tensor::param(c.q.clone(), [c.heads, c.tq, c.dh]),
        Tensor::param(c.k.clone(), [c.heads, c.tk, c.dh]),
        Tensor::param(c.v.clone(), [c.heads, c.tk, c.dh]),
        c.mask.clone().map(|m| Tensor::from_vec(m, [c.tq, c.tk])),
    )
}

#[test]
fn key_skipping_forward_matches_full_key_reference_bitwise() {
    for c in cases() {
        let (want_out, want_map) = c.forward_reference();
        let (q, k, v, mask) = tensors(&c);
        let (out, map) = Tensor::fused_attention(&q, &k, &v, mask.as_ref());
        assert_bits_eq(&out.to_vec(), &want_out, &format!("context {}", c.name));
        assert_bits_eq(&map.to_vec(), &want_map, &format!("map {}", c.name));
    }
}

#[test]
fn key_skipping_gradients_match_full_key_reference_bitwise() {
    for (ci, c) in cases().into_iter().enumerate() {
        let mut rng = seeded_rng(0x6AD + ci as u64);
        let g_out = Tensor::randn([c.tq, c.heads * c.dh], 1.0, &mut rng);
        let g_map = Tensor::randn([c.tq, c.tk], 1.0, &mut rng);
        let (want_dq, want_dk, want_dv) = c.backward_reference(Some(&g_out.to_vec()), None);
        let (want_mq, want_mk, _) = c.backward_reference(None, Some(&g_map.to_vec()));
        let what = &c.name;
        // Output path: d(sum(out ⊙ G))/d(out) = G exactly.
        let (q, k, v, mask) = tensors(&c);
        let (out, _) = Tensor::fused_attention(&q, &k, &v, mask.as_ref());
        out.mul(&g_out).sum().backward();
        let (dq, dk, dv) = (
            q.grad().expect("dq"),
            k.grad().expect("dk"),
            v.grad().expect("dv"),
        );
        assert_bits_eq(&dq, &want_dq, &format!("output-path dQ {what}"));
        assert_bits_eq(&dk, &want_dk, &format!("output-path dK {what}"));
        assert_bits_eq(&dv, &want_dv, &format!("output-path dV {what}"));
        // Map path: V receives no gradient at all.
        let (q, k, v, mask) = tensors(&c);
        let (_, map) = Tensor::fused_attention(&q, &k, &v, mask.as_ref());
        map.mul(&g_map).sum().backward();
        let (mq, mk, mv) = (q.grad().expect("dq"), k.grad().expect("dk"), v.grad());
        assert_bits_eq(&mq, &want_mq, &format!("map-path dQ {what}"));
        assert_bits_eq(&mk, &want_mk, &format!("map-path dK {what}"));
        assert!(mv.is_none(), "map path reached V: {what}");
    }
}

#[test]
fn rows_read_no_key_past_their_live_count() {
    // Causal 24×24: rows 0..8 see keys 0..8 (their live count, 8), rows
    // 8..24 see more. Keys 8..24 of K and V turn NaN; the first group's
    // context, map rows and dQ rows must keep the finite inputs' bits.
    let (heads, dh, t) = (4, 8, 24);
    let mut rng = seeded_rng(0x7A11);
    let mut draw = |n: usize| Tensor::randn([n], 1.0, &mut rng).to_vec();
    let (q, k, v) = (
        draw(heads * t * dh),
        draw(heads * t * dh),
        draw(heads * t * dh),
    );
    let g_out = draw(t * heads * dh);
    let g_map = draw(t * t);
    let poison = |x: &[f32]| {
        let mut x = x.to_vec();
        for h in 0..heads {
            x[(h * t + 8) * dh..(h + 1) * t * dh].fill(f32::NAN);
        }
        x
    };
    let mask = causal_mask(t);
    // (context, map, output-path dQ, map-path dQ) of one K/V pair.
    let run = |k: &[f32], v: &[f32]| {
        let param = |x: &[f32], rows: usize| Tensor::param(x.to_vec(), [heads, rows, dh]);
        let (qt, kt, vt) = (param(&q, t), param(k, t), param(v, t));
        let (out, map) = Tensor::fused_attention(&qt, &kt, &vt, Some(&mask));
        out.mul(&Tensor::from_vec(g_out.clone(), [t, heads * dh]))
            .sum()
            .backward();
        let dq_out = qt.grad().expect("dq");
        let (qt, kt, vt) = (param(&q, t), param(k, t), param(v, t));
        let (_, map2) = Tensor::fused_attention(&qt, &kt, &vt, Some(&mask));
        map2.mul(&Tensor::from_vec(g_map.clone(), [t, t]))
            .sum()
            .backward();
        let dq_map = qt.grad().expect("dq");
        (out.to_vec(), map.to_vec(), dq_out, dq_map)
    };
    let (out, map, dq_out, dq_map) = run(&k, &v);
    let (p_out, p_map, p_dq_out, p_dq_map) = run(&poison(&k), &poison(&v));
    let d = heads * dh;
    assert_bits_eq(&p_out[..8 * d], &out[..8 * d], "context rows 0..8");
    assert_bits_eq(&p_map[..8 * t], &map[..8 * t], "map rows 0..8");
    for h in 0..heads {
        let rows = h * t * dh..(h * t + 8) * dh;
        let what = format!("head {h} dQ rows 0..8");
        assert_bits_eq(&p_dq_out[rows.clone()], &dq_out[rows.clone()], &what);
        assert_bits_eq(&p_dq_map[rows.clone()], &dq_map[rows], &what);
    }
    assert!(
        p_out[8 * d..].iter().any(|x| x.is_nan()),
        "later rows read the poisoned keys"
    );
}
