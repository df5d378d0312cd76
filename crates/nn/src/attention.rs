//! Multi-head scaled dot-product attention with arbitrary additive masks
//! and differentiable attention-map export.
//!
//! The export matters for TimeKD: correlation distillation (paper Eq. 24)
//! aligns the head-averaged attention matrices of the teacher's privileged
//! Transformer with the student's time-series Transformer, so the student's
//! map must stay in the autograd graph.

use timekd_tensor::SeededRng;
use timekd_tensor::{Tensor, NEG_INF};

use crate::linear::Linear;
use crate::module::{Module, ParamVisitor};

/// Output of an attention call.
pub struct AttentionOutput {
    /// Attended values, `[T_q, D]`.
    pub output: Tensor,
    /// Head-averaged attention weights, `[T_q, T_k]`, differentiable.
    pub attention: Tensor,
}

/// Per-head keys and values `[H, T, dh]` of rows `0..T`, as
/// [`MultiHeadAttention::key_values`] projects them. A causal forward that
/// continues a sequence attends over the keys and values of its earlier
/// rows without recomputing them.
pub struct KeyValues {
    /// Keys `[H, T, dh]`.
    pub keys: Tensor,
    /// Values `[H, T, dh]`.
    pub values: Tensor,
}

impl KeyValues {
    /// Number of rows `T`.
    fn len(&self) -> usize {
        self.keys.dims()[1]
    }

    /// The keys and values of rows `0..rows`.
    pub fn prefix(&self, rows: usize) -> KeyValues {
        KeyValues {
            keys: self.keys.slice(1, 0, rows),
            values: self.values.slice(1, 0, rows),
        }
    }

    /// These rows followed by the rows of `next`.
    pub fn concat(&self, next: &KeyValues) -> KeyValues {
        KeyValues {
            keys: Tensor::concat(&[self.keys.clone(), next.keys.clone()], 1),
            values: Tensor::concat(&[self.values.clone(), next.values.clone()], 1),
        }
    }
}

/// Multi-head attention (self- or cross-) over rank-2 `[T, D]` inputs.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    num_heads: usize,
    head_dim: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block with `num_heads` heads over width `dim`.
    ///
    /// Panics unless `dim % num_heads == 0`.
    pub fn new(dim: usize, num_heads: usize, rng: &mut SeededRng) -> MultiHeadAttention {
        assert!(
            num_heads > 0 && dim.is_multiple_of(num_heads),
            "dim {dim} not divisible by heads {num_heads}"
        );
        MultiHeadAttention {
            wq: Linear::new_no_bias(dim, dim, rng),
            wk: Linear::new_no_bias(dim, dim, rng),
            wv: Linear::new_no_bias(dim, dim, rng),
            wo: Linear::new_no_bias(dim, dim, rng),
            num_heads,
            head_dim: dim / num_heads,
            dim,
        }
    }

    /// Splits `[T, D]` into `[H, T, dh]`.
    fn split_heads(&self, x: &Tensor) -> Tensor {
        let t = x.dims()[0];
        x.reshape([t, self.num_heads, self.head_dim])
            .permute(&[1, 0, 2])
    }

    /// Merges `[H, T, dh]` back to `[T, D]`.
    fn merge_heads(&self, x: &Tensor) -> Tensor {
        let t = x.dims()[1];
        x.permute(&[1, 0, 2]).reshape([t, self.dim])
    }

    /// Attention with query from `q_in` `[T_q, D]` and key/value from
    /// `kv_in` `[T_k, D]`. `mask` is an optional additive bias `[T_q, T_k]`
    /// applied to the pre-softmax scores (use large negatives to forbid
    /// positions, per the paper's Eq. 4–5).
    ///
    /// The attention core is the fused kernel (`Tensor::fused_attention`):
    /// one graph node for `softmax(QK^T/√dh + mask)V` with head-merge
    /// folded in, plus one node for the differentiable head-averaged map.
    /// [`attend_composed`](Self::attend_composed) keeps the original
    /// op-by-op chain as a reference.
    pub fn attend(&self, q_in: &Tensor, kv_in: &Tensor, mask: Option<&Tensor>) -> AttentionOutput {
        let _span = timekd_obs::span("nn.attention");
        assert_eq!(kv_in.shape().rank(), 2, "attention expects [T, D] inputs");
        let q = self.queries(q_in);
        self.attend_queries(&q, &self.key_values(kv_in), mask)
    }

    /// [`attend`](Self::attend) over precomputed per-head keys and values
    /// `kv` (`T_k` rows); `mask` is `[T_q, T_k]`.
    pub fn attend_cached(
        &self,
        q_in: &Tensor,
        kv: &KeyValues,
        mask: Option<&Tensor>,
    ) -> AttentionOutput {
        let _span = timekd_obs::span("nn.attention");
        self.attend_queries(&self.queries(q_in), kv, mask)
    }

    /// Projects `kv_in` `[T, D]` into per-head keys and values.
    pub fn key_values(&self, kv_in: &Tensor) -> KeyValues {
        KeyValues {
            keys: self.split_heads(&self.wk.forward(kv_in)),
            values: self.split_heads(&self.wv.forward(kv_in)),
        }
    }

    /// Projects `q_in` `[T_q, D]` into per-head queries `[H, T_q, dh]`.
    fn queries(&self, q_in: &Tensor) -> Tensor {
        assert_eq!(q_in.shape().rank(), 2, "attention expects [T, D] inputs");
        self.split_heads(&self.wq.forward(q_in))
    }

    /// The fused attention core and output projection.
    fn attend_queries(&self, q: &Tensor, kv: &KeyValues, mask: Option<&Tensor>) -> AttentionOutput {
        if let Some(m) = mask {
            assert_eq!(m.dims(), &[q.dims()[1], kv.len()], "mask shape mismatch");
        }
        let (ctx, attention) = Tensor::fused_attention(q, &kv.keys, &kv.values, mask);
        let output = self.wo.forward(&ctx);
        AttentionOutput { output, attention }
    }

    /// The pre-fusion reference implementation: the same attention built
    /// from composed autograd ops (matmul / scale / softmax / matmul /
    /// merge). Kept public so equivalence tests and benchmarks can compare
    /// the fused kernel against it; production paths use
    /// [`attend`](Self::attend).
    pub fn attend_composed(
        &self,
        q_in: &Tensor,
        kv_in: &Tensor,
        mask: Option<&Tensor>,
    ) -> AttentionOutput {
        assert_eq!(q_in.shape().rank(), 2, "attention expects [T, D] inputs");
        assert_eq!(kv_in.shape().rank(), 2, "attention expects [T, D] inputs");
        let tq = q_in.dims()[0];
        let tk = kv_in.dims()[0];
        if let Some(m) = mask {
            assert_eq!(m.dims(), &[tq, tk], "mask shape mismatch");
        }
        let q = self.split_heads(&self.wq.forward(q_in)); // [H, Tq, dh]
        let k = self.split_heads(&self.wk.forward(kv_in)); // [H, Tk, dh]
        let v = self.split_heads(&self.wv.forward(kv_in)); // [H, Tk, dh]
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut scores = q.matmul(&k.transpose_last()).mul_scalar(scale); // [H, Tq, Tk]
        if let Some(m) = mask {
            scores = scores.add(m);
        }
        let attn = scores.softmax_last(); // [H, Tq, Tk]
        let ctx = attn.matmul(&v); // [H, Tq, dh]
        let output = self.wo.forward(&self.merge_heads(&ctx));
        let attention = attn.mean_axis(0, false); // [Tq, Tk]
        AttentionOutput { output, attention }
    }

    /// Self-attention shorthand.
    pub fn forward(&self, x: &Tensor, mask: Option<&Tensor>) -> AttentionOutput {
        self.attend(x, x, mask)
    }

    /// Number of heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Module for MultiHeadAttention {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.module("wq", &self.wq);
        v.module("wk", &self.wk);
        v.module("wv", &self.wv);
        v.module("wo", &self.wo);
    }
}

/// Builds a causal (lower-triangular) additive mask of size `[t, t]` with
/// [`NEG_INF`] above the diagonal, so the fused kernel skips each row's
/// future keys.
pub fn causal_mask(t: usize) -> Tensor {
    causal_mask_rows(0, t)
}

/// Rows `start..t` `[t − start, t]` of [`causal_mask`]`(t)`.
pub fn causal_mask_rows(start: usize, t: usize) -> Tensor {
    assert!(start <= t, "causal_mask_rows: start {start} > {t}");
    let mut data = vec![0.0f32; (t - start) * t];
    for i in start..t {
        let row = (i - start) * t;
        data[row + i + 1..row + t].fill(NEG_INF);
    }
    Tensor::from_vec(data, [t - start, t])
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn output_shapes() {
        let mut rng = seeded_rng(0);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::randn([5, 8], 1.0, &mut rng);
        let out = mha.forward(&x, None);
        assert_eq!(out.output.dims(), &[5, 8]);
        assert_eq!(out.attention.dims(), &[5, 5]);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut rng = seeded_rng(1);
        let mha = MultiHeadAttention::new(8, 4, &mut rng);
        let x = Tensor::randn([6, 8], 1.0, &mut rng);
        let out = mha.forward(&x, None);
        let a = out.attention.to_vec();
        for r in 0..6 {
            let s: f32 = a[r * 6..(r + 1) * 6].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut rng = seeded_rng(2);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let mask = causal_mask(4);
        let out = mha.forward(&x, Some(&mask));
        let a = out.attention.to_vec();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    a[i * 4 + j] < 1e-6,
                    "future position attended: {}",
                    a[i * 4 + j]
                );
            }
        }
    }

    #[test]
    fn causal_first_token_unaffected_by_later_tokens() {
        let mut rng = seeded_rng(3);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x1 = Tensor::randn([4, 8], 1.0, &mut rng);
        // Perturb only the last token.
        let mut data = x1.to_vec();
        for v in data[24..32].iter_mut() {
            *v += 5.0;
        }
        let x2 = Tensor::from_vec(data, [4, 8]);
        let m = causal_mask(4);
        let y1 = mha.forward(&x1, Some(&m)).output.to_vec();
        let y2 = mha.forward(&x2, Some(&m)).output.to_vec();
        // Tokens 0..3 outputs identical; token 3 differs.
        assert_eq!(&y1[0..24], &y2[0..24]);
        assert_ne!(&y1[24..32], &y2[24..32]);
    }

    #[test]
    fn cross_attention_shapes() {
        let mut rng = seeded_rng(4);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Tensor::randn([3, 8], 1.0, &mut rng);
        let kv = Tensor::randn([7, 8], 1.0, &mut rng);
        let out = mha.attend(&q, &kv, None);
        assert_eq!(out.output.dims(), &[3, 8]);
        assert_eq!(out.attention.dims(), &[3, 7]);
    }

    #[test]
    fn attention_map_is_differentiable() {
        let mut rng = seeded_rng(5);
        let mha = MultiHeadAttention::new(4, 1, &mut rng);
        let x = Tensor::randn([3, 4], 1.0, &mut rng);
        let out = mha.forward(&x, None);
        // A loss on the attention map must reach the projections — this is
        // exactly what correlation distillation does.
        out.attention.square().mean().backward();
        assert!(mha.params()[0].grad().is_some(), "wq got no gradient");
        assert!(mha.params()[1].grad().is_some(), "wk got no gradient");
    }

    #[test]
    fn grad_check_through_attention() {
        let mut rng = seeded_rng(6);
        let mha = MultiHeadAttention::new(4, 2, &mut rng);
        let x = Tensor::randn([3, 4], 1.0, &mut rng);
        let wq = mha.params()[0].clone();
        timekd_tensor::assert_gradients_close(
            &wq,
            || mha.forward(&x, None).output.square().mean(),
            2e-2,
        );
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panic() {
        let mut rng = seeded_rng(0);
        let _ = MultiHeadAttention::new(6, 4, &mut rng);
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

    /// Forward and backward equivalence of the fused `attend` against the
    /// composed reference, per satellite spec: multiple head counts,
    /// rectangular `T_q != T_k`, and causal / dense additive masks.
    #[test]
    fn fused_matches_composed_across_configs() {
        for (seed, heads, tq, tk, masked) in [
            (10u64, 1usize, 4usize, 4usize, false),
            (11, 2, 3, 7, false),
            (12, 4, 6, 6, true), // causal (square only)
            (13, 2, 5, 3, false),
        ] {
            let mut rng = seeded_rng(seed);
            let mha = MultiHeadAttention::new(8, heads, &mut rng);
            let q_in = Tensor::randn([tq, 8], 1.0, &mut rng);
            let kv_in = Tensor::randn([tk, 8], 1.0, &mut rng);
            let mask = if masked { Some(causal_mask(tq)) } else { None };

            let run = |fused: bool| {
                for p in mha.params() {
                    p.zero_grad();
                }
                let out = if fused {
                    mha.attend(&q_in, &kv_in, mask.as_ref())
                } else {
                    mha.attend_composed(&q_in, &kv_in, mask.as_ref())
                };
                out.output
                    .square()
                    .sum()
                    .add(&out.attention.square().sum())
                    .backward();
                let grads: Vec<Vec<f32>> = mha
                    .params()
                    .iter()
                    .map(|p| p.grad().expect("param missing grad"))
                    .collect();
                (out.output.to_vec(), out.attention.to_vec(), grads)
            };
            let (fo, fm, fg) = run(true);
            let (co, cm, cg) = run(false);
            let tag = format!("heads={heads} tq={tq} tk={tk} masked={masked}");
            assert_close(&fo, &co, 1e-4, &format!("{tag} output"));
            assert_close(&fm, &cm, 1e-4, &format!("{tag} map"));
            for (gi, (f, c)) in fg.iter().zip(&cg).enumerate() {
                assert_close(f, c, 1e-3, &format!("{tag} grad[{gi}]"));
            }
        }
    }

    /// Dense random additive mask (not just causal) through both paths.
    #[test]
    fn fused_matches_composed_with_additive_mask() {
        let mut rng = seeded_rng(14);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let q_in = Tensor::randn([4, 8], 1.0, &mut rng);
        let kv_in = Tensor::randn([6, 8], 1.0, &mut rng);
        let mask = Tensor::randn([4, 6], 1.0, &mut rng);
        let f = mha.attend(&q_in, &kv_in, Some(&mask));
        let c = mha.attend_composed(&q_in, &kv_in, Some(&mask));
        assert_close(&f.output.to_vec(), &c.output.to_vec(), 1e-4, "output");
        assert_close(&f.attention.to_vec(), &c.attention.to_vec(), 1e-4, "map");
    }

    /// Grad-checks every projection (wq/wk/wv/wo) through the fused path,
    /// with a loss that mixes the output and the attention map.
    #[test]
    fn grad_check_all_projections_through_fused() {
        let mut rng = seeded_rng(15);
        let mha = MultiHeadAttention::new(4, 2, &mut rng);
        let x = Tensor::randn([3, 4], 1.0, &mut rng);
        for (i, p) in mha.params().iter().enumerate() {
            timekd_tensor::assert_gradients_close(
                p,
                || {
                    let out = mha.forward(&x, None);
                    out.output
                        .square()
                        .mean()
                        .add(&out.attention.square().mean())
                },
                2e-2,
            );
            let _ = i;
        }
    }
}
