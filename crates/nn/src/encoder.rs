//! Position-wise feed-forward networks and the Pre-LN Transformer encoder
//! (Xiong et al. 2020) used by both `PTEncoder` and `TSTEncoder` in the
//! paper (Eq. 10–14 and 19–21).

use timekd_tensor::SeededRng;
use timekd_tensor::Tensor;

use crate::attention::{KeyValues, MultiHeadAttention};
use crate::linear::Linear;
use crate::module::{Module, ParamVisitor};
use crate::norm::LayerNorm;

/// Activation used inside feed-forward blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)` — the paper's FFN (Eq. 7).
    Relu,
    /// GELU — the GPT backbone convention.
    Gelu,
}

/// Two-layer position-wise FFN: `act(x W₁ + b₁) W₂ + b₂`.
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
    activation: Activation,
}

impl FeedForward {
    /// FFN expanding `dim` to `hidden` and back.
    pub fn new(
        dim: usize,
        hidden: usize,
        activation: Activation,
        rng: &mut SeededRng,
    ) -> FeedForward {
        FeedForward {
            fc1: Linear::new(dim, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
            activation,
        }
    }

    /// Applies the FFN to the last axis.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let h = self.fc1.forward(x);
        let h = match self.activation {
            Activation::Relu => h.relu(),
            Activation::Gelu => h.gelu(),
        };
        self.fc2.forward(&h)
    }
}

impl Module for FeedForward {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.module("fc1", &self.fc1);
        v.module("fc2", &self.fc2);
    }
}

/// One Pre-LN encoder layer:
/// `y = x + Att(LN(x))`, `z = y + FFN(LN(y))`.
pub struct EncoderLayer {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
}

/// Output of an encoder forward pass.
pub struct EncoderOutput {
    /// Encoded sequence `[T, D]`.
    pub output: Tensor,
    /// Head-averaged attention of the **last** layer, `[T, T]`,
    /// differentiable (consumed by correlation distillation).
    pub last_attention: Tensor,
}

impl EncoderLayer {
    /// Creates one layer with `num_heads` heads and an FFN hidden width of
    /// `ffn_hidden`.
    pub fn new(
        dim: usize,
        num_heads: usize,
        ffn_hidden: usize,
        activation: Activation,
        rng: &mut SeededRng,
    ) -> EncoderLayer {
        EncoderLayer {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, num_heads, rng),
            ln2: LayerNorm::new(dim),
            ffn: FeedForward::new(dim, ffn_hidden, activation, rng),
        }
    }

    /// Applies the layer; returns the output and this layer's attention map.
    pub fn forward(&self, x: &Tensor, mask: Option<&Tensor>) -> (Tensor, Tensor) {
        let attended = self.attn.forward(&self.ln1.forward(x), mask);
        (self.residual_ffn(&attended.output, x), attended.attention)
    }

    /// Continues a causal forward (see [`TransformerEncoder::forward_rows`]):
    /// `x` `[n, D]` holds this layer's input rows `p..p+n`, `past` the keys
    /// and values of rows `0..p`, `mask` the bias rows `[n, p+n]`. Returns
    /// the output rows — only the last one with `last_only` — and the keys
    /// and values of rows `0..p+n`.
    fn forward_rows(
        &self,
        x: &Tensor,
        mask: &Tensor,
        past: Option<&KeyValues>,
        last_only: bool,
    ) -> (Tensor, KeyValues) {
        let normed = self.ln1.forward(x);
        let own = self.attn.key_values(&normed);
        let kv = match past {
            Some(past) => past.concat(&own),
            None => own,
        };
        let (q_in, x, mask) = if last_only {
            let last = x.dims()[0] - 1;
            (
                normed.slice(0, last, 1),
                x.slice(0, last, 1),
                mask.slice(0, last, 1),
            )
        } else {
            (normed, x.clone(), mask.clone())
        };
        let attended = self.attn.attend_cached(&q_in, &kv, Some(&mask));
        (self.residual_ffn(&attended.output, &x), kv)
    }

    /// `y = x + attended`, `z = y + FFN(LN2(y))`.
    fn residual_ffn(&self, attended: &Tensor, x: &Tensor) -> Tensor {
        let y = attended.add(x);
        self.ffn.forward(&self.ln2.forward(&y)).add(&y)
    }
}

impl Module for EncoderLayer {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.module("ln1", &self.ln1);
        v.module("attn", &self.attn);
        v.module("ln2", &self.ln2);
        v.module("ffn", &self.ffn);
    }
}

/// Output of [`TransformerEncoder::forward_rows`].
pub struct RowsOutput {
    /// The final-normed last row `[1, D]`.
    pub last: Tensor,
    /// Each layer's keys and values over every row of the sequence so far.
    pub key_values: Vec<KeyValues>,
}

/// Stack of Pre-LN encoder layers with a final layer norm.
///
/// This is the shared architecture of the paper's `PTEncoder` (teacher) and
/// `TSTEncoder` (student); both are "lightweight Pre-LN Transformer
/// encoders" with identical structure (§IV-A).
pub struct TransformerEncoder {
    layers: Vec<EncoderLayer>,
    final_ln: LayerNorm,
    dim: usize,
}

impl TransformerEncoder {
    /// Creates a stack of `num_layers` encoder layers of width `dim`.
    pub fn new(
        dim: usize,
        num_layers: usize,
        num_heads: usize,
        ffn_hidden: usize,
        activation: Activation,
        rng: &mut SeededRng,
    ) -> TransformerEncoder {
        assert!(num_layers > 0, "encoder needs at least one layer");
        TransformerEncoder {
            layers: (0..num_layers)
                .map(|_| EncoderLayer::new(dim, num_heads, ffn_hidden, activation, rng))
                .collect(),
            final_ln: LayerNorm::new(dim),
            dim,
        }
    }

    /// Encodes `x` `[T, D]`; exports the last layer's attention map.
    pub fn forward(&self, x: &Tensor, mask: Option<&Tensor>) -> EncoderOutput {
        let _span = timekd_obs::span("nn.encoder");
        let mut h = x.clone();
        let mut last_attention = None;
        for layer in &self.layers {
            let (out, attn) = layer.forward(&h, mask);
            h = out;
            last_attention = Some(attn);
        }
        EncoderOutput {
            output: self.final_ln.forward(&h),
            last_attention: last_attention.expect("at least one layer"),
        }
    }

    /// Continues a causally masked forward from the keys and values of its
    /// earlier rows. `x` `[n, D]` holds the input rows `p..p+n`, `past`
    /// each layer's keys and values of rows `0..p` (empty when `p = 0`),
    /// and `mask` the bias rows `[n, p+n]`. Every layer but the last runs
    /// on all `n` rows; the last one computes keys and values for all of
    /// them but its query, residual, `LN2`, FFN and the final norm for the
    /// last row only. No attention map is returned.
    ///
    /// Each row's bits are independent of how many rows run in the call
    /// (matmul, layer norm, activations and residual adds work row by row,
    /// and an attention row reads only its own mask row), so the last row
    /// equals the last row of [`forward`](Self::forward) over all `p + n`
    /// rows bit for bit when `past` holds that forward's keys and values —
    /// that is, when rows `0..p` visited the same live keys (see
    /// `Tensor::fused_attention`) in the call that produced them.
    pub fn forward_rows(&self, x: &Tensor, mask: &Tensor, past: &[KeyValues]) -> RowsOutput {
        let _span = timekd_obs::span("nn.encoder");
        assert!(
            past.is_empty() || past.len() == self.layers.len(),
            "forward_rows: {} past layers for {} layers",
            past.len(),
            self.layers.len()
        );
        let last = self.layers.len() - 1;
        let mut h = x.clone();
        let mut key_values = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let (out, kv) = layer.forward_rows(&h, mask, past.get(i), i == last);
            h = out;
            key_values.push(kv);
        }
        RowsOutput {
            last: self.final_ln.forward(&h),
            key_values,
        }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Module for TransformerEncoder {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        for (i, l) in self.layers.iter().enumerate() {
            v.module(&format!("layer{i}"), l);
        }
        v.module("final_ln", &self.final_ln);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn ffn_shapes_and_relu_kink() {
        let mut rng = seeded_rng(0);
        let ffn = FeedForward::new(4, 16, Activation::Relu, &mut rng);
        let x = Tensor::randn([5, 4], 1.0, &mut rng);
        assert_eq!(ffn.forward(&x).dims(), &[5, 4]);
    }

    #[test]
    fn encoder_preserves_shape() {
        let mut rng = seeded_rng(1);
        let enc = TransformerEncoder::new(8, 2, 2, 32, Activation::Relu, &mut rng);
        let x = Tensor::randn([6, 8], 1.0, &mut rng);
        let out = enc.forward(&x, None);
        assert_eq!(out.output.dims(), &[6, 8]);
        assert_eq!(out.last_attention.dims(), &[6, 6]);
    }

    #[test]
    fn encoder_param_count_scales_with_layers() {
        let mut rng = seeded_rng(2);
        let e1 = TransformerEncoder::new(8, 1, 2, 32, Activation::Relu, &mut rng);
        let e2 = TransformerEncoder::new(8, 2, 2, 32, Activation::Relu, &mut rng);
        let per_layer = e1.num_params() - 16; // minus final LN (2*8)
        assert_eq!(e2.num_params(), 2 * per_layer + 16);
    }

    #[test]
    fn residual_path_dominates_at_init() {
        // With Pre-LN and small init, output should stay correlated with
        // input (the residual stream), not explode.
        let mut rng = seeded_rng(3);
        let enc = TransformerEncoder::new(8, 2, 2, 16, Activation::Gelu, &mut rng);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let y = enc.forward(&x, None).output;
        assert!(y.max_value().is_finite());
        assert!(y.to_vec().iter().all(|v| v.abs() < 50.0));
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        // Sanity: one encoder + readout can fit a fixed random mapping.
        let mut rng = seeded_rng(4);
        let enc = TransformerEncoder::new(8, 1, 2, 16, Activation::Relu, &mut rng);
        let head = crate::linear::Linear::new(8, 1, &mut rng);
        let x = Tensor::randn([6, 8], 1.0, &mut rng);
        let target = Tensor::randn([6, 1], 1.0, &mut rng);
        let mut params = enc.params();
        params.extend(head.params());
        let mut opt = crate::optim::AdamW::new(0.01, Default::default());
        let loss0 = {
            let out = enc.forward(&x, None);
            head.forward(&out.output)
                .sub(&target)
                .square()
                .mean()
                .item()
        };
        for _ in 0..60 {
            let out = enc.forward(&x, None);
            let loss = head.forward(&out.output).sub(&target).square().mean();
            for p in &params {
                p.zero_grad();
            }
            loss.backward();
            opt.step(&params);
        }
        let loss1 = {
            let out = enc.forward(&x, None);
            head.forward(&out.output)
                .sub(&target)
                .square()
                .mean()
                .item()
        };
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn attention_export_differentiable_through_stack() {
        let mut rng = seeded_rng(5);
        let enc = TransformerEncoder::new(8, 2, 2, 16, Activation::Relu, &mut rng);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let out = enc.forward(&x, None);
        out.last_attention.square().mean().backward();
        // Gradients must reach at least the first layer's parameters.
        assert!(enc.params().iter().any(|p| p.grad().is_some()));
    }
}
