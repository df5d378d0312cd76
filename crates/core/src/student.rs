//! The lightweight student model (paper §IV-C, Fig. 3 right).
//!
//! RevIN → inverted embedding (each variable's whole history embedded as
//! one token, Eq. 18) → `TSTEncoder` (Eq. 19–23) → projection back to the
//! horizon (Eq. 27–28) → RevIN denormalisation. Only this model runs at
//! inference time, which is where TimeKD's efficiency comes from.

use timekd_nn::{Activation, Linear, Module, ParamVisitor, RevIn, TransformerEncoder};
use timekd_tensor::SeededRng;
use timekd_tensor::Tensor;

use crate::config::TimeKdConfig;

/// Student forward products.
pub struct StudentOutput {
    /// Encoder output `T̄_H` `[N, D]` (feature-distillation target side).
    pub embedding: Tensor,
    /// Head-averaged attention `A_TSE` `[N, N]` of the last encoder layer.
    pub attention: Tensor,
    /// Forecast `X̂_M` `[M, N]`, denormalised back to input scale.
    pub forecast: Tensor,
}

/// The distilled student forecaster.
pub struct Student {
    revin: RevIn,
    inverted_embedding: Linear,
    encoder: TransformerEncoder,
    projection: Linear,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
}

impl Student {
    /// Builds a student for `[input_len, num_vars]` histories and
    /// `[horizon, num_vars]` forecasts.
    pub fn new(
        config: &TimeKdConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
        rng: &mut SeededRng,
    ) -> Student {
        Student {
            revin: RevIn::new(num_vars),
            inverted_embedding: Linear::new(input_len, config.dim, rng),
            encoder: TransformerEncoder::new(
                config.dim,
                config.num_layers,
                config.num_heads,
                config.ffn_hidden,
                Activation::Relu,
                rng,
            ),
            projection: Linear::new(config.dim, horizon, rng),
            input_len,
            horizon,
            num_vars,
        }
    }

    /// Full forward pass on one history window `[H, N]`.
    pub fn forward(&self, x: &Tensor) -> StudentOutput {
        let _span = timekd_obs::span("student.forward");
        assert_eq!(
            x.dims(),
            &[self.input_len, self.num_vars],
            "student input shape mismatch: got {}",
            x.shape()
        );
        let (normed, stats) = self.revin.normalize(x);
        // Inverted embedding: each variable becomes one token carrying its
        // whole history (iTransformer-style, Eq. 18).
        let tokens = self.inverted_embedding.forward(&normed.transpose_last()); // [N, D]
        let enc = self.encoder.forward(&tokens, None);
        let projected = self.projection.forward(&enc.output).transpose_last(); // [M, N]
        let forecast = self.revin.denormalize(&projected, &stats);
        StudentOutput {
            embedding: enc.output,
            attention: enc.last_attention,
            forecast,
        }
    }

    /// Inference-only prediction (no attention/embedding export, no graph).
    pub fn predict(&self, x: &Tensor) -> Tensor {
        let _span = timekd_obs::span("student.predict");
        timekd_tensor::no_grad(|| self.forward(x).forecast)
    }

    /// History length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Forecast horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Variable count.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }
}

impl Module for Student {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.module("revin", &self.revin);
        v.module("inverted_embedding", &self.inverted_embedding);
        v.module("encoder", &self.encoder);
        v.module("projection", &self.projection);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[allow(clippy::field_reassign_with_default)]
    fn student() -> Student {
        let mut cfg = TimeKdConfig::default();
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        let mut rng = seeded_rng(0);
        Student::new(&cfg, 24, 12, 5, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let s = student();
        let mut rng = seeded_rng(1);
        let x = Tensor::randn([24, 5], 1.0, &mut rng);
        let out = s.forward(&x);
        assert_eq!(out.embedding.dims(), &[5, 16]);
        assert_eq!(out.attention.dims(), &[5, 5]);
        assert_eq!(out.forecast.dims(), &[12, 5]);
    }

    #[test]
    fn predict_builds_no_graph() {
        let s = student();
        let mut rng = seeded_rng(2);
        let x = Tensor::randn([24, 5], 1.0, &mut rng);
        let y = s.predict(&x);
        assert!(!y.requires_grad());
        assert!(y.is_leaf());
    }

    #[test]
    fn forecast_scale_follows_input_scale() {
        // RevIN denormalisation must put forecasts back on the input's
        // scale: shifting the input by +100 shifts the forecast by ~+100.
        let s = student();
        let mut rng = seeded_rng(3);
        let x = Tensor::randn([24, 5], 1.0, &mut rng);
        let y1 = s.predict(&x);
        let y2 = s.predict(&x.add_scalar(100.0));
        let mean1: f32 = y1.to_vec().iter().sum::<f32>() / 60.0;
        let mean2: f32 = y2.to_vec().iter().sum::<f32>() / 60.0;
        assert!((mean2 - mean1 - 100.0).abs() < 1.0, "Δ={}", mean2 - mean1);
    }

    #[test]
    fn learns_identity_continuation() {
        // Constant-per-channel input: a trainable student should quickly
        // learn to forecast the constant.
        let s = student();
        let params = s.params();
        let mut opt = timekd_nn::AdamW::new(
            0.01,
            timekd_nn::AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let mut rng = seeded_rng(4);
        // Linear ramps per channel continue linearly.
        let make = |offset: f32| {
            let mut x = vec![0.0; 24 * 5];
            let mut y = vec![0.0; 12 * 5];
            for j in 0..5 {
                for t in 0..24 {
                    x[t * 5 + j] = offset + (t as f32) * (j as f32 + 1.0) * 0.1;
                }
                for t in 0..12 {
                    y[t * 5 + j] = offset + ((t + 24) as f32) * (j as f32 + 1.0) * 0.1;
                }
            }
            (Tensor::from_vec(x, [24, 5]), Tensor::from_vec(y, [12, 5]))
        };
        let eval = {
            let (x, y) = make(3.3);
            move |s: &Student| timekd_data::mse(&s.predict(&x), &y)
        };
        let before = eval(&s);
        for _ in 0..60 {
            let (x, y) = make(rng.gen_range(-5.0f32..5.0));
            s.zero_grad();
            let out = s.forward(&x);
            timekd_nn::smooth_l1_loss(&out.forecast, &y).backward();
            opt.step(&params);
        }
        let after = eval(&s);
        assert!(
            after < before * 0.5,
            "student did not learn: {before} -> {after}"
        );
    }

    #[test]
    fn attention_and_embedding_in_graph_during_training() {
        let s = student();
        let mut rng = seeded_rng(5);
        let x = Tensor::randn([24, 5], 1.0, &mut rng);
        let out = s.forward(&x);
        assert!(out.embedding.requires_grad());
        assert!(out.attention.requires_grad());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_input_shape_panics() {
        let s = student();
        let x = Tensor::zeros([10, 5]);
        let _ = s.forward(&x);
    }
}
