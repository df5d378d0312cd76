//! OFA / GPT4TS (Zhou et al., NeurIPS 2023): "One Fits All" — time-series
//! patches are linearly embedded and passed through the body of a frozen
//! language model; only the input embedding and output head are trained.
//!
//! Gradients flow *through* the frozen blocks (they are in the graph), but
//! the block parameters are excluded from the optimizer — exactly the
//! paper's freeze-attention-and-FFN recipe, and the reason OFA's training
//! cost sits between the pure-Transformer models and the full LLM methods
//! (Table IV).

use std::rc::Rc;

use timekd_data::{column, ForecastWindow};
use timekd_lm::FrozenLm;
use timekd_nn::{clip_grad_norm, mse_loss, AdamW, AdamWConfig, Linear, Module};
use timekd_tensor::SeededRng;
use timekd_tensor::{seeded_rng, Tensor};

use timekd::Forecaster;

use crate::common::{instance_denormalize, instance_normalize, num_patches, patchify};

/// OFA hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct OfaConfig {
    /// Patch length.
    pub patch_len: usize,
    /// Patch stride.
    pub stride: usize,
    /// Learning rate.
    pub lr: f32,
    /// Init seed.
    pub seed: u64,
}

impl Default for OfaConfig {
    fn default() -> Self {
        OfaConfig {
            patch_len: 8,
            stride: 4,
            lr: 2e-3,
            seed: 14,
        }
    }
}

/// The OFA forecaster.
pub struct Ofa {
    lm: Rc<FrozenLm>,
    patch_embed: Linear,
    head: Linear,
    config: OfaConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    n_patches: usize,
    optimizer: AdamW,
}

impl Ofa {
    /// Builds OFA around a shared frozen LM.
    pub fn new(
        lm: Rc<FrozenLm>,
        config: OfaConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> Ofa {
        let lm_dim = lm.model().config().dim;
        let n_patches = num_patches(input_len, config.patch_len, config.stride);
        let mut rng: SeededRng = seeded_rng(config.seed);
        Ofa {
            lm,
            patch_embed: Linear::new(config.patch_len, lm_dim, &mut rng),
            head: Linear::new(n_patches * lm_dim, horizon, &mut rng),
            config,
            input_len,
            horizon,
            num_vars,
            n_patches,
            optimizer: AdamW::new(
                config.lr,
                AdamWConfig {
                    weight_decay: 0.0,
                    ..Default::default()
                },
            ),
        }
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims(), &[self.input_len, self.num_vars]);
        debug_assert_eq!(self.head.out_features(), self.horizon);
        let lm_dim = self.lm.model().config().dim;
        let (xn, stats) = instance_normalize(x);
        let mut channels = Vec::with_capacity(self.num_vars);
        for v in 0..self.num_vars {
            let series = column(&xn, v);
            let patches = patchify(&series, self.config.patch_len, self.config.stride);
            let embedded = self.patch_embed.forward(&patches); // [P, lm_dim]
            let hidden = self.lm.model().encode_embeddings(&embedded); // frozen body
            let flat = hidden.reshape([1, self.n_patches * lm_dim]);
            channels.push(self.head.forward(&flat)); // [1, M]
        }
        let out = Tensor::concat(&channels, 0).transpose_last();
        instance_denormalize(&out, &stats)
    }

    /// Only the embedding and head are fine-tuned; the LM body is frozen.
    fn params(&self) -> Vec<Tensor> {
        let mut v = self.patch_embed.params();
        v.extend(self.head.params());
        v
    }
}

impl Forecaster for Ofa {
    fn name(&self) -> String {
        "OFA".into()
    }

    fn train_epoch(&mut self, windows: &[ForecastWindow]) -> f32 {
        let params = self.params();
        let lm_params = self.lm.model().params();
        let mut total = 0.0;
        for w in windows {
            for p in &params {
                p.zero_grad();
            }
            let loss = mse_loss(&self.forward(&w.x), &w.y);
            total += loss.item();
            loss.backward();
            // The LM body is frozen and shared with other models: drop the
            // gradients that flowed through it instead of leaving them on
            // its parameters.
            for p in &lm_params {
                p.zero_grad();
            }
            clip_grad_norm(&params, 1.0);
            self.optimizer.step(&params);
        }
        total / windows.len().max(1) as f32
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        timekd_tensor::no_grad(|| self.forward(x))
    }

    fn num_trainable_params(&self) -> usize {
        self.params().iter().map(Tensor::num_elements).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_data::{DatasetKind, Split, SplitDataset};
    use timekd_lm::{pretrain_lm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};

    fn frozen_lm() -> Rc<FrozenLm> {
        let tok = PromptTokenizer::new();
        let (lm, _) = pretrain_lm(
            &tok,
            LmConfig::for_size(LmSize::Small),
            PretrainConfig {
                steps: 2,
                ..Default::default()
            },
        );
        Rc::new(FrozenLm::new(lm))
    }

    #[test]
    fn shapes() {
        let m = Ofa::new(frozen_lm(), OfaConfig::default(), 24, 8, 3);
        assert_eq!(m.predict(&Tensor::zeros([24, 3])).dims(), &[8, 3]);
    }

    #[test]
    fn lm_body_not_updated_by_training() {
        let lm = frozen_lm();
        let before: Vec<Vec<f32>> = lm.model().params().iter().map(|p| p.to_vec()).collect();
        let ds = SplitDataset::new(DatasetKind::EttH1, 500, 3, 24, 8);
        let mut m = Ofa::new(lm.clone(), OfaConfig::default(), 24, 8, ds.num_vars());
        let train = ds.windows(Split::Train, 64);
        m.train_epoch(&train[..2.min(train.len())]);
        let after: Vec<Vec<f32>> = lm.model().params().iter().map(|p| p.to_vec()).collect();
        assert_eq!(before, after, "frozen LM weights moved");
        assert!(
            lm.model().params().iter().all(|p| !p.has_grad()),
            "training left gradients on the shared frozen LM"
        );
    }

    #[test]
    fn trainable_params_much_smaller_than_lm() {
        let lm = frozen_lm();
        let lm_size = lm.model().num_params();
        let m = Ofa::new(lm, OfaConfig::default(), 24, 8, 3);
        assert!(m.num_trainable_params() < lm_size * 3);
        assert!(m.num_trainable_params() > 0);
    }

    #[test]
    fn learns_on_synthetic_data() {
        let ds = SplitDataset::new(DatasetKind::EttH1, 500, 5, 24, 8);
        let mut m = Ofa::new(frozen_lm(), OfaConfig::default(), 24, 8, ds.num_vars());
        let train = ds.windows(Split::Train, 16);
        let val = ds.windows(Split::Val, 16);
        let (before, _) = m.evaluate(&val);
        for _ in 0..2 {
            m.train_epoch(&train);
        }
        let (after, _) = m.evaluate(&val);
        assert!(after < before, "{before} -> {after}");
    }
}
