//! Time-LLM (Jin et al., ICLR 2024): reprograms a frozen LLM for
//! forecasting. Per channel, history patches are embedded and then
//! *reprogrammed* — cross-attended onto a bank of text prototypes drawn
//! from the LM's token-embedding space — before passing through the frozen
//! LM body and a flatten-projection head.
//!
//! Channel independence plus a full LM pass per channel is what makes
//! Time-LLM the slowest method in the paper's Table IV; the structure here
//! reproduces that cost profile.

use std::rc::Rc;

use timekd_data::{column, ForecastWindow};
use timekd_lm::FrozenLm;
use timekd_nn::{clip_grad_norm, mse_loss, AdamW, AdamWConfig, Linear, Module, MultiHeadAttention};
use timekd_tensor::SeededRng;
use timekd_tensor::{seeded_rng, Tensor};

use timekd::Forecaster;

use crate::common::{instance_denormalize, instance_normalize, num_patches, patchify};

/// Time-LLM hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TimeLlmConfig {
    /// Patch length.
    pub patch_len: usize,
    /// Patch stride.
    pub stride: usize,
    /// Number of text prototypes in the reprogramming bank.
    pub num_prototypes: usize,
    /// Reprogramming attention heads.
    pub num_heads: usize,
    /// Learning rate.
    pub lr: f32,
    /// Init seed.
    pub seed: u64,
}

impl Default for TimeLlmConfig {
    fn default() -> Self {
        TimeLlmConfig {
            patch_len: 8,
            stride: 4,
            num_prototypes: 16,
            num_heads: 2,
            lr: 2e-3,
            seed: 15,
        }
    }
}

/// The Time-LLM forecaster.
pub struct TimeLlm {
    lm: Rc<FrozenLm>,
    patch_embed: Linear,
    prototypes: Tensor,
    reprogram: MultiHeadAttention,
    head: Linear,
    config: TimeLlmConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    n_patches: usize,
    optimizer: AdamW,
}

impl TimeLlm {
    /// Builds Time-LLM around a shared frozen LM. The prototype bank is
    /// initialised from rows of the LM's token-embedding table (the "text
    /// prototype" trick of the paper) and then fine-tuned.
    pub fn new(
        lm: Rc<FrozenLm>,
        config: TimeLlmConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> TimeLlm {
        let lm_dim = lm.model().config().dim;
        let n_patches = num_patches(input_len, config.patch_len, config.stride);
        let mut rng: SeededRng = seeded_rng(config.seed);
        // Prototypes: a trainable copy of the first rows of the token table.
        let table = lm.model().token_embedding_table();
        let rows = config.num_prototypes.min(table.dims()[0]);
        let proto_init = table.slice(0, 0, rows).to_vec();
        let prototypes = Tensor::param(proto_init, [rows, lm_dim]);
        TimeLlm {
            reprogram: MultiHeadAttention::new(lm_dim, config.num_heads, &mut rng),
            patch_embed: Linear::new(config.patch_len, lm_dim, &mut rng),
            head: Linear::new(n_patches * lm_dim, horizon, &mut rng),
            prototypes,
            lm,
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
                                                               // Reprogramming: patches query the text prototype bank.
            let reprogrammed = self
                .reprogram
                .attend(&embedded, &self.prototypes, None)
                .output
                .add(&embedded);
            let hidden = self.lm.model().encode_embeddings(&reprogrammed);
            let flat = hidden.reshape([1, self.n_patches * lm_dim]);
            channels.push(self.head.forward(&flat));
        }
        let out = Tensor::concat(&channels, 0).transpose_last();
        instance_denormalize(&out, &stats)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut v = self.patch_embed.params();
        v.push(self.prototypes.clone());
        v.extend(self.reprogram.params());
        v.extend(self.head.params());
        v
    }
}

impl Forecaster for TimeLlm {
    fn name(&self) -> String {
        "Time-LLM".into()
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
        let m = TimeLlm::new(frozen_lm(), TimeLlmConfig::default(), 24, 8, 3);
        assert_eq!(m.predict(&Tensor::zeros([24, 3])).dims(), &[8, 3]);
    }

    #[test]
    fn prototypes_initialised_from_token_table() {
        let lm = frozen_lm();
        let m = TimeLlm::new(lm.clone(), TimeLlmConfig::default(), 24, 8, 3);
        let table = lm.model().token_embedding_table();
        let rows = TimeLlmConfig::default().num_prototypes.min(table.dims()[0]);
        assert_eq!(m.prototypes.to_vec(), table.slice(0, 0, rows).to_vec());
        assert!(m.prototypes.requires_grad(), "prototypes must be trainable");
    }

    #[test]
    fn prototypes_move_during_training() {
        let ds = SplitDataset::new(DatasetKind::EttH1, 500, 3, 24, 8);
        let lm = frozen_lm();
        let mut m = TimeLlm::new(lm.clone(), TimeLlmConfig::default(), 24, 8, ds.num_vars());
        let before = m.prototypes.to_vec();
        let train = ds.windows(Split::Train, 64);
        m.train_epoch(&train[..2.min(train.len())]);
        assert_ne!(m.prototypes.to_vec(), before);
        assert!(
            lm.model().params().iter().all(|p| !p.has_grad()),
            "training left gradients on the shared frozen LM"
        );
    }

    #[test]
    fn learns_on_synthetic_data() {
        // With instance normalisation the initial validation error is
        // already near the noise floor at this tiny scale, so assert on
        // the training-loss trajectory instead.
        let ds = SplitDataset::new(DatasetKind::EttM1, 500, 5, 24, 8);
        let mut m = TimeLlm::new(frozen_lm(), TimeLlmConfig::default(), 24, 8, ds.num_vars());
        let train = ds.windows(Split::Train, 24);
        let first = m.train_epoch(&train);
        let mut last = first;
        for _ in 0..3 {
            last = m.train_epoch(&train);
        }
        assert!(last < first, "training loss must fall: {first} -> {last}");
    }
}
