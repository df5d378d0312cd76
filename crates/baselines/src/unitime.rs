//! UniTime (Liu et al., WWW 2024): language-instruction-conditioned
//! forecasting. A fixed natural-language instruction is embedded with the
//! LM's token table and prepended to per-channel patch embeddings; the
//! joint sequence runs through the frozen LM body ("Language-TS
//! Transformer") and the time-series positions are projected to the
//! horizon. Channel-independent.

use std::rc::Rc;

use timekd_data::{column, ForecastWindow};
use timekd_lm::{FrozenLm, PromptPiece, PromptTokenizer};
use timekd_nn::{clip_grad_norm, mse_loss, AdamW, AdamWConfig, Linear, Module};
use timekd_tensor::SeededRng;
use timekd_tensor::{seeded_rng, Tensor};

use timekd::Forecaster;

use crate::common::{instance_denormalize, instance_normalize, num_patches, patchify};

/// UniTime hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct UniTimeConfig {
    /// Patch length.
    pub patch_len: usize,
    /// Patch stride.
    pub stride: usize,
    /// Learning rate.
    pub lr: f32,
    /// Init seed.
    pub seed: u64,
}

impl Default for UniTimeConfig {
    fn default() -> Self {
        UniTimeConfig {
            patch_len: 8,
            stride: 4,
            lr: 2e-3,
            seed: 16,
        }
    }
}

/// The UniTime forecaster.
pub struct UniTime {
    lm: Rc<FrozenLm>,
    instruction_ids: Vec<usize>,
    patch_embed: Linear,
    head: Linear,
    config: UniTimeConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    n_patches: usize,
    optimizer: AdamW,
}

impl UniTime {
    /// Builds UniTime around a shared frozen LM and the instruction
    /// "forecast the next steps of the time series".
    pub fn new(
        lm: Rc<FrozenLm>,
        config: UniTimeConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> UniTime {
        let tokenizer = PromptTokenizer::new();
        let instruction = tokenizer.encode(&[
            PromptPiece::Word("forecast"),
            PromptPiece::Word("the"),
            PromptPiece::Word("next"),
            PromptPiece::Word("steps"),
            PromptPiece::Word("of"),
            PromptPiece::Word("the"),
            PromptPiece::Word("time"),
            PromptPiece::Word("series"),
        ]);
        let instruction_ids: Vec<usize> = instruction.iter().map(|t| t.id).collect();
        let lm_dim = lm.model().config().dim;
        let n_patches = num_patches(input_len, config.patch_len, config.stride);
        let mut rng: SeededRng = seeded_rng(config.seed);
        UniTime {
            patch_embed: Linear::new(config.patch_len, lm_dim, &mut rng),
            head: Linear::new(n_patches * lm_dim, horizon, &mut rng),
            lm,
            instruction_ids,
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

    fn instruction_embeddings(&self) -> Tensor {
        // Constant instruction embeddings (text tokens are not trained).
        timekd_tensor::no_grad(|| {
            self.lm
                .model()
                .token_embedding_table()
                .index_select_rows(&Tensor::indices(&self.instruction_ids))
        })
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims(), &[self.input_len, self.num_vars]);
        debug_assert_eq!(self.head.out_features(), self.horizon);
        let lm_dim = self.lm.model().config().dim;
        let instr = self.instruction_embeddings(); // [L, lm_dim]
        let l = instr.dims()[0];
        let (xn, stats) = instance_normalize(x);
        let mut channels = Vec::with_capacity(self.num_vars);
        for v in 0..self.num_vars {
            let series = column(&xn, v);
            let patches = patchify(&series, self.config.patch_len, self.config.stride);
            let embedded = self.patch_embed.forward(&patches); // [P, lm_dim]
            let joint = Tensor::concat(&[instr.clone(), embedded], 0); // [L+P, lm_dim]
            let hidden = self.lm.model().encode_embeddings(&joint);
            // Only the time-series positions feed the head.
            let ts_hidden = hidden.slice(0, l, self.n_patches);
            let flat = ts_hidden.reshape([1, self.n_patches * lm_dim]);
            channels.push(self.head.forward(&flat));
        }
        let out = Tensor::concat(&channels, 0).transpose_last();
        instance_denormalize(&out, &stats)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut v = self.patch_embed.params();
        v.extend(self.head.params());
        v
    }
}

impl Forecaster for UniTime {
    fn name(&self) -> String {
        "UniTime".into()
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
    use timekd_lm::{pretrain_lm, LmConfig, LmSize, PretrainConfig};

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
        let m = UniTime::new(frozen_lm(), UniTimeConfig::default(), 24, 8, 3);
        assert_eq!(m.predict(&Tensor::zeros([24, 3])).dims(), &[8, 3]);
    }

    #[test]
    fn instruction_constant_and_nonempty() {
        let m = UniTime::new(frozen_lm(), UniTimeConfig::default(), 24, 8, 3);
        let e = m.instruction_embeddings();
        assert!(e.dims()[0] >= 8);
        assert!(!e.requires_grad());
    }

    #[test]
    fn instruction_changes_output() {
        // The same patches with vs without instruction differ: conditioning
        // is real (compare against an OFA-like pass of just patches).
        let lm = frozen_lm();
        let m = UniTime::new(lm.clone(), UniTimeConfig::default(), 24, 8, 1);
        let mut rng = seeded_rng(9);
        let x = Tensor::randn([24, 1], 1.0, &mut rng);
        let with_instr = m.predict(&x);
        // Strip the instruction by predicting through a model whose
        // instruction is only <bos> (approximating "no conditioning").
        let mut m2 = UniTime::new(lm, UniTimeConfig::default(), 24, 8, 1);
        m2.instruction_ids.truncate(1);
        let without = m2.predict(&x);
        assert_ne!(with_instr.to_vec(), without.to_vec());
    }

    #[test]
    fn learns_on_synthetic_data() {
        let ds = SplitDataset::new(DatasetKind::EttH1, 500, 5, 24, 8);
        let lm = frozen_lm();
        let mut m = UniTime::new(lm.clone(), UniTimeConfig::default(), 24, 8, ds.num_vars());
        let train = ds.windows(Split::Train, 24);
        let val = ds.windows(Split::Val, 24);
        let (before, _) = m.evaluate(&val);
        for _ in 0..2 {
            m.train_epoch(&train);
        }
        let (after, _) = m.evaluate(&val);
        assert!(after < before, "{before} -> {after}");
        assert!(
            lm.model().params().iter().all(|p| !p.has_grad()),
            "training left gradients on the shared frozen LM"
        );
    }
}
