//! Language-model configurations.
//!
//! The paper ablates three open-source backbones (Table III): BERT (110M),
//! GPT-2 (117M) and LLaMA-3.2. Pretrained checkpoints are unavailable in
//! this environment, so each backbone is substituted by a causal LM of the
//! same *relative* capacity tier, pretrained in-process on the prompt
//! grammar (see `pretrain`). GPT-2's tier is the default backbone, matching
//! the paper's final choice.

/// Capacity tier mirroring the paper's backbone ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LmSize {
    /// BERT-tier stand-in: smallest.
    Small,
    /// GPT-2-tier stand-in: the TimeKD default.
    Base,
    /// LLaMA-3.2-tier stand-in: largest.
    Large,
}

impl LmSize {
    /// Human-readable backbone name used in experiment tables.
    pub fn backbone_name(self) -> &'static str {
        match self {
            LmSize::Small => "BERT (small-tier substitute)",
            LmSize::Base => "GPT-2 (base-tier substitute)",
            LmSize::Large => "LLaMA-3.2 (large-tier substitute)",
        }
    }
}

/// Hyper-parameters of the causal language model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LmConfig {
    /// Hidden width.
    pub dim: usize,
    /// Number of decoder layers.
    pub num_layers: usize,
    /// Attention heads.
    pub num_heads: usize,
    /// FFN expansion width.
    pub ffn_hidden: usize,
    /// Maximum prompt length in tokens.
    pub max_seq_len: usize,
    /// Calibration penalty Δ of Eq. 5 (0 disables calibration).
    pub calibration_delta: f32,
}

impl LmConfig {
    /// Configuration for a capacity tier.
    pub fn for_size(size: LmSize) -> LmConfig {
        match size {
            LmSize::Small => LmConfig {
                dim: 24,
                num_layers: 2,
                num_heads: 2,
                ffn_hidden: 48,
                max_seq_len: 1024,
                calibration_delta: 2.0,
            },
            LmSize::Base => LmConfig {
                dim: 32,
                num_layers: 3,
                num_heads: 4,
                ffn_hidden: 64,
                max_seq_len: 1024,
                calibration_delta: 2.0,
            },
            LmSize::Large => LmConfig {
                dim: 48,
                num_layers: 4,
                num_heads: 4,
                ffn_hidden: 96,
                max_seq_len: 1024,
                calibration_delta: 2.0,
            },
        }
    }

    /// The default (GPT-2-tier) configuration used by TimeKD.
    pub fn base() -> LmConfig {
        Self::for_size(LmSize::Base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_strictly_ordered() {
        let s = LmConfig::for_size(LmSize::Small);
        let b = LmConfig::for_size(LmSize::Base);
        let l = LmConfig::for_size(LmSize::Large);
        assert!(s.dim < b.dim && b.dim < l.dim);
        assert!(s.num_layers <= b.num_layers && b.num_layers <= l.num_layers);
    }

    #[test]
    fn heads_divide_dim() {
        for size in [LmSize::Small, LmSize::Base, LmSize::Large] {
            let c = LmConfig::for_size(size);
            assert_eq!(c.dim % c.num_heads, 0, "{size:?}");
        }
    }

    #[test]
    fn default_is_base() {
        assert_eq!(LmConfig::base().dim, LmConfig::for_size(LmSize::Base).dim);
    }
}
