//! TimeKD configuration and ablation switches.

use timekd_data::PromptConfig;
use timekd_lm::{LmConfig, LmSize};
use timekd_nn::LrSchedule;

/// Ablation switches matching the paper's Fig. 6 variants. All `true` is
/// full TimeKD; each `false` reproduces one `w/o_*` arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AblationConfig {
    /// `w/o_PI` when false: the teacher sees only historical prompts (the
    /// "traditional teacher" of Fig. 1).
    pub privileged_info: bool,
    /// `w/o_CA` when false: plain causal attention instead of the
    /// calibrated −Δ bias.
    pub calibrated_attention: bool,
    /// `w/o_CLM` when false: prompts bypass the language model entirely;
    /// value sequences are linearly embedded instead.
    pub use_clm: bool,
    /// `w/o_SCA` when false: direct embedding subtraction replaces
    /// subtractive cross attention.
    pub use_sca: bool,
    /// `w/o_CD` when false: no correlation (attention-map) distillation.
    pub correlation_distillation: bool,
    /// `w/o_FD` when false: no feature distillation.
    pub feature_distillation: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            privileged_info: true,
            calibrated_attention: true,
            use_clm: true,
            use_sca: true,
            correlation_distillation: true,
            feature_distillation: true,
        }
    }
}

impl AblationConfig {
    /// The full model.
    pub fn full() -> Self {
        Self::default()
    }

    /// `w/o_PI`.
    pub fn without_privileged_info() -> Self {
        Self {
            privileged_info: false,
            ..Self::default()
        }
    }

    /// `w/o_CA`.
    pub fn without_calibrated_attention() -> Self {
        Self {
            calibrated_attention: false,
            ..Self::default()
        }
    }

    /// `w/o_CLM`.
    pub fn without_clm() -> Self {
        Self {
            use_clm: false,
            ..Self::default()
        }
    }

    /// `w/o_SCA`.
    pub fn without_sca() -> Self {
        Self {
            use_sca: false,
            ..Self::default()
        }
    }

    /// `w/o_CD`.
    pub fn without_correlation_distillation() -> Self {
        Self {
            correlation_distillation: false,
            ..Self::default()
        }
    }

    /// `w/o_FD`.
    pub fn without_feature_distillation() -> Self {
        Self {
            feature_distillation: false,
            ..Self::default()
        }
    }

    /// The variant label used in Fig. 6.
    pub fn label(&self) -> &'static str {
        let full = Self::default();
        if *self == full {
            "TimeKD"
        } else if !self.privileged_info {
            "w/o_PI"
        } else if !self.calibrated_attention {
            "w/o_CA"
        } else if !self.use_clm {
            "w/o_CLM"
        } else if !self.use_sca {
            "w/o_SCA"
        } else if !self.correlation_distillation {
            "w/o_CD"
        } else {
            "w/o_FD"
        }
    }
}

/// Full TimeKD hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TimeKdConfig {
    /// Transformer hidden width `D` of both `PTEncoder` and `TSTEncoder`
    /// (the paper uses 64).
    pub dim: usize,
    /// Encoder depth (paper: 2).
    pub num_layers: usize,
    /// Attention heads.
    pub num_heads: usize,
    /// FFN expansion width.
    pub ffn_hidden: usize,
    /// Backbone tier of the calibrated language model.
    pub lm_size: LmSize,
    /// Language-model hyper-parameters (derived from `lm_size` by
    /// default).
    pub lm: LmConfig,
    /// Prompt rendering configuration.
    pub prompt: PromptConfig,
    /// λ_r: reconstruction loss weight (Eq. 30).
    pub lambda_recon: f32,
    /// λ_c: correlation distillation weight (Eq. 26).
    pub lambda_cd: f32,
    /// λ_e: feature distillation weight (Eq. 26).
    pub lambda_fd: f32,
    /// λ_p: PKD weight in the joint objective (Eq. 30).
    pub lambda_pkd: f32,
    /// λ_f: forecasting loss weight (Eq. 30).
    pub lambda_fcst: f32,
    /// Teacher-only reconstruction epochs run before the first student
    /// epoch (Algorithm 1 trains the teacher to convergence before
    /// distillation starts).
    pub teacher_warmup_epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Learning-rate schedule applied on top of `lr` (per optimizer step).
    pub lr_schedule: LrSchedule,
    /// Gradient-clipping norm.
    pub grad_clip: f32,
    /// Parameter init / shuffling seed.
    pub seed: u64,
    /// Ablation switches.
    pub ablation: AblationConfig,
}

impl Default for TimeKdConfig {
    fn default() -> Self {
        let lm_size = LmSize::Base;
        TimeKdConfig {
            dim: 32,
            num_layers: 2,
            num_heads: 4,
            ffn_hidden: 64,
            lm_size,
            lm: LmConfig::for_size(lm_size),
            prompt: PromptConfig::default(),
            lambda_recon: 1.0,
            lambda_cd: 1.0,
            lambda_fd: 1.0,
            lambda_pkd: 0.1,
            lambda_fcst: 1.0,
            teacher_warmup_epochs: 6,
            lr: 1e-3,
            lr_schedule: LrSchedule::Constant,
            grad_clip: 1.0,
            seed: 2025,
            ablation: AblationConfig::default(),
        }
    }
}

impl TimeKdConfig {
    /// Default config with an explicit LM tier (Table III ablation).
    pub fn with_lm_size(size: LmSize) -> Self {
        TimeKdConfig {
            lm_size: size,
            lm: LmConfig::for_size(size),
            ..Default::default()
        }
    }

    /// Default config with explicit ablation switches (Fig. 6).
    pub fn with_ablation(ablation: AblationConfig) -> Self {
        let mut cfg = TimeKdConfig {
            ablation,
            ..Default::default()
        };
        if !ablation.calibrated_attention {
            cfg.lm.calibration_delta = 0.0;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_model() {
        assert_eq!(AblationConfig::default().label(), "TimeKD");
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(AblationConfig::without_privileged_info().label(), "w/o_PI");
        assert_eq!(
            AblationConfig::without_calibrated_attention().label(),
            "w/o_CA"
        );
        assert_eq!(AblationConfig::without_clm().label(), "w/o_CLM");
        assert_eq!(AblationConfig::without_sca().label(), "w/o_SCA");
        assert_eq!(
            AblationConfig::without_correlation_distillation().label(),
            "w/o_CD"
        );
        assert_eq!(
            AblationConfig::without_feature_distillation().label(),
            "w/o_FD"
        );
    }

    #[test]
    fn dim_divisible_by_heads() {
        let c = TimeKdConfig::default();
        assert_eq!(c.dim % c.num_heads, 0);
    }

    #[test]
    fn with_lm_size_propagates() {
        let c = TimeKdConfig::with_lm_size(LmSize::Large);
        assert_eq!(c.lm.dim, LmConfig::for_size(LmSize::Large).dim);
    }

    #[test]
    fn without_ca_zeroes_delta() {
        let c = TimeKdConfig::with_ablation(AblationConfig::without_calibrated_attention());
        assert_eq!(c.lm.calibration_delta, 0.0);
    }
}
