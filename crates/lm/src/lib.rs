//! # timekd-lm
//!
//! The calibrated language model (CLM) of the TimeKD teacher:
//! - a closed-vocabulary [`PromptTokenizer`] that tags every token with its
//!   [`Modality`] (template text vs numeric content);
//! - [`calibrated_mask`]: the additive attention bias of paper Eq. 3–5 that
//!   penalises cross-modality attention by −Δ under a causal mask;
//! - [`CausalLm`]: a GPT-style decoder-only model with last-token
//!   extraction;
//! - [`pretrain_lm`]: in-process pretraining on a synthetic prompt corpus
//!   (the offline substitute for a pretrained GPT-2 checkpoint — see
//!   DESIGN.md);
//! - [`FrozenLm`]: frozen feature extraction with the embedding cache the
//!   paper uses to avoid re-running the CLM (§IV-B2).

mod calibration;
mod config;
mod frozen;
mod model;
mod pretrain;
mod tokenizer;

pub use calibration::calibrated_mask;
pub use config::{LmConfig, LmSize};
pub use frozen::FrozenLm;
pub use model::CausalLm;
pub use pretrain::{
    install_numeracy_prior, pretrain_lm, sample_corpus_example, sample_corpus_prompt,
    CorpusExample, PretrainConfig, PretrainReport, PRETRAIN_RECIPE,
};
pub use timekd_tensor::NEG_INF;
pub use tokenizer::{Modality, PromptPiece, PromptTokenizer, Token, BIN_MAX, BIN_RESOLUTION};
