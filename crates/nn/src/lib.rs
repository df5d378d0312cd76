//! # timekd-nn
//!
//! Neural-network building blocks on top of [`timekd_tensor`]: linear and
//! embedding layers, layer/reversible-instance normalisation, multi-head
//! attention with differentiable attention-map export, Pre-LN Transformer
//! encoders, AdamW with LR schedules and the Smooth-L1 / MSE / MAE
//! losses the TimeKD paper uses.
//!
//! ## Example
//!
//! ```
//! use timekd_nn::{Activation, Module, TransformerEncoder};
//! use timekd_tensor::{seeded_rng, Tensor};
//!
//! let mut rng = seeded_rng(0);
//! let enc = TransformerEncoder::new(16, 2, 4, 64, Activation::Relu, &mut rng);
//! let x = Tensor::randn([7, 16], 1.0, &mut rng);
//! let out = enc.forward(&x, None);
//! assert_eq!(out.output.dims(), &[7, 16]);
//! assert_eq!(out.last_attention.dims(), &[7, 7]);
//! ```

mod attention;
mod encoder;
mod linear;
mod losses;
mod module;
mod norm;
mod optim;

pub use attention::{
    causal_mask, causal_mask_rows, AttentionOutput, KeyValues, MultiHeadAttention,
};
pub use encoder::{
    Activation, EncoderLayer, EncoderOutput, FeedForward, RowsOutput, TransformerEncoder,
};
pub use linear::{Embedding, Linear};
pub use losses::{mae_loss, mse_loss, smooth_l1_loss};
pub use module::{Module, ParamList, ParamVisitor};
pub use norm::{LayerNorm, RevIn, RevInStats};
pub use optim::{clip_grad_norm, AdamW, AdamWConfig, LrSchedule};
