//! # timekd
//!
//! The primary contribution of the paper *"Efficient Multivariate Time
//! Series Forecasting via Calibrated Language Models with Privileged
//! Knowledge Distillation"* (ICDE 2025), reproduced in Rust:
//!
//! - [`CrossModalityTeacher`]: a frozen calibrated language model over
//!   ground-truth prompts (privileged information, LUPI), refined by
//!   [`SubtractiveCrossAttention`] and encoded by a privileged Pre-LN
//!   Transformer that reconstructs the future series (Alg. 1);
//! - [`Student`]: RevIN → inverted embedding → time-series Transformer →
//!   projection, the only model that runs at inference time;
//! - [`pkd_losses`]: privileged knowledge distillation — correlation
//!   (attention-map) and feature (embedding) distillation (Alg. 2);
//! - [`TimeKd`]: the joint trainer optimising Eq. 30, with per-component
//!   [`AblationConfig`] switches reproducing every Fig. 6 variant;
//! - [`Forecaster`]: the uniform train/predict/evaluate interface shared
//!   with every baseline.
//!
//! ## Example
//!
//! ```no_run
//! use timekd::{Forecaster, TimeKd, TimeKdConfig};
//! use timekd_data::{DatasetKind, Split, SplitDataset};
//!
//! let ds = SplitDataset::new(DatasetKind::EttH1, 2000, 42, 96, 24);
//! let mut model = TimeKd::new(TimeKdConfig::default(), 96, 24, ds.num_vars());
//! let train = ds.windows(Split::Train, 8);
//! model.train_epoch(&train);
//! let (mse, mae) = model.evaluate(&ds.windows(Split::Test, 8));
//! println!("MSE {mse:.3} MAE {mae:.3}");
//! ```

mod config;
mod distill;
mod forecaster;
mod model_io;
mod norm_helpers;
pub mod plan;
mod sca;
mod student;
pub mod symbolic;
mod teacher;
mod trainer;

pub use config::{AblationConfig, TimeKdConfig};
pub use distill::{pkd_losses, student_objective, PkdLosses, StudentObjective};
pub use forecaster::Forecaster;
pub use model_io::{load_checkpoint, save_checkpoint};
pub use norm_helpers::layer_norm_const;
pub use plan::{
    bind_student_params, compile_student_objective_plan, plan_cache_stats, reset_plan_cache,
    student_forecast_plan, student_objective_spec, student_plan_spec, PlannedBatchTrainer,
    PlannedStudent, AUX_TEACHER_ATT, AUX_TEACHER_EMB,
};
pub use sca::SubtractiveCrossAttention;
pub use student::{Student, StudentOutput};
pub use symbolic::{
    record_pipeline, trace_pipeline, trace_student, PipelineRecording, StudentTrace,
    SymbolicPipeline, TEACHER_ATT_LABEL, TEACHER_EMB_LABEL,
};
pub use teacher::{render_prompts, CrossModalityTeacher, TeacherOutput};
pub use trainer::{student_plan_optimizer, trainer_adamw, EpochStats, TimeKd};
