//! # timekd-bench
//!
//! Experiment harness regenerating every table and figure of the TimeKD
//! paper's evaluation (§V). Each bench target under `benches/` is a
//! standalone binary (`harness = false`) that builds the synthetic
//! datasets, trains the relevant models, prints the paper's table, and
//! saves a CSV under `target/experiments/`.
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_longterm`   | Table I — long-term forecasting |
//! | `table2_shortterm`  | Table II — PEMS short-term forecasting |
//! | `table3_llm_ablation` | Table III — LM backbone tiers |
//! | `table4_efficiency` | Table IV — params/time/memory/speed |
//! | `table5_fewshot`    | Table V — 10% few-shot |
//! | `table6_zeroshot`   | Table VI — cross-dataset zero-shot |
//! | `fig6_ablation`     | Fig. 6 — component ablations |
//! | `fig7_scalability`  | Fig. 7 — training-fraction sweep |
//! | `fig8_attention_maps` | Fig. 8 — teacher vs student attention |
//! | `fig9_feature_maps` | Fig. 9 — self-relation feature matrices |
//! | `fig10_gt_vs_pred`  | Fig. 10 — forecast vs ground-truth curves |
//! | `kernels` (dependency-free, `harness = false`) | microbenchmarks of the hot kernels |
//!
//! `QUICK=0` switches every target to the larger profile.

mod alloc;
mod profile;
mod runner;
mod tables;
pub mod trace;

pub use alloc::PeakAlloc;
pub use profile::Profile;
pub use runner::{
    build_model, build_model_seeded, prompt_config, run_experiment, run_experiment_seeds,
    run_model, run_windows, run_zero_shot, timekd_config, ModelKind, RunResult, RunWindows,
    SharedLm,
};
pub use tables::{argmin, experiments_dir, f3, render_heatmap, secs, ResultTable};
pub use trace::{trace_report, validate_trace_coverage, validate_trace_report, TRACE_SCHEMA};
