//! Pins how much CLM work a pretraining step does, by its trace.
//!
//! This file is its own test binary (and so its own process): the obs gate
//! is global, so every traced run holds [`OBS_LOCK`] and nothing else in
//! the process records while it runs.

use std::sync::{Mutex, PoisonError};

use timekd_lm::{pretrain_lm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};
use timekd_obs::SpanNode;

/// Serializes traced runs on the process-global obs gate.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Encoder forwards outside the steps: 8 held-out prompts, evaluated
/// before and after training.
const EVAL_FORWARDS: u64 = 8 * 2;

fn count_spans(nodes: &[SpanNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| u64::from(n.name == name) * n.count + count_spans(&n.children, name))
        .sum()
}

/// `nn.encoder` spans recorded under `lm.pretrain` by a traced
/// `pretrain_lm` run of `steps` steps.
fn pretrain_encoder_spans(steps: usize) -> u64 {
    let _g = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    timekd_obs::set_enabled(true);
    timekd_obs::reset();
    let tok = PromptTokenizer::new();
    let _ = pretrain_lm(
        &tok,
        LmConfig::for_size(LmSize::Small),
        PretrainConfig {
            steps,
            series_len: 6,
            ..Default::default()
        },
    );
    let snap = timekd_obs::snapshot();
    timekd_obs::set_enabled(false);
    timekd_obs::reset();
    let pretrain = snap.find_span("lm.pretrain").expect("lm.pretrain traced");
    assert_eq!(pretrain.count, 1);
    count_spans(&pretrain.children, "nn.encoder")
}

#[test]
fn pretraining_runs_one_encoder_forward_per_step() {
    for steps in [0, 3, 7] {
        assert_eq!(
            pretrain_encoder_spans(steps),
            steps as u64 + EVAL_FORWARDS,
            "{steps} steps: one forward per step plus one per held-out evaluation"
        );
    }
}
