//! Pins how much CLM work a pretraining run does, by its trace.
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

/// Span counts under `lm.pretrain` of a traced `pretrain_lm` run of
/// `steps` steps: dynamic encoder forwards, plan compilations, planned
/// step replays and dynamic backward passes.
struct PretrainTrace {
    encoder_forwards: u64,
    compiles: u64,
    step_replays: u64,
    backwards: u64,
}

fn pretrain_trace(steps: usize) -> PretrainTrace {
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
    let under = |name| count_spans(&pretrain.children, name);
    PretrainTrace {
        encoder_forwards: under("nn.encoder"),
        compiles: under("lm.pretrain_compile"),
        step_replays: under("lm.pretrain_step"),
        backwards: under("tensor.backward"),
    }
}

#[test]
fn pretraining_runs_one_encoder_forward_per_step() {
    for steps in [0, 3, 7] {
        let trace = pretrain_trace(steps);
        assert_eq!(
            trace.step_replays, steps as u64,
            "{steps} steps: one planned step replay per step"
        );
        assert_eq!(
            trace.compiles,
            u64::from(steps > 0),
            "{steps} steps: the step is recorded and compiled once (the \
             recording's forward is muted), and not at all without steps"
        );
        assert_eq!(
            trace.encoder_forwards, EVAL_FORWARDS,
            "{steps} steps: the only dynamic forwards are the held-out evaluations"
        );
        assert_eq!(
            trace.backwards, 0,
            "{steps} steps: no dynamic backward under lm.pretrain"
        );
    }
}
