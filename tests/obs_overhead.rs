//! Overhead guard for the observability layer.
//!
//! Three independent guarantees, each of which ISSUE'd the obs design:
//!
//! 1. **<1% wall time when disabled.** The disabled path of every hook is
//!    a single relaxed atomic load. Rather than diffing two noisy epoch
//!    timings (flaky under CI jitter), the test measures the *per-event*
//!    cost of the disabled hooks over millions of calls, multiplies by
//!    the number of hook events one epoch actually fires (taken from an
//!    enabled run's own snapshot), and requires that derived total to be
//!    under 1% of the measured epoch wall time. The margin in practice is
//!    several orders of magnitude, so the 1% threshold is generous and
//!    the test is non-flaky by construction.
//! 2. **Zero extra graph nodes.** Spans and counters must never touch the
//!    autograd graph: `GraphAudit` stats of the same loss are identical
//!    with tracing on and off.
//! 3. **Bitwise-identical outputs.** Tracing must be purely passive:
//!    `predict` with tracing on equals `predict` with tracing off bit for
//!    bit.
//!
//! This file is its own test binary (own process) because the obs gate
//! and counters are process-global. Its tests run in parallel under the
//! default harness, so each one holds [`OBS_LOCK`] while it toggles the
//! gate.

use std::rc::Rc;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use timekd::{Forecaster, TimeKd, TimeKdConfig};
use timekd_data::{DatasetKind, ForecastWindow, Split, SplitDataset};
use timekd_lm::{pretrain_lm, FrozenLm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};
use timekd_nn::smooth_l1_loss;
use timekd_obs::SpanNode;
use timekd_tensor::GraphAudit;

/// Serializes the tests: both set, reset and read the process-global obs
/// gate, so one test switching tracing off mid-run would drop the other's
/// recorded events.
static OBS_LOCK: Mutex<()> = Mutex::new(());

#[allow(clippy::field_reassign_with_default)]
fn tiny_config() -> TimeKdConfig {
    let mut cfg = TimeKdConfig::default();
    cfg.dim = 16;
    cfg.ffn_hidden = 32;
    cfg.num_heads = 2;
    cfg.lm = LmConfig::for_size(LmSize::Small);
    cfg.prompt.max_history = 4;
    cfg.prompt.max_future = 4;
    cfg
}

fn tiny_model() -> (TimeKd, SplitDataset) {
    let ds = SplitDataset::new(DatasetKind::EttH1, 600, 7, 24, 8);
    let tokenizer = Rc::new(PromptTokenizer::new());
    let cfg = tiny_config();
    let (lm, _) = pretrain_lm(
        &tokenizer,
        cfg.lm,
        PretrainConfig {
            steps: 3,
            ..Default::default()
        },
    );
    let model = TimeKd::with_frozen_lm(
        Rc::new(FrozenLm::new(lm)),
        tokenizer,
        cfg,
        24,
        8,
        ds.num_vars(),
    );
    (model, ds)
}

fn run_epoch(model: &mut TimeKd, windows: &[ForecastWindow]) {
    let _ = model.train_teacher_epoch(windows);
    let _ = model.train_student_epoch(windows);
}

fn span_events(nodes: &[SpanNode]) -> u64 {
    nodes
        .iter()
        .map(|n| n.count + span_events(&n.children))
        .sum()
}

#[test]
fn disabled_tracing_costs_under_one_percent_of_epoch_time() {
    // A panicking test poisons the lock; each test resets the gate itself,
    // so the poison carries no state worth refusing.
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    timekd_obs::set_enabled(false);
    timekd_obs::reset();

    // Per-event cost of the disabled hooks, amortized over enough calls
    // that timer resolution is irrelevant. `span` returns a #[must_use]
    // guard whose Drop also takes the disabled branch, so one iteration
    // covers both edges of a real span.
    const PROBES: u64 = 2_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBES {
        let _g = timekd_obs::span("overhead.probe");
        timekd_obs::count_op("overhead.probe_op");
        timekd_obs::LM_CACHE_HITS.add(1);
    }
    let per_event_ns = t0.elapsed().as_nanos() as f64 / (PROBES * 3) as f64;

    // Time one real (tracing-off) teacher+student epoch over six
    // windows (both epochs replay compiled steps, which fire a few hooks
    // per window, so three windows fire fewer than the floor below)...
    let (mut model, ds) = tiny_model();
    let train: Vec<_> = ds.windows(Split::Train, 16);
    let windows = &train[..6];
    let t1 = Instant::now();
    run_epoch(&mut model, windows);
    let epoch_ns = t1.elapsed().as_nanos() as f64;

    // ...then count how many hook events that same workload fires, from
    // an enabled run's own snapshot: spans fire twice (enter + exit), ops
    // and counter increments once each. The workload is a fresh model's
    // first epoch, as timed: a second epoch of the same model reads the
    // CLM rows it stored and fires fewer events.
    let (mut model, _) = tiny_model();
    timekd_obs::set_enabled(true);
    timekd_obs::reset();
    run_epoch(&mut model, windows);
    let snap = timekd_obs::snapshot();
    timekd_obs::set_enabled(false);
    timekd_obs::reset();

    let counter_events: u64 = snap.counters.iter().map(|c| c.value).sum();
    let events = 2 * span_events(&snap.spans) + snap.total_ops() + counter_events;
    assert!(
        events > 1_000,
        "epoch fired suspiciously few hook events ({events})"
    );

    let disabled_cost_ns = per_event_ns * events as f64;
    let ratio = disabled_cost_ns / epoch_ns;
    assert!(
        ratio < 0.01,
        "disabled-path hooks cost {disabled_cost_ns:.0}ns over {events} events \
         ({per_event_ns:.2}ns/event) = {:.4}% of the {:.0}ms epoch — over the 1% budget",
        ratio * 100.0,
        epoch_ns / 1e6
    );
}

#[test]
fn tracing_adds_zero_graph_nodes_and_leaves_outputs_bitwise_identical() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (model, ds) = tiny_model();
    let windows: Vec<_> = ds.windows(Split::Train, 16);
    let w = &windows[0];
    let probe = ds.windows(Split::Test, 16)[0].x.clone();

    let audit_and_predict = || {
        let out = model.student().forward(&w.x);
        let loss = smooth_l1_loss(&out.forecast, &w.y);
        let stats = GraphAudit::run(&loss).stats;
        (stats, model.predict(&probe).to_vec())
    };

    timekd_obs::set_enabled(false);
    timekd_obs::reset();
    let (stats_off, pred_off) = audit_and_predict();

    timekd_obs::set_enabled(true);
    timekd_obs::reset();
    let (stats_on, pred_on) = audit_and_predict();
    timekd_obs::set_enabled(false);
    timekd_obs::reset();

    assert_eq!(
        (
            stats_off.nodes,
            stats_off.edges,
            stats_off.leaves,
            stats_off.params
        ),
        (
            stats_on.nodes,
            stats_on.edges,
            stats_on.leaves,
            stats_on.params
        ),
        "tracing changed the autograd graph"
    );
    assert_eq!(
        stats_off.max_depth, stats_on.max_depth,
        "tracing changed graph depth"
    );
    assert!(
        pred_off
            .iter()
            .zip(&pred_on)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "tracing changed predict output bits"
    );
}
