//! Golden-trace regression suite.
//!
//! Replays one deterministic teacher+student training epoch plus one
//! student predict with `timekd-obs` recording on, reduces the trace to
//! its *structure* (the span tree with call counts, and per-op dispatch
//! totals — timings excluded), and diffs it exactly against the committed
//! fixture `tests/fixtures/golden_trace.json`.
//!
//! Any silent change to the pipeline's op sequence — an extra forward, a
//! dropped distillation term, a new op in a layer — changes the counts
//! and fails this test. Deliberate pipeline changes must regenerate the
//! fixture:
//!
//! ```text
//! TIMEKD_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! This file is its own test binary (and so its own process): the obs
//! gate is global, and nothing else may record while the golden run is
//! traced. Its tests run in parallel under the default harness, so every
//! golden run holds [`GOLDEN_LOCK`]. The run itself is forced onto the
//! serial path (`with_threads(1)`) so pool scheduling cannot shift counter
//! values; global pool/cache counters are still excluded from the fixture
//! because the span/op structure is what the suite guards.

use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

use timekd::{Forecaster, TimeKd, TimeKdConfig};
use timekd_data::{DatasetKind, Split, SplitDataset};
use timekd_lm::{pretrain_lm, FrozenLm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};
use timekd_obs::json::Json;
use timekd_obs::SpanNode;
use timekd_tensor::parallel::with_threads;

const FIXTURE_SCHEMA: &str = "timekd-golden-trace/v1";

/// Serializes golden runs: they share the process-global obs gate
/// (`set_enabled`, `reset`, `snapshot`), so two concurrent runs would mix
/// their recordings.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

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

fn span_fixture(node: &SpanNode) -> Json {
    Json::obj(vec![
        ("name", Json::str(node.name.clone())),
        ("count", Json::num(node.count as f64)),
        (
            "children",
            Json::Arr(node.children.iter().map(span_fixture).collect()),
        ),
    ])
}

/// Runs the deterministic golden workload and reduces the recorded trace
/// to its structural fixture form.
fn golden_run() -> Json {
    // A panicking run poisons the lock; the next run resets the gate
    // itself, so the poison carries no state worth refusing.
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut model, ds) = tiny_model();
    let train: Vec<_> = ds.windows(Split::Train, 16);
    let windows = &train[..2];
    let probe = ds.windows(Split::Test, 16)[0].x.clone();

    // Everything up to here (LM pretraining, model init) is construction
    // noise; the fixture captures exactly one teacher epoch, one student
    // epoch and one predict.
    timekd_obs::set_enabled(true);
    timekd_obs::reset();
    with_threads(1, || {
        let _ = model.train_teacher_epoch(windows);
        let _ = model.train_student_epoch(windows);
        let _ = model.predict(&probe);
    });
    let snap = timekd_obs::snapshot();
    timekd_obs::set_enabled(false);
    timekd_obs::reset();

    Json::obj(vec![
        ("schema", Json::str(FIXTURE_SCHEMA)),
        (
            "spans",
            Json::Arr(snap.spans.iter().map(span_fixture).collect()),
        ),
        (
            "ops",
            Json::Arr(
                snap.ops
                    .iter()
                    .map(|o| {
                        Json::obj(vec![
                            ("name", Json::str(o.name.clone())),
                            ("count", Json::num(o.count as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_trace.json")
}

#[test]
fn golden_trace_matches_fixture() {
    let got = golden_run();
    let path = fixture_path();

    if std::env::var("TIMEKD_UPDATE_GOLDEN").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, got.render()).expect("write fixture");
        println!("golden trace fixture regenerated at {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with TIMEKD_UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    let want = Json::parse(&text).expect("fixture parses");
    assert_eq!(
        want.get("schema").and_then(Json::as_str),
        Some(FIXTURE_SCHEMA),
        "fixture has wrong schema"
    );
    assert!(
        got == want,
        "recorded trace structure diverged from the golden fixture.\n\
         If the pipeline change is intentional, regenerate with:\n\
         TIMEKD_UPDATE_GOLDEN=1 cargo test --test golden_trace\n\
         \n--- expected (fixture) ---\n{}\n--- got (this run) ---\n{}",
        want.render(),
        got.render()
    );
}

fn count_spans(nodes: &[SpanNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| u64::from(n.name == name) * n.count + count_spans(&n.children, name))
        .sum()
}

#[test]
fn warm_up_epoch_compiles_one_clm_plan_per_key() {
    // Every prompt of one prompt configuration has the same length, so
    // every miss family of a warm-up epoch has one key: its first miss
    // compiles the CLM family forward and every later miss replays it. A
    // second epoch reads each window's CLM rows from the model's store: it
    // looks up no prompt and runs no forward at all.
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut model, ds) = tiny_model();
    let train: Vec<_> = ds.windows(Split::Train, 16);
    let windows = &train[..2];
    let families = (windows.len() * ds.num_vars()) as u64;
    let epoch = |model: &mut TimeKd| {
        timekd_obs::set_enabled(true);
        timekd_obs::reset();
        with_threads(1, || {
            let _ = model.train_teacher_epoch(windows);
        });
        let snap = timekd_obs::snapshot();
        timekd_obs::set_enabled(false);
        timekd_obs::reset();
        (
            count_spans(&snap.spans, "lm.forward"),
            count_spans(&snap.spans, "lm.forward_compile"),
        )
    };
    assert_eq!(
        epoch(&mut model),
        (families, 1),
        "first epoch: forwards, compiles"
    );
    assert_eq!(
        epoch(&mut model),
        (0, 0),
        "second epoch: forwards, compiles"
    );
    let frozen = model.teacher().frozen_lm();
    assert_eq!(frozen.compiled_plans(), 1);
    assert_eq!(frozen.cache_stats(), (0, 2 * families));
}

#[test]
fn golden_run_covers_pipeline_and_is_repeatable() {
    // The structural trace is a pure function of the (seeded) pipeline:
    // two fresh model builds must produce identical fixtures, and the
    // trace must satisfy the bench-side coverage validator (modulo the
    // counters this fixture deliberately omits, and CLM pretraining, which
    // runs before the recorded region; the traced quickstart in
    // `scripts/trace.sh` covers `lm.pretrain`).
    let a = golden_run();
    let b = golden_run();
    assert!(
        a == b,
        "golden run is nondeterministic:\n--- first ---\n{}\n--- second ---\n{}",
        a.render(),
        b.render()
    );
    for name in timekd_bench::trace::REQUIRED_PIPELINE_SPANS
        .into_iter()
        .filter(|&name| name != "lm.pretrain")
    {
        fn present(spans: &[Json], name: &str) -> bool {
            spans.iter().any(|s| {
                s.get("name").and_then(Json::as_str) == Some(name)
                    || s.get("children")
                        .and_then(Json::as_arr)
                        .is_some_and(|c| present(c, name))
            })
        }
        assert!(
            present(a.get("spans").and_then(Json::as_arr).unwrap_or(&[]), name),
            "golden trace is missing required pipeline span `{name}`"
        );
    }
}
