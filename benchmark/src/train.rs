//! `train_etth1`: the quickstart's full training geometry, timed one phase
//! call at a time.
//!
//! Inputs: synthetic ETTh1 (7 variables) of 1,200 steps generated from the
//! workload seed, H = 96, M = 24, train windows at stride 8 (91 windows),
//! test windows at stride 1 (121 windows), default `TimeKdConfig` (Base
//! CLM, 6 teacher warm-up epochs). One repetition is `TimeKd::new` (set-up,
//! which pretrains the CLM), the warm-up epochs, the student epochs, one
//! `evaluate` pass, and per-window forecasts of the trained model.

use std::time::Instant;

use timekd::{
    render_prompts, Forecaster, PlannedBatchTrainer, PlannedStudent, TimeKd, TimeKdConfig,
};
use timekd_data::{DatasetKind, ForecastWindow, MetricAccumulator, Split, SplitDataset};
use timekd_lm::{pretrain_lm, PretrainConfig, PromptTokenizer};
use timekd_nn::AdamWConfig;
use timekd_obs::{Snapshot, SpanNode};
use timekd_tensor::{no_grad, seeded_rng, PlanOptimizer, Tensor};

use crate::metrics::{attribution, Report};
use crate::stats::{median, per_call_us, percentile, secs, Summary};
use crate::sys::cpu_s;
use crate::Args;

const STEPS: usize = 1200;
const INPUT_LEN: usize = 96;
const HORIZON: usize = 24;
const TRAIN_STRIDE: usize = 8;
const STUDENT_EPOCHS: usize = 5;
/// Repetitions of the whole pipeline per untraced run (at least).
const MIN_REPS: usize = 3;

/// The workload's inputs and model configuration.
struct Inputs {
    train: Vec<ForecastWindow>,
    test: Vec<ForecastWindow>,
    config: TimeKdConfig,
    num_vars: usize,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let ds = SplitDataset::new(DatasetKind::EttH1, STEPS, seed, INPUT_LEN, HORIZON);
        let mut config = TimeKdConfig::default();
        config.prompt.freq_minutes = ds.kind().freq_minutes();
        Inputs {
            train: ds.windows(Split::Train, TRAIN_STRIDE),
            test: ds.windows(Split::Test, 1),
            config,
            num_vars: ds.num_vars(),
        }
    }
}

/// One repetition's measurements.
struct Rep {
    setup_s: f64,
    teacher_epoch_s: Vec<f64>,
    student_epoch_ms: Vec<f64>,
    eval_ms: f64,
    test_mse: f32,
    forecast_ms: Vec<f64>,
    forecast_mse: f32,
}

impl Rep {
    fn warmup_s(&self) -> f64 {
        self.teacher_epoch_s.iter().sum()
    }

    fn work_s(&self) -> f64 {
        self.warmup_s() + self.student_epoch_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs one repetition, returning its numbers and the trained model.
///
/// Phases are timed in process CPU time (`sys::cpu_s`): training runs on
/// one thread almost throughout (user time within 1% of wall time on a
/// quiet host), so CPU time tracks wall time, and unlike wall time it does
/// not grow while the hypervisor steals the CPU.
fn run_rep(inp: &Inputs) -> (Rep, TimeKd) {
    // One timed forecast pass over the test windows; its MSE accumulator.
    let forecast_pass = |model: &TimeKd, times: &mut Vec<f64>| {
        let mut acc = MetricAccumulator::new();
        for w in &inp.test {
            let t = cpu_s();
            let pred = model.predict(&w.x);
            times.push((cpu_s() - t) * 1e3);
            acc.update(&pred, &w.y);
        }
        acc
    };
    let mut forecast_ms = Vec::new();
    let t = cpu_s();
    let mut model = TimeKd::new(inp.config, INPUT_LEN, HORIZON, inp.num_vars);
    let setup_s = cpu_s() - t;
    let mut teacher_epoch_s = Vec::with_capacity(inp.config.teacher_warmup_epochs);
    for _ in 0..inp.config.teacher_warmup_epochs {
        let t = cpu_s();
        model.train_teacher_epoch(&inp.train);
        teacher_epoch_s.push(cpu_s() - t);
        forecast_pass(&model, &mut forecast_ms);
    }
    let mut student_epoch_ms = Vec::with_capacity(STUDENT_EPOCHS);
    for _ in 0..STUDENT_EPOCHS {
        let t = cpu_s();
        model.train_student_epoch(&inp.train);
        student_epoch_ms.push((cpu_s() - t) * 1e3);
        forecast_pass(&model, &mut forecast_ms);
    }
    let t = cpu_s();
    let (test_mse, _) = model.evaluate(&inp.test);
    let eval_ms = (cpu_s() - t) * 1e3;
    let acc = forecast_pass(&model, &mut forecast_ms);
    let rep = Rep {
        setup_s,
        teacher_epoch_s,
        student_epoch_ms,
        eval_ms,
        test_mse,
        forecast_ms,
        forecast_mse: acc.mse(),
    };
    (rep, model)
}

/// MSE of the naive forecast that repeats each window's last observation.
fn naive_mse(windows: &[ForecastWindow]) -> f32 {
    let mut acc = MetricAccumulator::new();
    for w in windows {
        let (h, n) = (w.x.dims()[0], w.x.dims()[1]);
        let last = w.x.slice(0, h - 1, 1).broadcast_to([HORIZON, n]);
        acc.update(&last, &w.y);
    }
    acc.mse()
}

/// Output checks shared by every repetition: a finite test MSE below the
/// naive forecast's, the per-window forecasts reproducing `evaluate`
/// bitwise, and every repetition reaching the same bits (training is
/// deterministic).
fn check_rep(report: &mut Report, rep: &Rep, naive: f32, first_mse: f32) {
    report.check(
        format!(
            "test MSE {} is finite and below the naive last-value MSE {naive}",
            rep.test_mse
        ),
        rep.test_mse.is_finite() && rep.test_mse < naive,
    );
    report.check(
        format!(
            "per-window forecasts reproduce evaluate(): MSE {} vs {}",
            rep.forecast_mse, rep.test_mse
        ),
        rep.forecast_mse.to_bits() == rep.test_mse.to_bits(),
    );
    report.check(
        format!(
            "repetitions agree bitwise: MSE {} vs {first_mse}",
            rep.test_mse
        ),
        rep.test_mse.to_bits() == first_mse.to_bits(),
    );
}

/// Runs the workload: untraced repetitions for end-to-end metrics, or an
/// untraced plus a traced repetition and the per-layer probes.
pub fn run(args: &Args) -> Report {
    let inp = Inputs::new(args.seed);
    let naive = naive_mse(&inp.test);
    let mut report = Report::default();
    report.note(format!(
        "train_etth1: {} train windows (stride {TRAIN_STRIDE}), {} test windows, {} vars, {} warm-up + {STUDENT_EPOCHS} student epochs",
        inp.train.len(),
        inp.test.len(),
        inp.num_vars,
        inp.config.teacher_warmup_epochs
    ));
    if args.trace {
        run_traced(&inp, naive, report)
    } else {
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || secs(started) < args.seconds {
            // Keep only the numbers; each model holds a full CLM cache.
            let (rep, _) = run_rep(&inp);
            let first = reps.first().map_or(rep.test_mse, |r: &Rep| r.test_mse);
            check_rep(&mut report, &rep, naive, first);
            report.note(format!(
                "rep {}: setup {:.3} s, warm-up {:.3} s, student epochs {:?} ms, eval {:.2} ms, test MSE {}",
                reps.len() + 1,
                rep.setup_s,
                rep.warmup_s(),
                rep.student_epoch_ms.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>(),
                rep.eval_ms,
                rep.test_mse
            ));
            reps.push(rep);
        }
        report.ops(
            reps.len() * (2 + inp.config.teacher_warmup_epochs + STUDENT_EPOCHS),
            0,
        );
        let forecasts: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.forecast_ms.iter().copied())
            .collect();
        report.ops(forecasts.len(), 0);
        report.note(format!(
            "forecast (in-process predict) {}",
            Summary::of(&forecasts).describe("ms")
        ));
        let setup = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
        let work = median(&reps.iter().map(Rep::work_s).collect::<Vec<_>>());
        let epochs: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.student_epoch_ms.iter().copied())
            .collect();
        report.note(format!(
            "detail: train_s {work:.4} s, teacher_warmup_s {:.4} s, student_epoch_ms {:.3} ms, eval_ms {:.3} ms, test_mse {}, naive_mse {naive}",
            median(&reps.iter().map(Rep::warmup_s).collect::<Vec<_>>()),
            median(&epochs),
            median(&reps.iter().map(|r| r.eval_ms).collect::<Vec<_>>()),
            reps[0].test_mse
        ));
        report.set("setup_s", setup);
        report.set("work_s", work);
        report.set("peak_rss_mb", crate::sys::peak_rss_mb());
        report
    }
}

fn span_total_ns(snap: &Snapshot, name: &str) -> u64 {
    fn walk(nodes: &[SpanNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| {
                if n.name == name {
                    n.total_ns
                } else {
                    walk(&n.children, name)
                }
            })
            .sum()
    }
    walk(&snap.spans, name)
}

fn random_tensor(rng: &mut timekd_tensor::SeededRng, dims: [usize; 3]) -> Tensor {
    let n = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), dims)
}

/// `Tensor::fused_attention` at `heads x t x dh`, median of 200 calls (us).
pub fn fused_attention_us(heads: usize, t: usize, dh: usize, causal: bool) -> f64 {
    let mut rng = seeded_rng(7);
    let q = random_tensor(&mut rng, [heads, t, dh]);
    let k = random_tensor(&mut rng, [heads, t, dh]);
    let v = random_tensor(&mut rng, [heads, t, dh]);
    let mask = causal.then(|| timekd_nn::causal_mask(t));
    let calls: Vec<()> = vec![(); 200];
    no_grad(|| {
        per_call_us(&calls, |_| {
            std::hint::black_box(Tensor::fused_attention(&q, &k, &v, mask.as_ref()));
        })
    })
}

fn run_traced(inp: &Inputs, naive: f32, mut report: Report) -> Report {
    // Untraced pass: the baseline for the tracing overhead, and the
    // workload-specific end-to-end detail.
    let (base, model) = run_rep(inp);
    check_rep(&mut report, &base, naive, base.test_mse);
    let base_work = base.work_s();
    report.set("core.teacher_warmup_s", base.warmup_s());
    let epoch_ms = median(&base.student_epoch_ms);
    report.set("core.student_epoch_ms", epoch_ms);
    report.set("core.eval_ms", base.eval_ms);
    report.set("core.test_mse", base.test_mse as f64);
    let forecast_p50 = median(&base.forecast_ms);
    report.set("forecast.p50_ms", forecast_p50);
    let mut sorted = base.forecast_ms.clone();
    sorted.sort_by(f64::total_cmp);
    report.set("forecast.p90_ms", percentile(&sorted, 0.9));
    report.set("forecast.p99_ms", percentile(&sorted, 0.99));

    // Traced pass over the same pipeline.
    timekd_obs::reset();
    timekd_obs::set_enabled(true);
    let (traced, traced_model) = run_rep(inp);
    timekd_obs::set_enabled(false);
    let snap = timekd_obs::snapshot();
    check_rep(&mut report, &traced, naive, base.test_mse);
    report.ops(
        2 * (2 + inp.config.teacher_warmup_epochs + STUDENT_EPOCHS),
        0,
    );
    let overhead = traced.work_s() / base_work - 1.0;
    report.set("obs.trace_overhead_frac", overhead);
    report.set(
        "lm.forward_ms",
        span_total_ns(&snap, "lm.forward") as f64 / 1e6,
    );
    let (hits, misses) = traced_model.teacher().frozen_lm().cache_stats();
    report.set("lm.cache_misses", misses as f64);
    report.set(
        "lm.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.note(format!(
        "trace table of the traced pass:\n{}",
        snap.render_table()
    ));
    drop(traced_model);

    // Probes on the untraced pass's trained model (its CLM cache is warm).
    let config = *model.config();
    let lm_pretrain_s = {
        let tokenizer = PromptTokenizer::new();
        let t = Instant::now();
        let _ = pretrain_lm(
            &tokenizer,
            config.lm,
            PretrainConfig {
                seed: config.seed,
                ..Default::default()
            },
        );
        secs(t)
    };
    report.set("lm.pretrain_s", lm_pretrain_s);
    let prompts_us = per_call_us(&inp.train, |w| {
        std::hint::black_box(render_prompts(model.tokenizer(), &w.x, &w.y, &config));
    });
    report.set("data.prompts_us", prompts_us);
    let prompts: Vec<_> = inp
        .train
        .iter()
        .map(|w| render_prompts(model.tokenizer(), &w.x, &w.y, &config))
        .collect();
    let pairs: Vec<(&ForecastWindow, &timekd_data::WindowPrompts)> =
        inp.train.iter().zip(&prompts).collect();
    let teacher_us = no_grad(|| {
        per_call_us(&pairs, |(w, p)| {
            std::hint::black_box(model.teacher().forward(&w.x, &w.y, p));
        })
    });
    report.set("core.teacher_forward_us", teacher_us);

    // One planned batch step per train window (micro-batch 1, as trained).
    let teacher_out: Vec<_> = no_grad(|| {
        pairs
            .iter()
            .map(|(w, p)| model.teacher().forward(&w.x, &w.y, p))
            .collect()
    });
    let adam = AdamWConfig {
        weight_decay: 0.0,
        ..Default::default()
    };
    let mut trainer = PlannedBatchTrainer::new(
        model.student(),
        &config,
        PlanOptimizer::AdamW {
            lr: config.lr,
            beta1: adam.beta1,
            beta2: adam.beta2,
            eps: adam.eps,
            weight_decay: adam.weight_decay,
        },
        1,
    )
    .expect("batched training plan compiles");
    let staged: Vec<usize> = (0..inp.train.len()).collect();
    let batch_us = per_call_us(&staged, |&i| {
        trainer.stage_window(0, &inp.train[i].x, &inp.train[i].y);
        trainer.stage_teacher(0, &teacher_out[i].attention, &teacher_out[i].embedding);
        trainer.run_batch(1);
    });
    report.set("tensor.batch_train_ms", batch_us / 1e3);

    let student_us = per_call_us(&inp.test, |w| {
        std::hint::black_box(model.student().predict(&w.x));
    });
    report.set("nn.student_predict_us", student_us);
    let mut planned =
        PlannedStudent::new(model.student(), &config).expect("forecast plan compiles");
    let mut out = vec![0.0f32; HORIZON * inp.num_vars];
    let planned_us = per_call_us(&inp.test, |w| planned.predict_into(&w.x, &mut out));
    report.set("core.planned_predict_us", planned_us);

    let prompt_len = median(
        &prompts
            .iter()
            .flat_map(|p| p.ground_truth.iter().map(|t| t.len() as f64))
            .collect::<Vec<_>>(),
    ) as usize;
    let lm = config.lm;
    let clm_us = fused_attention_us(lm.num_heads, prompt_len, lm.dim / lm.num_heads, true);
    let enc_us = fused_attention_us(
        config.num_heads,
        inp.num_vars,
        config.dim / config.num_heads,
        false,
    );
    report.set("tensor.fused_attention_clm_us", clm_us);
    report.set("tensor.fused_attention_enc_us", enc_us);

    let t = Instant::now();
    let mut model = model;
    model.train_teacher_epoch(&inp.train);
    let warm_epoch_ms = secs(t) * 1e3;
    report.set("core.teacher_epoch_warm_ms", warm_epoch_ms);

    // Cache probes last: they clear the model's CLM cache.
    let flm = model.teacher().frozen_lm();
    let calibrated = config.ablation.calibrated_attention;
    let sample: Vec<_> = prompts
        .iter()
        .take(16)
        .flat_map(|p| p.ground_truth.iter().chain(&p.historical))
        .collect();
    flm.clear_cache();
    let miss_us = no_grad(|| {
        per_call_us(&sample, |toks| {
            std::hint::black_box(flm.embed(toks, calibrated));
        })
    });
    let hit_us = no_grad(|| {
        per_call_us(&sample, |toks| {
            std::hint::black_box(flm.embed(toks, calibrated));
        })
    });
    report.set("lm.embed_miss_us", miss_us);
    report.set("lm.embed_hit_us", hit_us);

    // Attribution of each end-to-end metric to the layer numbers.
    let windows = inp.train.len() as f64;
    let warmup_explained = misses as f64 * (miss_us - hit_us) / 1e6
        + config.teacher_warmup_epochs as f64 * warm_epoch_ms / 1e3;
    let epoch_explained_ms = windows * (prompts_us + teacher_us + batch_us) / 1e3;
    let eval_explained_ms = inp.test.len() as f64 * student_us / 1e3;
    let lines = [
        attribution(
            "setup_s",
            base.setup_s,
            &[("lm.pretrain_s", lm_pretrain_s)],
            "s",
        ),
        attribution(
            "work_s (train_s)",
            base_work,
            &[
                ("teacher warm-up: lm.cache_misses x (lm.embed_miss_us - lm.embed_hit_us) + epochs x core.teacher_epoch_warm_ms", warmup_explained),
                ("student epochs: epochs x windows x (data.prompts_us + core.teacher_forward_us + tensor.batch_train_ms)", STUDENT_EPOCHS as f64 * epoch_explained_ms / 1e3),
            ],
            "s",
        ),
        attribution(
            "core.teacher_warmup_s",
            base.warmup_s(),
            &[("lm.cache_misses x (miss - hit) + epochs x warm epoch", warmup_explained)],
            "s",
        ),
        attribution(
            "core.student_epoch_ms",
            epoch_ms,
            &[("windows x (data.prompts_us + core.teacher_forward_us + tensor.batch_train_ms)", epoch_explained_ms)],
            "ms",
        ),
        attribution(
            "core.eval_ms",
            base.eval_ms,
            &[("test windows x nn.student_predict_us", eval_explained_ms)],
            "ms",
        ),
        attribution(
            "forecast.p50_ms",
            forecast_p50,
            &[("nn.student_predict_us", student_us / 1e3)],
            "ms",
        ),
    ];
    for (line, _) in &lines {
        report.note(line.clone());
    }
    report.note(format!(
        "tracing overhead on work_s: {:+.2}%",
        overhead * 100.0
    ));
    report.set("attrib.setup_rem_frac", lines[0].1);
    report.set("attrib.work_rem_frac", lines[1].1);
    report.set("attrib.forecast_p50_rem_frac", lines[5].1);
    report
}
