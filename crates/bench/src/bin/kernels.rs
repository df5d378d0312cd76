//! Kernel perf baseline runner.
//!
//! Measures the hot matmul kernels (forward and backward) serial vs
//! parallel, a naive-kernel reference (the pre-optimisation triple loop
//! with the `a_ik == 0.0` skip, kept here so the register-blocking win
//! stays measurable), the fused attention kernel against the composed op
//! chain it replaced (per LM size + encoder geometry, forward and
//! training step), the compiled student plan against the dynamic graph
//! engine (per-window predict and a full inference-epoch sweep), the
//! compiled student *objective* plan the trainer replays against the
//! dynamic objective step (one full step — forward, PKD + forecasting
//! losses, reverse schedule, clip, fused AdamW update — and a
//! multi-window training epoch), the batched objective plan (per-window
//! gradient lanes replayed data-parallel with a pinned window-order
//! reduction) against the per-window planned epoch, then emits a
//! machine-readable `BENCH_<unix-seconds>.json` at the repo root so the
//! perf trajectory is tracked across PRs.
//!
//! Usage:
//!
//! ```text
//! cargo run -p timekd-bench --release --bin kernels            # run + emit JSON
//! QUICK=1 cargo run -p timekd-bench --release --bin kernels    # smoke-sized run
//! cargo run -p timekd-bench --release --bin kernels -- --validate <file.json>
//! cargo run -p timekd-bench --release --bin kernels -- --validate-trace <trace.json>
//! ```
//!
//! `--validate-trace` checks a `timekd-trace/v1` report (as emitted by
//! `TIMEKD_TRACE=1 TIMEKD_TRACE_OUT=… cargo run --example quickstart`)
//! for both schema shape and pipeline coverage.
//!
//! `TIMEKD_THREADS` sizes the worker pool (the "parallel" columns);
//! "serial" numbers are taken in-process via
//! `timekd_tensor::parallel::with_threads(1, …)`, which is the same code
//! path `TIMEKD_THREADS=1` selects. `TIMEKD_BENCH_DIR` overrides the
//! output directory (default: repo root).

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use timekd::{
    student_objective, student_plan_optimizer, trainer_adamw, PlannedBatchTrainer, PlannedStudent,
    Student, TimeKdConfig,
};
use timekd_bench::{
    json::Json, validate_kernel_bench, validate_trace_coverage, validate_trace_report, Profile,
    KERNEL_BENCH_SCHEMA,
};
use timekd_nn::{clip_grad_norm, AdamW, Module};
use timekd_tensor::parallel::{configured_threads, with_threads};
use timekd_tensor::{no_grad, seeded_rng, Tensor};

/// Minimum wall time of `f` in milliseconds over `iters` runs (after one
/// warmup run). Minimum, not mean: scheduling noise only ever adds time.
fn time_min_ms(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The pre-PR3 serial kernel, verbatim: i-k-j loop with a per-element
/// zero-skip branch. Kept as the reference the blocked kernel is judged
/// against (`speedup_blocked_vs_naive` in the JSON).
fn naive_mm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
}

struct ShapeSpec {
    name: &'static str,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    iters: u32,
}

fn shapes(quick: bool) -> Vec<ShapeSpec> {
    let mut s = vec![
        ShapeSpec {
            name: "mm_64",
            batch: 1,
            m: 64,
            k: 64,
            n: 64,
            iters: if quick { 5 } else { 40 },
        },
        ShapeSpec {
            name: "mm_128",
            batch: 1,
            m: 128,
            k: 128,
            n: 128,
            iters: if quick { 3 } else { 20 },
        },
        ShapeSpec {
            name: "mm_256",
            batch: 1,
            m: 256,
            k: 256,
            n: 256,
            iters: if quick { 2 } else { 8 },
        },
        ShapeSpec {
            name: "mm_rect_512x64x256",
            batch: 1,
            m: 512,
            k: 64,
            n: 256,
            iters: if quick { 2 } else { 8 },
        },
        ShapeSpec {
            name: "mm_batched_8x96",
            batch: 8,
            m: 96,
            k: 96,
            n: 96,
            iters: if quick { 2 } else { 8 },
        },
    ];
    if !quick {
        s.push(ShapeSpec {
            name: "mm_320",
            batch: 1,
            m: 320,
            k: 320,
            n: 320,
            iters: 4,
        });
    }
    s
}

/// An attention geometry: `[H, T_q, dh]` queries against `[H, T_k, dh]`
/// keys/values, optionally through a causal mask (as in the CLM blocks).
struct AttnShapeSpec {
    name: &'static str,
    heads: usize,
    tq: usize,
    tk: usize,
    dh: usize,
    causal: bool,
    iters: u32,
}

/// The attention shapes that actually occur in this repo: one per LM size
/// (`LmConfig::for_size` dims at a typical prompt length, causal like the
/// CLM blocks) plus the student/teacher encoder geometry (core config:
/// dim 32, 4 heads, over the input window).
fn attention_shapes(quick: bool) -> Vec<AttnShapeSpec> {
    let mut s = vec![
        AttnShapeSpec {
            name: "attn_lm_small",
            heads: 2,
            tq: 32,
            tk: 32,
            dh: 12,
            causal: true,
            iters: if quick { 5 } else { 40 },
        },
        AttnShapeSpec {
            name: "attn_lm_base",
            heads: 4,
            tq: 32,
            tk: 32,
            dh: 8,
            causal: true,
            iters: if quick { 5 } else { 40 },
        },
        AttnShapeSpec {
            name: "attn_lm_large",
            heads: 4,
            tq: 48,
            tk: 48,
            dh: 12,
            causal: true,
            iters: if quick { 5 } else { 40 },
        },
        AttnShapeSpec {
            name: "attn_encoder_48",
            heads: 4,
            tq: 48,
            tk: 48,
            dh: 8,
            causal: false,
            iters: if quick { 5 } else { 40 },
        },
    ];
    if !quick {
        s.push(AttnShapeSpec {
            name: "attn_encoder_96",
            heads: 4,
            tq: 96,
            tk: 96,
            dh: 8,
            causal: false,
            iters: 20,
        });
    }
    s
}

/// One attention-shape measurement: the fused kernel against the composed
/// op chain it replaced (matmul → scale → mask → softmax → matmul → merge
/// + head-averaged map), forward-only and forward+backward.
fn bench_attention_shape(spec: &AttnShapeSpec) -> Json {
    let AttnShapeSpec {
        name,
        heads,
        tq,
        tk,
        dh,
        causal,
        iters,
    } = *spec;
    let mut rng = seeded_rng(0xA77E ^ (heads * tq * dh) as u64);
    let q0 = Tensor::randn([heads, tq, dh], 1.0, &mut rng).to_vec();
    let k0 = Tensor::randn([heads, tk, dh], 1.0, &mut rng).to_vec();
    let v0 = Tensor::randn([heads, tk, dh], 1.0, &mut rng).to_vec();
    let mask = causal.then(|| timekd_nn::causal_mask(tq));

    let composed = |q: &Tensor, k: &Tensor, v: &Tensor| -> (Tensor, Tensor) {
        let scale = 1.0 / (dh as f32).sqrt();
        let mut scores = q.matmul(&k.transpose_last()).mul_scalar(scale);
        if let Some(m) = &mask {
            scores = scores.add(m);
        }
        let attn = scores.softmax_last();
        let ctx = attn.matmul(v);
        let merged = ctx.permute(&[1, 0, 2]).reshape([tq, heads * dh]);
        (merged, attn.mean_axis(0, false))
    };

    let q = Tensor::from_vec(q0.clone(), [heads, tq, dh]);
    let k = Tensor::from_vec(k0.clone(), [heads, tk, dh]);
    let v = Tensor::from_vec(v0.clone(), [heads, tk, dh]);
    let fused_ms = time_min_ms(iters, || {
        no_grad(|| {
            std::hint::black_box(Tensor::fused_attention(
                std::hint::black_box(&q),
                &k,
                &v,
                mask.as_ref(),
            ));
        });
    });
    let composed_ms = time_min_ms(iters, || {
        no_grad(|| {
            std::hint::black_box(composed(std::hint::black_box(&q), &k, &v));
        });
    });

    // Training step: forward + backward through the merged context — the
    // per-layer hot path (every attention layer trains through its
    // context; the map is trained through only at the last student layer
    // by correlation distillation).
    let fused_train_ms = time_min_ms(iters, || {
        let q = Tensor::param(q0.clone(), [heads, tq, dh]);
        let k = Tensor::param(k0.clone(), [heads, tk, dh]);
        let v = Tensor::param(v0.clone(), [heads, tk, dh]);
        let (out, _map) = Tensor::fused_attention(&q, &k, &v, mask.as_ref());
        out.sum().backward();
    });
    let composed_train_ms = time_min_ms(iters, || {
        let q = Tensor::param(q0.clone(), [heads, tq, dh]);
        let k = Tensor::param(k0.clone(), [heads, tk, dh]);
        let v = Tensor::param(v0.clone(), [heads, tk, dh]);
        let (out, _map) = composed(&q, &k, &v);
        out.sum().backward();
    });

    Json::obj(vec![
        ("name", Json::str(name)),
        ("heads", Json::num(heads as f64)),
        ("tq", Json::num(tq as f64)),
        ("tk", Json::num(tk as f64)),
        ("dh", Json::num(dh as f64)),
        ("causal", Json::Bool(causal)),
        ("iters", Json::num(f64::from(iters))),
        ("fused_ms", Json::num(fused_ms)),
        ("composed_ms", Json::num(composed_ms)),
        ("speedup_fused", Json::num(composed_ms / fused_ms)),
        ("fused_train_ms", Json::num(fused_train_ms)),
        ("composed_train_ms", Json::num(composed_train_ms)),
        (
            "speedup_fused_train",
            Json::num(composed_train_ms / fused_train_ms),
        ),
    ])
}

/// One kernel-shape measurement: forward serial/parallel/naive, plus a
/// forward+backward pass (which exercises the NT/TN gradient kernels).
fn bench_shape(spec: &ShapeSpec, threads: usize) -> Json {
    let ShapeSpec {
        name,
        batch,
        m,
        k,
        n,
        iters,
    } = *spec;
    let mut rng = seeded_rng(0xBEEF ^ (m * n + k) as u64);
    let (a, b) = if batch == 1 {
        (
            Tensor::randn([m, k], 1.0, &mut rng),
            Tensor::randn([k, n], 1.0, &mut rng),
        )
    } else {
        (
            Tensor::randn([batch, m, k], 1.0, &mut rng),
            Tensor::randn([batch, k, n], 1.0, &mut rng),
        )
    };

    let fwd = |_: ()| no_grad(|| std::hint::black_box(&a).matmul(std::hint::black_box(&b)));
    let serial_ms = with_threads(1, || time_min_ms(iters, || drop(fwd(()))));
    let parallel_ms = with_threads(threads, || time_min_ms(iters, || drop(fwd(()))));

    // Naive reference runs on the raw buffers (per batch for 3-D shapes).
    let (av, bv) = (a.to_vec(), b.to_vec());
    let naive_ms = time_min_ms(iters, || {
        let mut out = vec![0.0f32; batch * m * n];
        for t in 0..batch {
            naive_mm(
                &av[t * m * k..(t + 1) * m * k],
                &bv[t * k * n..(t + 1) * k * n],
                &mut out[t * m * n..(t + 1) * m * n],
                m,
                k,
                n,
            );
        }
        std::hint::black_box(&out);
    });

    // Forward + backward (sum loss): the backward pass routes through the
    // NT (gA) and TN (gB) gradient kernels at the same geometry.
    let shape_a: Vec<usize> = if batch == 1 {
        vec![m, k]
    } else {
        vec![batch, m, k]
    };
    let shape_b: Vec<usize> = if batch == 1 {
        vec![k, n]
    } else {
        vec![batch, k, n]
    };
    let train = || {
        let ap = Tensor::param(av.clone(), &shape_a[..]);
        let bp = Tensor::param(bv.clone(), &shape_b[..]);
        ap.matmul(&bp).sum().backward();
    };
    let grad_serial_ms = with_threads(1, || time_min_ms(iters, train));
    let grad_parallel_ms = with_threads(threads, || time_min_ms(iters, train));

    let flops = (2 * batch * m * k * n) as f64;
    let gflops = |ms: f64| flops / (ms / 1e3) / 1e9;
    Json::obj(vec![
        ("name", Json::str(name)),
        ("batch", Json::num(batch as f64)),
        ("m", Json::num(m as f64)),
        ("k", Json::num(k as f64)),
        ("n", Json::num(n as f64)),
        ("iters", Json::num(f64::from(iters))),
        ("serial_ms", Json::num(serial_ms)),
        ("parallel_ms", Json::num(parallel_ms)),
        ("speedup_parallel", Json::num(serial_ms / parallel_ms)),
        ("gflops_serial", Json::num(gflops(serial_ms))),
        ("gflops_parallel", Json::num(gflops(parallel_ms))),
        ("naive_ms", Json::num(naive_ms)),
        ("speedup_blocked_vs_naive", Json::num(naive_ms / serial_ms)),
        ("grad_serial_ms", Json::num(grad_serial_ms)),
        ("grad_parallel_ms", Json::num(grad_parallel_ms)),
        (
            "speedup_grad_parallel",
            Json::num(grad_serial_ms / grad_parallel_ms),
        ),
    ])
}

/// Planned vs dynamic student predict: per-window forecast latency plus a
/// full inference-epoch sweep over a batch of windows. "Dynamic" runs
/// [`Student::predict`] through the graph engine (worker pool at
/// `threads`); "planned" replays the compiled static plan (fixed schedule,
/// liveness-colored arena, zero allocation) through
/// [`PlannedStudent::predict_into`]. The two are bitwise identical — this
/// row measures what the plan compiler buys, not what it changes.
fn bench_planned_student(quick: bool, threads: usize) -> Json {
    let (input_len, horizon, num_vars) = (48usize, 24usize, 7usize);
    let config = TimeKdConfig::default();
    let mut rng = seeded_rng(0x1A7E);
    let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
    let mut planned = PlannedStudent::new(&student, &config).expect("student plan compiles");

    let windows: Vec<Tensor> = (0..if quick { 8 } else { 32 })
        .map(|_| Tensor::randn([input_len, num_vars], 1.0, &mut rng))
        .collect();
    let iters = if quick { 5 } else { 40 };
    let epoch_iters = if quick { 2 } else { 8 };

    // Sanity: the plan must reproduce the dynamic forecast bitwise before
    // its timings mean anything.
    let reference = student.predict(&windows[0]).to_vec();
    assert_eq!(
        planned.predict(&windows[0]).to_vec(),
        reference,
        "planned forecast diverged from the dynamic engine"
    );

    let x = &windows[0];
    let predict_dynamic_ms = with_threads(threads, || {
        time_min_ms(iters, || {
            std::hint::black_box(student.predict(std::hint::black_box(x)));
        })
    });
    let mut out = vec![0.0f32; horizon * num_vars];
    let predict_planned_ms = time_min_ms(iters, || {
        planned.predict_into(std::hint::black_box(x), &mut out);
        std::hint::black_box(&out);
    });

    let epoch_dynamic_ms = with_threads(threads, || {
        time_min_ms(epoch_iters, || {
            for w in &windows {
                std::hint::black_box(student.predict(w));
            }
        })
    });
    let epoch_planned_ms = time_min_ms(epoch_iters, || {
        for w in &windows {
            planned.predict_into(w, &mut out);
        }
        std::hint::black_box(&out);
    });

    let plan = planned.plan();
    Json::obj(vec![
        ("input_len", Json::num(input_len as f64)),
        ("horizon", Json::num(horizon as f64)),
        ("num_vars", Json::num(num_vars as f64)),
        ("windows", Json::num(windows.len() as f64)),
        ("iters", Json::num(f64::from(iters))),
        ("predict_dynamic_ms", Json::num(predict_dynamic_ms)),
        ("predict_planned_ms", Json::num(predict_planned_ms)),
        (
            "speedup_planned_predict",
            Json::num(predict_dynamic_ms / predict_planned_ms),
        ),
        ("epoch_dynamic_ms", Json::num(epoch_dynamic_ms)),
        ("epoch_planned_ms", Json::num(epoch_planned_ms)),
        (
            "speedup_planned_epoch",
            Json::num(epoch_dynamic_ms / epoch_planned_ms),
        ),
        ("plan_steps", Json::num(plan.steps().len() as f64)),
        ("plan_arena_f32", Json::num(plan.arena_len() as f64)),
    ])
}

/// One training window with seeded stand-ins for the teacher's
/// privileged products: `(x, y, A_PE, E_GT)`.
type ObjectiveWindow = (Tensor, Tensor, Tensor, Tensor);

/// `n` seeded objective windows at the bench training geometry.
fn objective_windows(
    n: usize,
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<ObjectiveWindow> {
    let mut wrng = seeded_rng(0x7EA1);
    (0..n)
        .map(|_| {
            (
                Tensor::randn([input_len, num_vars], 1.0, &mut wrng),
                Tensor::randn([horizon, num_vars], 0.5, &mut wrng),
                Tensor::randn([num_vars, num_vars], 1.0, &mut wrng).softmax_last(),
                Tensor::randn([num_vars, config.dim], 1.0, &mut wrng),
            )
        })
        .collect()
}

/// One dynamic student objective step — the trainer's oracle idiom:
/// `zero_grad` → [`student_objective`] → `backward` → clip → AdamW.
/// Returns the total loss.
fn dynamic_objective_step(
    student: &Student,
    config: &TimeKdConfig,
    params: &[Tensor],
    adamw: &mut AdamW,
    (x, y, att, emb): &ObjectiveWindow,
) -> f32 {
    student.zero_grad();
    let total = student_objective(student, config, x, y, att, emb).total;
    total.backward();
    clip_grad_norm(params, config.grad_clip);
    adamw.step(params);
    total.item()
}

/// Replays `windows` through `trainer` in micro-batches of its capacity:
/// one fused, clipped optimizer step per batch.
fn planned_objective_epoch(trainer: &mut PlannedBatchTrainer, windows: &[ObjectiveWindow]) {
    for chunk in windows.chunks(trainer.batch()) {
        for (lane, (x, y, att, emb)) in chunk.iter().enumerate() {
            trainer.stage_window(lane, x, y);
            trainer.stage_teacher(lane, att, emb);
        }
        trainer.run_batch(chunk.len());
    }
}

/// Planned vs dynamic student *training* on the objective the trainer
/// runs (PKD + forecasting, Alg. 2): one full step and a multi-window
/// epoch. "Dynamic" is the oracle idiom ([`dynamic_objective_step`],
/// worker pool at `threads`); "planned" replays the compiled objective
/// plan through a one-window [`PlannedBatchTrainer`] — fixed reverse
/// schedule, liveness-colored arena shared across forward and backward,
/// zero allocation. The two produce bitwise-identical updates (the sanity
/// block asserts it over two steps: the step-2 losses can only match if
/// the step-1 updates matched), so this row measures scheduling cost
/// only.
fn bench_planned_training(quick: bool, threads: usize) -> Json {
    let (input_len, horizon, num_vars) = (48usize, 24usize, 7usize);
    let config = TimeKdConfig::default();
    let optimizer = student_plan_optimizer(&config);
    let windows = objective_windows(
        if quick { 4 } else { 16 },
        &config,
        input_len,
        horizon,
        num_vars,
    );
    let iters = if quick { 3 } else { 20 };
    let epoch_iters = if quick { 1 } else { 4 };
    let fresh = || {
        Student::new(
            &config,
            input_len,
            horizon,
            num_vars,
            &mut seeded_rng(0x1A7E),
        )
    };

    // Sanity: the planned step must track the dynamic engine bitwise
    // before its timings mean anything. Two steps: the second loss agrees
    // only if the first parameter update already agreed.
    {
        let student = fresh();
        let mut trainer = PlannedBatchTrainer::new(&student, &config, optimizer, 1)
            .expect("objective plan compiles");
        let params = student.params();
        let mut adamw = trainer_adamw(&config);
        for w in windows.iter().take(2) {
            let loss = dynamic_objective_step(&student, &config, &params, &mut adamw, w);
            planned_objective_epoch(&mut trainer, std::slice::from_ref(w));
            assert_eq!(
                trainer.lane_total(0).to_bits(),
                loss.to_bits(),
                "planned objective step diverged from the dynamic engine"
            );
        }
    }

    // Dynamic timings: a fresh student + optimizer, graph engine on the
    // worker pool. Each timed call is a genuine step (params move), which
    // is exactly what an epoch does.
    let student = fresh();
    let params = student.params();
    let mut adamw = trainer_adamw(&config);
    let w0 = &windows[0];
    let train_step_dynamic_ms = with_threads(threads, || {
        time_min_ms(iters, || {
            std::hint::black_box(dynamic_objective_step(
                &student, &config, &params, &mut adamw, w0,
            ));
        })
    });
    let train_epoch_dynamic_ms = with_threads(threads, || {
        time_min_ms(epoch_iters, || {
            for w in &windows {
                std::hint::black_box(dynamic_objective_step(
                    &student, &config, &params, &mut adamw, w,
                ));
            }
        })
    });

    // Planned timings: a fresh trainer from the same seed, serial (a
    // one-window batch replays on the calling thread).
    let mut trainer =
        PlannedBatchTrainer::new(&fresh(), &config, optimizer, 1).expect("objective plan compiles");
    let train_step_planned_ms = time_min_ms(iters, || {
        planned_objective_epoch(&mut trainer, std::slice::from_ref(w0));
        std::hint::black_box(trainer.lane_total(0));
    });
    let train_epoch_planned_ms = time_min_ms(epoch_iters, || {
        planned_objective_epoch(&mut trainer, &windows);
    });

    let plan = trainer.plan();
    Json::obj(vec![
        ("input_len", Json::num(input_len as f64)),
        ("horizon", Json::num(horizon as f64)),
        ("num_vars", Json::num(num_vars as f64)),
        ("windows", Json::num(windows.len() as f64)),
        ("iters", Json::num(f64::from(iters))),
        ("train_step_dynamic_ms", Json::num(train_step_dynamic_ms)),
        ("train_step_planned_ms", Json::num(train_step_planned_ms)),
        (
            "speedup_planned_train_step",
            Json::num(train_step_dynamic_ms / train_step_planned_ms),
        ),
        ("train_epoch_dynamic_ms", Json::num(train_epoch_dynamic_ms)),
        ("train_epoch_planned_ms", Json::num(train_epoch_planned_ms)),
        (
            "speedup_planned_train_epoch",
            Json::num(train_epoch_dynamic_ms / train_epoch_planned_ms),
        ),
        ("bwd_steps", Json::num(plan.bwd_steps().len() as f64)),
        ("update_steps", Json::num(plan.update_steps().len() as f64)),
    ])
}

/// Batched multi-window planned training vs the per-window planned epoch:
/// the student objective plan is lowered per micro-batch size `B` into
/// per-window gradient lanes replayed data-parallel on the worker pool,
/// folded by the pinned window-order reduction into one clipped, fused
/// optimizer step per batch. The per-window baseline is the `B = 1`
/// [`PlannedBatchTrainer`] epoch (one fused step per window, the
/// trainer's default) — the path this section exists to beat at `B > 1`.
/// Sanity: each batched epoch must be bitwise thread-invariant (serial
/// fold == pool partition) before its timings mean anything.
fn bench_batched_training(quick: bool, threads: usize) -> Vec<Json> {
    let (input_len, horizon, num_vars) = (48usize, 24usize, 7usize);
    let config = TimeKdConfig::default();
    // 16 windows even in QUICK so B = 8 still folds two full batches;
    // QUICK trims the iteration count instead.
    let windows = objective_windows(16, &config, input_len, horizon, num_vars);
    let epoch_iters = if quick { 1 } else { 4 };
    let build = |b: usize| {
        let mut rng = seeded_rng(0x1A7E);
        let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
        PlannedBatchTrainer::new(&student, &config, student_plan_optimizer(&config), b)
            .expect("batched objective plan compiles")
    };
    let params_of = |t: &PlannedBatchTrainer| -> Vec<Vec<f32>> {
        t.param_labels()
            .iter()
            .filter_map(|l| t.param_data(l).map(<[f32]>::to_vec))
            .collect()
    };

    // Per-window baseline, shared by every row (it does not depend on B).
    let epoch_per_window_ms = {
        let mut trainer = build(1);
        time_min_ms(epoch_iters, || {
            planned_objective_epoch(&mut trainer, &windows)
        })
    };

    let sizes: &[usize] = if quick { &[4] } else { &[1, 4, 8] };
    let mut rows = Vec::new();
    for &b in sizes {
        // Sanity: one epoch on the serial fold and one on the pool must
        // leave bitwise-identical parameters (the pinned reduction order
        // is window-indexed, never thread-indexed).
        let serial_params = {
            let mut trainer = build(b);
            with_threads(1, || planned_objective_epoch(&mut trainer, &windows));
            params_of(&trainer)
        };
        let mut trainer = build(b);
        with_threads(threads, || planned_objective_epoch(&mut trainer, &windows));
        assert_eq!(
            serial_params,
            params_of(&trainer),
            "batched epoch at B={b} diverged between serial and pooled replay"
        );

        let epoch_batched_ms = with_threads(threads, || {
            time_min_ms(epoch_iters, || {
                planned_objective_epoch(&mut trainer, &windows)
            })
        });
        let plan = trainer.plan();
        rows.push(Json::obj(vec![
            ("name", Json::str(format!("batched_b{b}"))),
            ("micro_batch", Json::num(b as f64)),
            ("input_len", Json::num(input_len as f64)),
            ("horizon", Json::num(horizon as f64)),
            ("num_vars", Json::num(num_vars as f64)),
            ("windows", Json::num(windows.len() as f64)),
            ("iters", Json::num(f64::from(epoch_iters))),
            ("epoch_per_window_ms", Json::num(epoch_per_window_ms)),
            ("epoch_batched_ms", Json::num(epoch_batched_ms)),
            (
                "speedup_batched",
                Json::num(epoch_per_window_ms / epoch_batched_ms),
            ),
            ("reduce_steps", Json::num(plan.reduce_steps().len() as f64)),
            ("update_steps", Json::num(plan.update_steps().len() as f64)),
        ]));
    }
    rows
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench manifest has two ancestors")
        .to_path_buf()
}

fn run_validate(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate: cannot read {path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate: {path} is not valid JSON: {e}");
            return 1;
        }
    };
    match validate_kernel_bench(&doc) {
        Ok(()) => {
            println!("validate: {path} conforms to the kernel-bench schema");
            0
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("validate: {path}: {p}");
            }
            1
        }
    }
}

fn run_validate_trace(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate-trace: cannot read {path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate-trace: {path} is not valid JSON: {e}");
            return 1;
        }
    };
    let mut problems = validate_trace_report(&doc).err().unwrap_or_default();
    if problems.is_empty() {
        problems = validate_trace_coverage(&doc).err().unwrap_or_default();
    }
    if problems.is_empty() {
        println!(
            "validate-trace: {path} conforms to {} with full pipeline coverage",
            timekd_bench::TRACE_SCHEMA
        );
        0
    } else {
        for p in &problems {
            eprintln!("validate-trace: {path}: {p}");
        }
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: kernels --validate <BENCH_*.json>");
            std::process::exit(2);
        };
        std::process::exit(run_validate(path));
    }
    if args.first().map(String::as_str) == Some("--validate-trace") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: kernels --validate-trace <trace.json>");
            std::process::exit(2);
        };
        std::process::exit(run_validate_trace(path));
    }
    if !args.is_empty() {
        eprintln!("usage: kernels [--validate <BENCH_*.json> | --validate-trace <trace.json>]");
        std::process::exit(2);
    }

    let quick = Profile::from_env().quick;
    let threads = configured_threads();
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "kernel bench: {} profile, {threads} thread(s) configured ({available} available)",
        if quick { "QUICK" } else { "full" }
    );

    let mut kernels = Vec::new();
    for spec in shapes(quick) {
        let row = bench_shape(&spec, threads);
        let fmt = |key: &str| row.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
        println!(
            "  {:<22} serial {:>9.3} ms  parallel {:>9.3} ms  x{:<5.2}  {:>7.2} GFLOP/s  (naive {:>9.3} ms, x{:.2} vs naive)",
            spec.name,
            fmt("serial_ms"),
            fmt("parallel_ms"),
            fmt("speedup_parallel"),
            fmt("gflops_parallel"),
            fmt("naive_ms"),
            fmt("speedup_blocked_vs_naive"),
        );
        kernels.push(row);
    }

    let mut attention = Vec::new();
    for spec in attention_shapes(quick) {
        let row = bench_attention_shape(&spec);
        let fmt = |key: &str| row.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
        println!(
            "  {:<22} fused {:>9.3} ms  composed {:>9.3} ms  x{:<5.2}  (train: fused {:>9.3} ms, composed {:>9.3} ms, x{:.2})",
            spec.name,
            fmt("fused_ms"),
            fmt("composed_ms"),
            fmt("speedup_fused"),
            fmt("fused_train_ms"),
            fmt("composed_train_ms"),
            fmt("speedup_fused_train"),
        );
        attention.push(row);
    }

    println!("  planned vs dynamic student predict …");
    let planned_student = bench_planned_student(quick, threads);
    {
        let fmt = |key: &str| {
            planned_student
                .get(key)
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN)
        };
        println!(
            "    predict: dynamic {:>9.3} ms  planned {:>9.3} ms  x{:<5.2}  (epoch: dynamic {:>9.3} ms, planned {:>9.3} ms, x{:.2})",
            fmt("predict_dynamic_ms"),
            fmt("predict_planned_ms"),
            fmt("speedup_planned_predict"),
            fmt("epoch_dynamic_ms"),
            fmt("epoch_planned_ms"),
            fmt("speedup_planned_epoch"),
        );
    }

    println!("  planned vs dynamic student training …");
    let planned_training = bench_planned_training(quick, threads);
    {
        let fmt = |key: &str| {
            planned_training
                .get(key)
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN)
        };
        println!(
            "    train step: dynamic {:>9.3} ms  planned {:>9.3} ms  x{:<5.2}  (epoch: dynamic {:>9.3} ms, planned {:>9.3} ms, x{:.2})",
            fmt("train_step_dynamic_ms"),
            fmt("train_step_planned_ms"),
            fmt("speedup_planned_train_step"),
            fmt("train_epoch_dynamic_ms"),
            fmt("train_epoch_planned_ms"),
            fmt("speedup_planned_train_epoch"),
        );
    }

    println!("  batched vs per-window planned training …");
    let batched_training = bench_batched_training(quick, threads);
    for row in &batched_training {
        let fmt = |key: &str| row.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
        println!(
            "    B={:<2} per-window {:>9.3} ms  batched {:>9.3} ms  x{:<5.2}  ({} reduce steps)",
            fmt("micro_batch"),
            fmt("epoch_per_window_ms"),
            fmt("epoch_batched_ms"),
            fmt("speedup_batched"),
            fmt("reduce_steps"),
        );
    }

    let created = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let doc = Json::obj(vec![
        ("schema", Json::str(KERNEL_BENCH_SCHEMA)),
        ("created_unix_s", Json::num(created as f64)),
        ("quick", Json::Bool(quick)),
        (
            "notes",
            Json::Arr(vec![
                Json::str(
                    "mm_rect_512x64x256 regression fix: parallel row-block granularity now scales \
                     with k*n (min_rows_per_block), so wide-short shapes no longer fan out into \
                     below-cutoff blocks (was parallel 18.8 vs serial 23.6 GFLOP/s in \
                     BENCH_1786107316.json)",
                ),
                Json::str(
                    "v6: batched_training rows compare the serial per-window planned epoch \
                     against the data-parallel batched replay (per-window gradient lanes, \
                     pinned window-order reduction, one fused optimizer step per batch)",
                ),
                Json::str(
                    "batched_training speedup is bounded by threads.available: lane shards \
                     are clamped to the physical parallelism, so with 1 available core only \
                     the per-window optimizer tail amortizes (ceiling ~(R+T)/R ≈ 1.4 for \
                     this geometry); the ≥1.5x regime needs ≥2 physical cores",
                ),
                Json::str(
                    "v8: the kernels rows drop the scalar-fallback columns (the kernels have \
                     one pinned reduction order), and the end_to_end serial-vs-parallel \
                     epoch section is gone (it measured nothing on a 1-core host)",
                ),
                Json::str(
                    "v9: the serving section is gone; served latency is measured end to end \
                     by the benchmark package's serve_window and serve_tenant workloads",
                ),
                Json::str(
                    "v10: the quantized_student section is gone with the int8 inference \
                     path; every plan is f32",
                ),
            ]),
        ),
        (
            "threads",
            Json::obj(vec![
                ("configured", Json::num(threads as f64)),
                ("available", Json::num(available as f64)),
            ]),
        ),
        ("kernels", Json::Arr(kernels)),
        ("attention", Json::Arr(attention)),
        ("planned_student", planned_student),
        ("planned_training", planned_training),
        ("batched_training", Json::Arr(batched_training)),
    ]);
    if let Err(problems) = validate_kernel_bench(&doc) {
        for p in &problems {
            eprintln!("internal schema violation: {p}");
        }
        std::process::exit(1);
    }

    let dir = std::env::var("TIMEKD_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| repo_root());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(format!("BENCH_{created}.json"));
    std::fs::write(&path, doc.render()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
    println!("bench: wrote {}", path.display());
}
