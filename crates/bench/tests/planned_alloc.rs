//! Proves the compiled-plan student predict *and training* paths, and the
//! teacher's planned warm-up step, are allocation-free.
//!
//! Installs [`PeakAlloc`] as this binary's global allocator and measures
//! the heap around a batch of [`PlannedStudent::predict_into`] calls,
//! then [`PlannedBatchTrainer`] steps (`stage_window`,
//! `stage_teacher`, `run_batch`) on the objective plan the trainer runs,
//! then [`PlannedTeacherTrainer::run_step`] calls on a window's CLM rows:
//! after the warm-up call, live bytes must not move and the peak must not
//! rise — i.e. every hot loop (forward replay, reverse schedule,
//! clipping, fused optimizer update) performs **zero**
//! allocations, as the `*-in-plan-loop` lint rules promise statically.
//!
//! Built with `harness = false`: the libtest harness runs a second thread
//! whose own bookkeeping allocates sporadically, which would show up in
//! the global counters. A plain single-threaded `main` makes the
//! measurement window deterministic.

use std::rc::Rc;

use timekd::{
    trainer_plan_optimizer, CrossModalityTeacher, PlannedBatchTrainer, PlannedStudent,
    PlannedTeacherTrainer, Student, TimeKdConfig,
};
use timekd_bench::PeakAlloc;
use timekd_lm::{CausalLm, FrozenLm, PromptTokenizer};
use timekd_tensor::{seeded_rng, Tensor};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn main() {
    let config = TimeKdConfig::default();
    let (input_len, horizon, num_vars) = (48, 24, 7);
    let mut rng = seeded_rng(0xA110C);
    let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
    let mut planned = PlannedStudent::new(&student, &config).expect("student plan compiles");

    let x = Tensor::randn([input_len, num_vars], 1.0, &mut rng);
    let mut out = vec![0.0f32; horizon * num_vars];

    // Warm-up: any lazy one-time setup happens outside the window.
    planned.predict_into(&x, &mut out);

    let live_before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    for _ in 0..64 {
        planned.predict_into(&x, &mut out);
    }
    let live_after = ALLOC.live_bytes();
    let peak_after = ALLOC.peak_bytes();

    assert_eq!(
        live_after, live_before,
        "planned predict must not leak or allocate"
    );
    assert_eq!(
        peak_after, live_before,
        "planned predict must not allocate even transiently"
    );
    assert!(out.iter().all(|v| v.is_finite()), "forecast must be finite");
    println!("planned_alloc: 64 predict_into calls, zero heap movement ({live_before} live bytes)");

    // Same proof for the production training step: the student objective
    // plan the trainer replays, bound through `PlannedBatchTrainer`.
    // Staging the window and teacher products, the replay, clipping and
    // the fused AdamW update must all run from pre-sized buffers.
    let y = Tensor::randn([horizon, num_vars], 0.5, &mut rng);
    let att = Tensor::randn([num_vars, num_vars], 1.0, &mut rng).softmax_last();
    let emb = Tensor::randn([num_vars, config.dim], 1.0, &mut rng);
    let mut trainer =
        PlannedBatchTrainer::new(&student, &config, trainer_plan_optimizer(&config), 1)
            .expect("objective plan compiles");
    let mut step = || {
        trainer.stage_window(0, &x, &y);
        trainer.stage_teacher(0, &att, &emb);
        trainer.run_batch(1);
    };
    // Warm-up step outside the window: binding already happened in `new`;
    // this catches any lazy first-step setup.
    step();

    let live_before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    for _ in 0..64 {
        step();
    }
    let live_after = ALLOC.live_bytes();
    let peak_after = ALLOC.peak_bytes();

    assert_eq!(
        live_after, live_before,
        "objective training step must not leak or allocate"
    );
    assert_eq!(
        peak_after, live_before,
        "objective training step must not allocate even transiently"
    );
    assert!(
        trainer.total_loss().is_finite(),
        "objective loss must be finite"
    );
    println!(
        "planned_alloc: 64 objective stage+run_batch calls, zero heap movement \
         ({live_before} live bytes)"
    );

    // And for the teacher's warm-up step on a window's CLM rows, bound
    // through `PlannedTeacherTrainer`. The CLM itself never runs: the rows
    // are the step's input.
    let lm = CausalLm::new(PromptTokenizer::new().vocab_size(), config.lm, &mut rng);
    let teacher = CrossModalityTeacher::new(
        Rc::new(FrozenLm::new(lm)),
        config,
        input_len,
        horizon,
        &mut rng,
    );
    let rows = (
        Tensor::randn([num_vars, config.lm.dim], 1.0, &mut rng),
        Tensor::randn([num_vars, config.lm.dim], 1.0, &mut rng),
    );
    let mut teacher_trainer =
        PlannedTeacherTrainer::new(&teacher, &config, num_vars, trainer_plan_optimizer(&config))
            .expect("teacher plan compiles");
    let mut loss = teacher_trainer.run_step(&x, &y, Some(&rows));

    let live_before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    for _ in 0..64 {
        loss = teacher_trainer.run_step(&x, &y, Some(&rows));
    }
    let live_after = ALLOC.live_bytes();
    let peak_after = ALLOC.peak_bytes();

    assert_eq!(
        live_after, live_before,
        "teacher training step must not leak or allocate"
    );
    assert_eq!(
        peak_after, live_before,
        "teacher training step must not allocate even transiently"
    );
    assert!(loss.is_finite(), "teacher loss must be finite");
    println!(
        "planned_alloc: 64 teacher run_step calls, zero heap movement ({live_before} live bytes)"
    );
}
