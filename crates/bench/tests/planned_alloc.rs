//! Proves the compiled-plan student predict *and training* paths are
//! allocation-free.
//!
//! Installs [`PeakAlloc`] as this binary's global allocator and measures
//! the heap around a batch of [`PlannedStudent::predict_into`] calls and
//! then batches of [`PlannedBatchTrainer`] steps (`stage_window`,
//! `stage_teacher`, `run_batch`) on the objective plan the trainer runs:
//! after the warm-up call, live bytes must not move and the peak must not
//! rise — i.e. every hot loop (forward replay, reverse schedule, gradient
//! reduction, clipping, fused optimizer update) performs **zero**
//! allocations, as the `*-in-plan-loop` lint rules promise statically.
//!
//! Built with `harness = false`: the libtest harness runs a second thread
//! whose own bookkeeping allocates sporadically, which would show up in
//! the global counters. A plain single-threaded `main` makes the
//! measurement window deterministic.

use timekd::{student_plan_optimizer, PlannedBatchTrainer, PlannedStudent, Student, TimeKdConfig};
use timekd_bench::PeakAlloc;
use timekd_tensor::{parallel::with_threads, seeded_rng, Tensor};

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
    // plan the trainer replays, bound through `PlannedBatchTrainer`, at the
    // trainer's default one-window batch and at B = 4. Staging every lane's
    // window and teacher products, the (data-parallel) replay, the pinned
    // window-order reduction, clipping and the fused AdamW update must all
    // run from pre-sized per-lane arenas. Both runs are forced onto the
    // serial fold (`with_threads(1)`) so pool job bookkeeping — which is
    // outside the plan's zero-alloc promise — stays out of the window.
    let windows: Vec<[Tensor; 3]> = (0..4)
        .map(|_| {
            [
                Tensor::randn([horizon, num_vars], 0.5, &mut rng),
                Tensor::randn([num_vars, num_vars], 1.0, &mut rng).softmax_last(),
                Tensor::randn([num_vars, config.dim], 1.0, &mut rng),
            ]
        })
        .collect();
    for batch in [1, 4] {
        let mut trainer =
            PlannedBatchTrainer::new(&student, &config, student_plan_optimizer(&config), batch)
                .expect("objective plan compiles");
        let mut step = || {
            for (lane, [y, att, emb]) in windows.iter().take(batch).enumerate() {
                trainer.stage_window(lane, &x, y);
                trainer.stage_teacher(lane, att, emb);
            }
            trainer.run_batch(batch);
        };
        with_threads(1, || {
            // Warm-up batch outside the window: binding already happened
            // in `new`; this catches any lazy first-step setup.
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
                "objective training step (B={batch}) must not leak or allocate"
            );
            assert_eq!(
                peak_after, live_before,
                "objective training step (B={batch}) must not allocate even transiently"
            );
            println!(
                "planned_alloc: 64 objective stage+run_batch calls (B={batch}), zero heap \
                 movement ({live_before} live bytes)"
            );
        });
        assert!(
            (0..batch).all(|w| trainer.lane_total(w).is_finite()),
            "objective lane losses must be finite"
        );
    }
}
