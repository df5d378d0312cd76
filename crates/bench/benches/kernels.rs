//! Microbenchmarks of the hot kernels underneath every experiment:
//! batched matmul, calibrated-LM prompt encoding, subtractive cross
//! attention, and the full student forward pass.
//!
//! Dependency-free harness: each benchmark is warmed up, then timed over a
//! fixed iteration budget, reporting the mean wall time per iteration.
//!
//! Run: `cargo bench -p timekd-bench --bench kernels`

use std::hint::black_box;
use std::time::Instant;

use timekd::{SubtractiveCrossAttention, TimeKdConfig};
use timekd_lm::{pretrain_lm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};
use timekd_tensor::{no_grad, seeded_rng, Tensor};

/// Times `f` and prints mean ns/iter. Warmup runs are discarded so cold
/// caches and lazy allocations do not pollute the measurement.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..iters.div_ceil(10).max(3) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_nanos() / u128::from(iters);
    println!("{name:<36} {per_iter:>12} ns/iter  ({iters} iters)");
}

fn bench_matmul() {
    let mut rng = seeded_rng(0);
    let a = Tensor::randn([64, 64], 1.0, &mut rng);
    let b = Tensor::randn([64, 64], 1.0, &mut rng);
    bench("matmul_64x64", 200, || {
        no_grad(|| black_box(&a).matmul(black_box(&b)));
    });
    let a3 = Tensor::randn([4, 32, 32], 1.0, &mut rng);
    let b3 = Tensor::randn([4, 32, 32], 1.0, &mut rng);
    bench("matmul_batched_4x32x32", 200, || {
        no_grad(|| black_box(&a3).matmul(black_box(&b3)));
    });
}

fn bench_softmax() {
    let mut rng = seeded_rng(1);
    let x = Tensor::randn([64, 128], 1.0, &mut rng);
    bench("softmax_64x128", 500, || {
        no_grad(|| black_box(&x).softmax_last());
    });
}

fn bench_clm_prompt() {
    let tok = PromptTokenizer::new();
    let (lm, _) = pretrain_lm(
        &tok,
        LmConfig::for_size(LmSize::Base),
        PretrainConfig {
            steps: 1,
            ..Default::default()
        },
    );
    let mut rng = seeded_rng(2);
    let prompt = timekd_lm::sample_corpus_prompt(&tok, 16, &mut rng);
    bench("clm_last_token_embedding", 20, || {
        no_grad(|| lm.last_token_embedding(black_box(&prompt), true));
    });
    // One variable's rendered (ground-truth, historical) prompt pair at the
    // quickstart geometry (96 steps of history, 24 ahead), as the teacher
    // embeds it: one family sharing the pair's common prefix.
    let x = Tensor::randn([96, 1], 1.0, &mut rng);
    let y = Tensor::randn([24, 1], 1.0, &mut rng);
    let prompts = timekd::render_prompts(&tok, &x, &y, &TimeKdConfig::default());
    let pair = [
        prompts.ground_truth[0].as_slice(),
        prompts.historical[0].as_slice(),
    ];
    bench("clm_prompt_family", 20, || {
        no_grad(|| lm.last_token_embeddings(black_box(&pair), true));
    });
}

fn bench_sca() {
    let mut rng = seeded_rng(3);
    let sca = SubtractiveCrossAttention::new(32, 64, &mut rng);
    let gt = Tensor::randn([21, 32], 1.0, &mut rng);
    let hd = Tensor::randn([21, 32], 1.0, &mut rng);
    bench("sca_forward_21vars", 100, || {
        no_grad(|| sca.forward(black_box(&gt), black_box(&hd)));
    });
}

#[allow(clippy::field_reassign_with_default)]
fn bench_student_forward() {
    let mut cfg = TimeKdConfig::default();
    cfg.dim = 32;
    let mut rng = seeded_rng(4);
    let student = timekd::Student::new(&cfg, 96, 96, 7, &mut rng);
    let x = Tensor::randn([96, 7], 1.0, &mut rng);
    bench("student_predict_96to96_7vars", 50, || {
        student.predict(black_box(&x));
    });
}

fn main() {
    bench_matmul();
    bench_softmax();
    bench_clm_prompt();
    bench_sca();
    bench_student_forward();
}
