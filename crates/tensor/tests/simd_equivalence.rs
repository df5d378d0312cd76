//! Reference equivalence for the f32x8 microkernels.
//!
//! The kernels promise *pinned* reduction orders (see
//! `timekd_tensor::simd`): NN products accumulate one ascending-`k` fused
//! multiply-add chain per output element, and NT/dot-style contractions
//! use the 8-lane blocked `dot_lanes` order — which the NT kernel runs for
//! 8 outputs at once, one accumulator per lane class, restated here as
//! plain loops and swept over every shape up to 17 per side. These tests restate both
//! orders as plain scalar reference loops — no `F32x8`, no register
//! tiling — and assert the shipped kernels match them **bitwise**, at
//! thread counts {1, 2, 5}, on shapes with row/column/lane remainders,
//! through the forward kernel and both gradient kernels (NT for `dA`, TN
//! for `dB`).
//!
//! The pinned transcendentals (`simd::exp`, `simd::tanh`) are held to an
//! f64 reference over seeded samples of the whole finite f32 range, to
//! their special values, and to one more contract: an element gets the
//! same bits whether it falls in a lane kernel's `F32x8` body or in its
//! scalar tail, for every row length from 0 to 33.

use timekd_tensor::parallel::with_threads;
use timekd_tensor::simd::{self, fmadd, EXP_HI, EXP_LO};
use timekd_tensor::{
    record, seeded_rng, Plan, PlanOptimizer, PlanSpec, Recorder, SeededRng, Tensor, TrainExecutor,
    TrainSpec, ValueSource,
};

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Scalar restatement of the SIMD NN order: one ascending-`k` fmadd chain
/// per output element, regardless of how the kernel tiles the schedule.
fn nn_chain_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = fmadd(a[i * k + kk], b[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Scalar restatement of the `dot_lanes` order: element `i` feeds lane
/// `i % 8`, lanes accumulate ascending with fmadd, partials combine via
/// the fixed tree `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, and the tail
/// folds ascending with scalar fmadd.
fn dot_lanes_reference(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut lanes = [0.0f32; 8];
    let mut i = 0;
    while i + 8 <= n {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = fmadd(a[i + l], b[i + l], *lane);
        }
        i += 8;
    }
    let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    while i < n {
        sum = fmadd(a[i], b[i], sum);
        i += 1;
    }
    sum
}

/// Remainder-heavy geometries: rows not divisible by the 4-row tiling,
/// columns hitting the 16-wide, 8-wide, and scalar column tails, `k % 4`
/// and `k % 8` tails — plus one shape above the parallel cutoff
/// (`80·64·72 ≥ 64³`) so the pool genuinely engages at threads 2 and 5.
const SHAPES: [(usize, usize, usize); 5] =
    [(5, 7, 19), (4, 8, 16), (9, 13, 33), (3, 9, 7), (80, 64, 72)];

fn seeded_pair(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = seeded_rng(seed);
    (
        Tensor::randn([m, k], 1.0, &mut rng).to_vec(),
        Tensor::randn([k, n], 1.0, &mut rng).to_vec(),
    )
}

#[test]
fn simd_forward_matches_chain_reference_at_all_threads() {
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a0, b0) = seeded_pair(m, k, n, 40 + si as u64);
        let want = nn_chain_reference(&a0, &b0, m, k, n);
        let a = Tensor::from_vec(a0, [m, k]);
        let b = Tensor::from_vec(b0, [k, n]);
        for threads in [1, 2, 5] {
            let got = with_threads(threads, || a.matmul(&b).to_vec());
            assert_bits_eq(&got, &want, &format!("NN {m}x{k}x{n} threads={threads}"));
        }
    }
}

#[test]
fn simd_gradients_match_pinned_references_at_all_threads() {
    // Loss = sum(A@B ⊙ M), so the upstream gradient is the mask M itself:
    // dA = M·Bᵀ runs the NT kernel (dot_lanes order, one dot per element)
    // and dB = Aᵀ·M runs packed-transpose + the NN kernel (fmadd chains
    // ascending over the row index).
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a0, b0) = seeded_pair(m, k, n, 60 + si as u64);
        let mut rng = seeded_rng(80 + si as u64);
        let mask = Tensor::randn([m, n], 1.0, &mut rng);
        let g = mask.to_vec();

        let mut want_da = vec![0.0f32; m * k];
        for i in 0..m {
            for kk in 0..k {
                want_da[i * k + kk] =
                    dot_lanes_reference(&g[i * n..(i + 1) * n], &b0[kk * n..(kk + 1) * n]);
            }
        }
        let mut want_db = vec![0.0f32; k * n];
        for kk in 0..k {
            for j in 0..n {
                let mut acc = 0.0f32;
                for i in 0..m {
                    acc = fmadd(a0[i * k + kk], g[i * n + j], acc);
                }
                want_db[kk * n + j] = acc;
            }
        }

        for threads in [1, 2, 5] {
            let (da, db) = with_threads(threads, || {
                let a = Tensor::param(a0.clone(), [m, k]);
                let b = Tensor::param(b0.clone(), [k, n]);
                a.matmul(&b).mul(&mask).sum().backward();
                (a.grad().expect("dA"), b.grad().expect("dB"))
            });
            assert_bits_eq(
                &da,
                &want_da,
                &format!("NT dA {m}x{k}x{n} threads={threads}"),
            );
            assert_bits_eq(
                &db,
                &want_db,
                &format!("TN dB {m}x{k}x{n} threads={threads}"),
            );
        }
    }
}

/// Scalar restatement of the lane-class NT kernel (`mm_nt_row_block`):
/// `out[i, j] = 0 + Σ_kk a[i, kk] · b[j, kk]` for `a` `[m, k]` and `b`
/// `[n, k]`. For each group of 8 consecutive outputs, lane class `l` (the
/// elements `kk ≡ l mod 8`) of each output accumulates ascending with
/// fmadd, the 8 classes combine through the fixed tree
/// `((c0+c1)+(c2+c3)) + ((c4+c5)+(c6+c7))`, and the `k % 8` tail folds
/// ascending with fmadd; outputs past the last whole group of 8 take the
/// `dot_lanes` order of their row pair. Plain loops over plain arrays: no
/// packing, no `F32x8`.
fn nt_lane_class_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let k8 = k / 8 * 8;
    let n8 = n / 8 * 8;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j0 in (0..n8).step_by(8) {
            // acc[l][o]: lane class l of output j0 + o.
            let mut acc = [[0.0f32; 8]; 8];
            for t in (0..k8).step_by(8) {
                for (l, class) in acc.iter_mut().enumerate() {
                    for (o, c) in class.iter_mut().enumerate() {
                        *c = fmadd(a_row[t + l], b[(j0 + o) * k + t + l], *c);
                    }
                }
            }
            for o in 0..8 {
                let c = |l: usize| acc[l][o];
                let mut sum = ((c(0) + c(1)) + (c(2) + c(3))) + ((c(4) + c(5)) + (c(6) + c(7)));
                for kk in k8..k {
                    sum = fmadd(a_row[kk], b[(j0 + o) * k + kk], sum);
                }
                out[i * n + j0 + o] = 0.0 + sum;
            }
        }
        for j in n8..n {
            out[i * n + j] = 0.0 + dot_lanes_reference(a_row, &b[j * k..(j + 1) * k]);
        }
    }
    out
}

/// The NT shapes of the lane-class sweep: `(m, k, n)` rows, contraction
/// length and outputs, each in `0..=17`, so every row pair, row tail,
/// column group, column tail and `k % 8` tail occurs, empty ones included.
fn nt_sweep() -> impl Iterator<Item = (usize, usize, usize)> {
    (0..=17).flat_map(|m| (0..=17).flat_map(move |k| (0..=17).map(move |n| (m, k, n))))
}

/// `a` `[m, k]` and `b` `[n, k]` of one sweep shape.
fn nt_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let seed = (m * 400 + k * 20 + n) as u64;
    let mut rng = seeded_rng(seed);
    (
        Tensor::randn([m * k], 1.0, &mut rng).to_vec(),
        Tensor::randn([n * k], 1.0, &mut rng).to_vec(),
    )
}

#[test]
fn nt_lane_class_kernel_matches_scalar_reference() {
    // The lane-class order moves no bit against per-element `dot_lanes`,
    // and the NT kernel (the `dA = g·Bᵀ` adjoint of a matmul, here with
    // `g` the `[m, k]` operand and `B` the `[n, k]` one) gives it at 1 and
    // 2 threads.
    for (m, k, n) in nt_sweep() {
        let (g, b) = nt_operands(m, k, n);
        let want = nt_lane_class_reference(&g, &b, m, k, n);
        let mut per_dot = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                per_dot[i * n + j] =
                    0.0 + dot_lanes_reference(&g[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
        }
        assert_bits_eq(&want, &per_dot, &format!("reference m{m} k{k} n{n}"));
        let mask = Tensor::from_vec(g.clone(), [m, k]);
        for threads in [1, 2] {
            let da = with_threads(threads, || {
                // C = A·B with A `[m, n]` and B `[n, k]` stored as `b`
                // `[n, k]`; loss = sum(C ⊙ g), so dA = g·Bᵀ.
                let a = Tensor::param(vec![0.5; m * n], [m, n]);
                let bt = Tensor::from_vec(b.clone(), [n, k]);
                a.matmul(&bt).mul(&mask).sum().backward();
                a.grad().expect("dA")
            });
            assert_bits_eq(&da, &want, &format!("NT m{m} k{k} n{n} threads={threads}"));
        }
    }
}

#[test]
fn planned_nt_adjoint_matches_lane_class_reference() {
    // The same sweep through a planned training step: the plan's `dA`
    // adjoint packs B into its arena panel and runs the lane-class kernel.
    let spec = PlanSpec {
        input_label: "g".to_string(),
        ..PlanSpec::default()
    };
    for (m, k, n) in nt_sweep() {
        let (g, b) = nt_operands(m, k, n);
        let want = nt_lane_class_reference(&g, &b, m, k, n);
        let a = Tensor::param(vec![0.5; m * n], [m, n]);
        let bt = Tensor::param(b.clone(), [n, k]);
        let (gt, y) = (Tensor::zeros([m, k]), Tensor::zeros([1]));
        let mut rec = Recorder::new();
        rec.param("a", &a, false);
        rec.param("b", &bt, false);
        rec.name("g", &gt);
        rec.name("y", &y);
        let loss = record(|| a.matmul(&bt).mul(&gt).sum().add(&y.sum()));
        let root = rec.replay(&[&loss]).expect("replays").remove(0);
        let optimizer = PlanOptimizer::AdamW {
            lr: 0.0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        };
        let plan = Plan::compile_training(&root, &spec, &TrainSpec::new("y", optimizer))
            .expect("training plan compiles");
        let a_vid = plan
            .values()
            .iter()
            .position(|v| v.source == ValueSource::Param && v.label == "a")
            .expect("a is bound");
        let grad = plan
            .values()
            .iter()
            .position(|v| v.adjoint_of == Some(a_vid))
            .expect("a has a gradient");
        let (off, len) = plan.arena_range(grad).expect("dA lives in the arena");
        for threads in [1, 2] {
            let da = with_threads(threads, || {
                let mut exec = TrainExecutor::new(&plan, |label, _| match label {
                    "a" => Some(vec![0.5; m * n]),
                    "b" => Some(b.clone()),
                    _ => None,
                })
                .expect("binds");
                exec.run_train_step(&g, &[0.0]);
                exec.arena_value(off, len).to_vec()
            });
            assert_bits_eq(
                &da,
                &want,
                &format!("planned NT m{m} k{k} n{n} threads={threads}"),
            );
        }
    }
}

/// `|got − want|` in units of the last place of the f32 grid at `want`
/// (a normal-range reference).
fn ulp_error(got: f32, want: f64) -> f64 {
    let exponent = ((want.abs().to_bits() >> 52) & 0x7ff) as i32 - 1023;
    let ulp = f64::from_bits(((exponent - 23 + 1023) as u64) << 52);
    (got as f64 - want).abs() / ulp
}

/// Seeded inputs spread over the whole finite f32 range: uniform random
/// bit patterns (every binade equally likely), uniform draws over
/// `[lo, hi)` (the interesting range of the function), and a fixed grid
/// through zero.
fn spread_inputs(seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut xs = Vec::new();
    while xs.len() < 100_000 {
        let x = f32::from_bits(rng.next_u64() as u32);
        if x.is_finite() {
            xs.push(x);
        }
    }
    xs.extend((0..100_000).map(|_| rng.gen_range(lo..hi)));
    xs.extend((-2000..=2000).map(|i| i as f32 * 1e-3));
    xs
}

/// Largest error of `f` against `reference` over the inputs whose
/// reference value is a normal f32, and the input it occurs at.
fn worst_ulp(xs: &[f32], f: impl Fn(f32) -> f32, reference: impl Fn(f64) -> f64) -> (f64, f32) {
    let mut worst = (0.0f64, 0.0f32);
    for &x in xs {
        let want = reference(x as f64);
        if !(want.abs() >= f32::MIN_POSITIVE as f64 && want.abs() <= f32::MAX as f64) {
            continue;
        }
        let e = ulp_error(f(x), want);
        if e > worst.0 {
            worst = (e, x);
        }
    }
    worst
}

#[test]
fn pinned_exp_is_within_two_ulp_over_the_finite_range() {
    let xs = spread_inputs(0xE4B, EXP_LO, EXP_HI);
    let (err, at) = worst_ulp(&xs, simd::exp, f64::exp);
    assert!(err <= 2.0, "exp: {err} ULP at {at:e}");
    // Below the cut-off the result is +0, never a subnormal.
    for &x in xs.iter().filter(|&&x| x < EXP_LO) {
        assert_eq!(simd::exp(x).to_bits(), 0, "exp({x:e})");
    }
}

#[test]
fn pinned_tanh_is_within_two_ulp_over_the_finite_range() {
    let xs = spread_inputs(0x7A4, -10.0, 10.0);
    let (err, at) = worst_ulp(&xs, simd::tanh, f64::tanh);
    assert!(err <= 2.0, "tanh: {err} ULP at {at:e}");
}

#[test]
fn pinned_exp_and_tanh_special_values() {
    let exp = |x: f32| simd::exp(x).to_bits();
    assert!(simd::exp(f32::NAN).is_nan());
    assert!(simd::exp(-f32::NAN).is_nan());
    assert_eq!(exp(f32::INFINITY), f32::INFINITY.to_bits());
    assert_eq!(exp(f32::NEG_INFINITY), 0.0f32.to_bits(), "-inf gives +0");
    assert_eq!(exp(-1e9), 0.0f32.to_bits(), "a forbidden key gives +0");
    assert_eq!(exp(f32::MIN), 0.0f32.to_bits());
    assert_eq!(exp(0.0), 1.0f32.to_bits());
    assert_eq!(exp(-0.0), 1.0f32.to_bits());
    // Overflow: EXP_HI is the last finite result, its successor gives inf.
    let hi = simd::exp(EXP_HI);
    assert!(hi.is_finite() && hi > 3.4e38, "exp(EXP_HI) = {hi:e}");
    let past_hi = f32::from_bits(EXP_HI.to_bits() + 1);
    assert_eq!(exp(past_hi), f32::INFINITY.to_bits());
    assert_eq!(exp(1e9), f32::INFINITY.to_bits());
    assert_eq!(exp(f32::MAX), f32::INFINITY.to_bits());
    // Underflow cut-off: EXP_LO still gives a normal float, the next
    // float below it gives exactly +0.
    let lo = simd::exp(EXP_LO);
    assert!(lo >= f32::MIN_POSITIVE, "exp(EXP_LO) = {lo:e} is subnormal");
    let below_lo = f32::from_bits(EXP_LO.to_bits() + 1);
    assert!(below_lo < EXP_LO);
    assert_eq!(exp(below_lo), 0.0f32.to_bits());

    let tanh = |x: f32| simd::tanh(x).to_bits();
    assert!(simd::tanh(f32::NAN).is_nan());
    assert_eq!(tanh(f32::INFINITY), 1.0f32.to_bits());
    assert_eq!(tanh(f32::NEG_INFINITY), (-1.0f32).to_bits());
    assert_eq!(tanh(1e9), 1.0f32.to_bits());
    assert_eq!(tanh(-1e9), (-1.0f32).to_bits());
    assert_eq!(tanh(0.0), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0), (-0.0f32).to_bits());
    assert_eq!(tanh(f32::MIN_POSITIVE), f32::MIN_POSITIVE.to_bits());
}

/// Row of length `n` mixing ordinary values, the special values and the
/// cut-off neighbourhoods, so every kind of element lands in both the
/// lane body and the scalar tail as `n` runs over 0..=33.
fn mixed_row(n: usize, rng: &mut SeededRng) -> Vec<f32> {
    const SPECIAL: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -1e9,
        EXP_LO,
        EXP_HI,
        -0.0,
        0.625,
        -44.5,
        1e-30,
    ];
    (0..n)
        .map(|j| {
            if j % 5 == 3 {
                SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize]
            } else {
                rng.gen_range(-12.0f32..12.0)
            }
        })
        .collect()
}

#[test]
fn lane_body_and_scalar_tail_give_the_same_bits_at_every_length() {
    let mut rng = SeededRng::seed_from_u64(33);
    for n in 0..=33usize {
        let x = mixed_row(n, &mut rng);
        let shift = rng.gen_range(-3.0f32..3.0);
        let expect =
            |f: &dyn Fn(f32) -> f32| -> Vec<u32> { x.iter().map(|&v| f(v).to_bits()).collect() };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|f| f.to_bits()).collect() };

        let mut out = vec![0.0f32; n];
        simd::map_lanes([&x], &mut out, |[v]| simd::exp(v));
        assert_eq!(bits(&out), expect(&simd::exp), "map exp n={n}");
        simd::map_lanes([&x], &mut out, |[v]| simd::tanh(v));
        assert_eq!(bits(&out), expect(&simd::tanh), "map tanh n={n}");
        let mut row = x.clone();
        simd::update_lanes(&mut row, |v| simd::exp(v - shift));
        assert_eq!(
            bits(&row),
            expect(&|v| simd::exp(v - shift)),
            "update exp(x - shift) n={n}"
        );

        // The routed tensor ops run the same kernels.
        let t = Tensor::from_vec(x.clone(), [n]);
        assert_eq!(
            bits(&t.exp().to_vec()),
            expect(&simd::exp),
            "Tensor::exp n={n}"
        );
        assert_eq!(
            bits(&t.tanh().to_vec()),
            expect(&simd::tanh),
            "Tensor::tanh n={n}"
        );
        let sigmoid = |v: f32| 1.0 / (1.0 + simd::exp(-v));
        assert_eq!(
            bits(&t.sigmoid().to_vec()),
            expect(&sigmoid),
            "Tensor::sigmoid n={n}"
        );
    }
}

#[test]
fn softmax_rows_use_the_pinned_exp_at_every_length() {
    // Finite rows only: softmax of a row holding NaN or +inf is NaN.
    let mut rng = SeededRng::seed_from_u64(34);
    for n in 1..=33usize {
        let x: Vec<f32> = (0..n)
            .map(|j| {
                if j % 7 == 2 {
                    -1e9
                } else {
                    rng.gen_range(-8.0f32..8.0)
                }
            })
            .collect();
        let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let e: Vec<f32> = x.iter().map(|&v| simd::exp(v - m)).collect();
        let mut denom = 0.0f32;
        for &v in &e {
            denom += v;
        }
        let inv = 1.0 / denom;
        let want: Vec<f32> = e.iter().map(|&v| v * inv).collect();
        let got = Tensor::from_vec(x.clone(), [1, n]).softmax_last().to_vec();
        assert_bits_eq(&got, &want, &format!("softmax_last n={n}"));
        for (j, &p) in got.iter().enumerate() {
            if x[j] == -1e9 {
                assert_eq!(p.to_bits(), 0, "masked key n={n} j={j}");
            }
        }
    }
}
