//! Reference equivalence for the f32x8 microkernels.
//!
//! The kernels promise *pinned* reduction orders (see
//! `timekd_tensor::simd`): NN products accumulate one ascending-`k` fused
//! multiply-add chain per output element, and NT/dot-style contractions
//! use the 8-lane blocked `dot_lanes` order. These tests restate both
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
use timekd_tensor::{seeded_rng, SeededRng, Tensor};

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
