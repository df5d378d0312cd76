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

use timekd_tensor::parallel::with_threads;
use timekd_tensor::simd::fmadd;
use timekd_tensor::{seeded_rng, Tensor};

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
