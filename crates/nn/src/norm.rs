//! Normalisation layers: [`LayerNorm`] (paper Eq. 6) and [`RevIn`]
//! (reversible instance normalisation, Kim et al. 2022, used by the TimeKD
//! student).

use timekd_tensor::Tensor;

use crate::module::{Module, ParamVisitor};

/// Layer normalisation over the last axis with learnable gain/offset,
/// matching Eq. (6): `LN(x) = γ ⊙ (x − μ)/σ + β`.
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
    dim: usize,
}

impl LayerNorm {
    /// Creates a layer norm over a last axis of width `dim`.
    pub fn new(dim: usize) -> LayerNorm {
        LayerNorm {
            gamma: Tensor::ones_param([dim]),
            beta: Tensor::zeros_param([dim]),
            eps: 1e-5,
            dim,
        }
    }

    /// Normalises the last axis of `x` (rank ≥ 1, last dim = `dim`).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let rank = x.shape().rank();
        assert_eq!(
            x.dims()[rank - 1],
            self.dim,
            "LayerNorm: last dim {} != {}",
            x.dims()[rank - 1],
            self.dim
        );
        let mu = x.mean_axis(rank - 1, true);
        let centered = x.sub(&mu);
        let var = centered.square().mean_axis(rank - 1, true);
        let inv_std = var.add_scalar(self.eps).rsqrt();
        centered.mul(&inv_std).mul(&self.gamma).add(&self.beta)
    }
}

impl Module for LayerNorm {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.param("gamma", &self.gamma);
        v.param("beta", &self.beta);
    }
}

/// Statistics captured by [`RevIn::normalize`], needed to invert the
/// transform after forecasting.
#[derive(Clone)]
pub struct RevInStats {
    mean: Vec<f32>,
    std: Vec<f32>,
}

/// Reversible instance normalisation.
///
/// Normalises each variable of one window `[T, N]` by its own mean/std over
/// time, applies a learnable per-variable affine, and can exactly invert the
/// transform on the model output — the mechanism the student model uses to
/// be robust to distribution shift.
pub struct RevIn {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
    num_vars: usize,
}

impl RevIn {
    /// RevIN over `num_vars` channels.
    pub fn new(num_vars: usize) -> RevIn {
        RevIn {
            gamma: Tensor::ones_param([num_vars]),
            beta: Tensor::zeros_param([num_vars]),
            eps: 1e-5,
            num_vars,
        }
    }

    /// Normalises a `[T, N]` window per channel; returns the transformed
    /// window and the statistics for [`RevIn::denormalize`].
    pub fn normalize(&self, x: &Tensor) -> (Tensor, RevInStats) {
        assert_eq!(x.shape().rank(), 2, "RevIn expects [T, N]");
        assert_eq!(x.dims()[1], self.num_vars, "RevIn: wrong channel count");
        let t = x.dims()[0];
        // Instance statistics are data, not graph: compute outside autograd.
        let data = x.data();
        let n = self.num_vars;
        let mut mean = vec![0.0f32; n];
        let mut std = vec![0.0f32; n];
        for j in 0..n {
            let mut s = 0.0f32;
            for i in 0..t {
                s += data[i * n + j];
            }
            let mu = s / t as f32;
            let mut v = 0.0f32;
            for i in 0..t {
                let d = data[i * n + j] - mu;
                v += d * d;
            }
            mean[j] = mu;
            std[j] = (v / t as f32 + self.eps).sqrt();
        }
        drop(data);
        let mu_t = Tensor::from_vec(mean.clone(), [1, n]).named("mu", &self.gamma);
        let std_t = Tensor::from_vec(std.clone(), [1, n]).named("std", &self.gamma);
        let normed = x.sub(&mu_t).div(&std_t).mul(&self.gamma).add(&self.beta);
        (normed, RevInStats { mean, std })
    }

    /// Inverts [`RevIn::normalize`] on a `[M, N]` forecast.
    pub fn denormalize(&self, y: &Tensor, stats: &RevInStats) -> Tensor {
        assert_eq!(y.shape().rank(), 2, "RevIn expects [M, N]");
        let n = self.num_vars;
        assert_eq!(y.dims()[1], n, "RevIn: wrong channel count");
        let mu_t = Tensor::from_vec(stats.mean.clone(), [1, n]).named("mu", &self.gamma);
        let std_t = Tensor::from_vec(stats.std.clone(), [1, n]).named("std", &self.gamma);
        y.sub(&self.beta).div(&self.gamma).mul(&std_t).add(&mu_t)
    }
}

impl Module for RevIn {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.param("gamma", &self.gamma);
        v.param("beta", &self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let mut rng = seeded_rng(0);
        let ln = LayerNorm::new(16);
        let x = Tensor::randn([4, 16], 3.0, &mut rng).add_scalar(5.0);
        let y = ln.forward(&x);
        let v = y.to_vec();
        for r in 0..4 {
            let row = &v[r * 16..(r + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layernorm_respects_affine() {
        let ln = LayerNorm::new(2);
        ln.params()[0].copy_from_slice(&[2.0, 2.0]);
        ln.params()[1].copy_from_slice(&[1.0, 1.0]);
        let x = Tensor::from_vec(vec![-1.0, 1.0], [1, 2]);
        let y = ln.forward(&x).to_vec();
        // normalized x is [-1, 1] (population std), so y = 2*(-1,1)+1.
        assert!((y[0] + 1.0).abs() < 1e-3);
        assert!((y[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_grad_check() {
        let mut rng = seeded_rng(1);
        let ln = LayerNorm::new(4);
        let x = Tensor::randn_param([3, 4], 1.0, &mut rng);
        timekd_tensor::assert_gradients_close(&x, || ln.forward(&x).square().mean(), 1e-2);
        let g = ln.params()[0].clone();
        timekd_tensor::assert_gradients_close(&g, || ln.forward(&x).square().mean(), 1e-2);
    }

    #[test]
    fn revin_round_trip_identity() {
        let mut rng = seeded_rng(2);
        let revin = RevIn::new(3);
        let x = Tensor::randn([10, 3], 2.0, &mut rng).add_scalar(7.0);
        let (normed, stats) = revin.normalize(&x);
        let back = revin.denormalize(&normed, &stats);
        for (a, b) in back.to_vec().iter().zip(x.to_vec()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn revin_normalized_channels_standard() {
        let mut rng = seeded_rng(3);
        let revin = RevIn::new(2);
        let x = Tensor::randn([50, 2], 5.0, &mut rng).add_scalar(-3.0);
        let (normed, _) = revin.normalize(&x);
        let v = normed.to_vec();
        for j in 0..2 {
            let col: Vec<f32> = (0..50).map(|i| v[i * 2 + j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 50.0;
            let var: f32 = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 50.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn revin_shifts_do_not_leak() {
        // Two windows with very different offsets should normalise to the
        // same values — the distribution-shift robustness RevIN provides.
        let revin = RevIn::new(1);
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3, 1]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], [3, 1]);
        let (na, _) = revin.normalize(&a);
        let (nb, _) = revin.normalize(&b);
        for (x, y) in na.to_vec().iter().zip(nb.to_vec()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn revin_grads_flow_through_affine() {
        let revin = RevIn::new(2);
        let x = Tensor::from_vec(vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0], [3, 2]);
        let (normed, _) = revin.normalize(&x);
        normed.square().mean().backward();
        assert!(revin.params()[0].grad().is_some());
        assert!(revin.params()[1].grad().is_some());
    }
}
