//! Numerically stable softmax and log-softmax along the last axis. The
//! exponentials are the pinned [`crate::simd::exp`]; the log-sum-exp's `ln` is
//! libm's.

use crate::ops::kernels::{
    log_softmax_block, log_softmax_bwd_block, softmax_block, softmax_bwd_block,
};
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Softmax over the last axis.
    ///
    /// Rows are shifted by their maximum before exponentiation, so rows
    /// containing large negative attention biases (e.g. the causal `-inf`
    /// approximation `-1e9`) stay finite.
    pub fn softmax_last(&self) -> Tensor {
        let rank = self.shape().rank();
        assert!(rank >= 1, "softmax on a scalar");
        let c = self.dims()[rank - 1];
        let mut out = vec![0.0f32; self.num_elements()];
        softmax_block(&self.data(), &mut out, c);
        let saved = Tensor::tracks(std::slice::from_ref(self)).then(|| out.clone());
        Tensor::from_op(
            "softmax_last",
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                let Some(y) = &saved else {
                    unreachable!("tracked softmax_last saves its output")
                };
                let mut gx = vec![0.0f32; grad.len()];
                softmax_bwd_block(y, grad, &mut gx, c);
                x.accumulate_grad(&gx);
            }),
        )
    }

    /// Log-softmax over the last axis (for cross-entropy). The forward and
    /// its adjoint are the shared `log_softmax_block` kernels; the
    /// backward recomputes the probabilities from the saved output.
    pub fn log_softmax_last(&self) -> Tensor {
        let rank = self.shape().rank();
        assert!(rank >= 1, "log_softmax on a scalar");
        let c = self.dims()[rank - 1];
        let mut out = vec![0.0f32; self.num_elements()];
        log_softmax_block(&self.data(), &mut out, c);
        let saved = Tensor::tracks(std::slice::from_ref(self)).then(|| out.clone());
        Tensor::from_op(
            "log_softmax_last",
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                let Some(y) = &saved else {
                    unreachable!("tracked log_softmax_last saves its output")
                };
                let mut gx = vec![0.0f32; grad.len()];
                log_softmax_bwd_block(y, grad, &mut gx, c);
                x.accumulate_grad(&gx);
            }),
        )
    }

    /// Mean negative log-likelihood of `targets` (a constant `[R]` id
    /// tensor, see [`Tensor::indices`]) under `self` treated as logits of
    /// shape `[R, C]` (rows = positions, C = classes).
    pub fn cross_entropy(&self, targets: &Tensor) -> Tensor {
        let rank = self.shape().rank();
        let c = self.dims()[rank - 1];
        let rows = self.num_elements() / c;
        assert_eq!(
            targets.num_elements(),
            rows,
            "cross_entropy: one target per row"
        );
        // Only a tensor that is not already `[R, C]` needs the reshape.
        let flat = if self.dims() == [rows, c] {
            self.clone()
        } else {
            self.reshape(Shape::new([rows, c]))
        };
        flat.log_softmax_last().gather_last(targets).mean().neg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let y = t.softmax_last();
        let v = y.to_vec();
        assert!(close(v[0] + v[1] + v[2], 1.0));
        assert!(close(v[3] + v[4] + v[5], 1.0));
        // Monotone in logits.
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn softmax_stable_with_large_negatives() {
        let t = Tensor::from_vec(vec![0.0, -1e9, -1e9], [1, 3]);
        let v = t.softmax_last().to_vec();
        assert!(close(v[0], 1.0));
        assert!(close(v[1], 0.0));
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let b = a.add_scalar(100.0);
        let va = a.softmax_last().to_vec();
        let vb = b.softmax_last().to_vec();
        for (x, y) in va.iter().zip(&vb) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // Softmax output is shift-invariant, so row gradients sum to 0.
        let p = Tensor::param(vec![0.3, -0.1, 0.7], [1, 3]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0], [1, 3]);
        p.softmax_last().mul(&w).sum().backward();
        let g = p.grad().unwrap();
        assert!(close(g.iter().sum::<f32>(), 0.0));
        assert!(g[0] > 0.0 && g[1] < 0.0 && g[2] < 0.0);
    }

    #[test]
    fn log_softmax_matches_ln_softmax() {
        let t = Tensor::from_vec(vec![0.5, -0.3, 2.0, 0.0], [2, 2]);
        let a = t.softmax_last().ln().to_vec();
        let b = t.log_softmax_last().to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0, 0.0, 100.0, 0.0], [2, 3]);
        let loss = logits.cross_entropy(&Tensor::indices(&[0, 1]));
        assert!(loss.item() < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_ln_c() {
        let logits = Tensor::zeros([4, 5]);
        let loss = logits.cross_entropy(&Tensor::indices(&[0, 1, 2, 3]));
        assert!(close(loss.item(), (5.0f32).ln()));
    }

    #[test]
    fn cross_entropy_grad_direction() {
        // Gradient should push the target logit up (negative grad).
        let p = Tensor::param(vec![0.0, 0.0, 0.0], [1, 3]);
        p.cross_entropy(&Tensor::indices(&[1])).backward();
        let g = p.grad().unwrap();
        assert!(g[1] < 0.0);
        assert!(g[0] > 0.0 && g[2] > 0.0);
        assert!(close(g.iter().sum::<f32>(), 0.0));
    }

    #[test]
    fn softmax_3d_rows_independent() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32 * 0.1).collect(), [2, 2, 3]);
        let y = t.softmax_last().to_vec();
        for r in 0..4 {
            let s: f32 = y[r * 3..(r + 1) * 3].iter().sum();
            assert!(close(s, 1.0));
        }
    }
}
