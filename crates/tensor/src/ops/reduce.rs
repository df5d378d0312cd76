//! Reductions: full and per-axis sums and means.

use crate::ops::kernels::{sum_axis_block, sum_axis_bwd_block, AxisSplit};
use crate::shape::Shape;
use crate::symbolic::SymAttr;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements, as a scalar tensor.
    pub fn sum(&self) -> Tensor {
        let total: f32 = self.data().iter().sum();
        Tensor::from_op(
            "sum",
            vec![total],
            Shape::scalar(),
            vec![self.clone()],
            Box::new(|grad, parents| {
                let x = &parents[0];
                if x.requires_grad() {
                    x.accumulate_grad(&vec![grad[0]; x.num_elements()]);
                }
            }),
        )
    }

    /// Mean of all elements, as a scalar tensor.
    pub fn mean(&self) -> Tensor {
        let n = self.num_elements();
        assert!(n > 0, "mean of empty tensor");
        self.sum().mul_scalar(1.0 / n as f32)
    }

    /// Sums along `axis`. With `keepdim` the axis is retained with size 1
    /// (useful for broadcasting the result back).
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let rank = self.shape().rank();
        assert!(
            axis < rank,
            "sum_axis: axis {axis} out of range for {}",
            self.shape()
        );
        let dims = self.dims().to_vec();
        let split = AxisSplit::new(&dims, axis);
        let mut out = vec![0.0f32; split.outer * split.inner];
        sum_axis_block(&self.data(), &mut out, split);
        let mut out_dims = dims;
        if keepdim {
            out_dims[axis] = 1;
        } else {
            out_dims.remove(axis);
        }
        Tensor::from_op(
            "sum_axis",
            out,
            Shape::new(out_dims),
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                if !x.requires_grad() {
                    return;
                }
                let mut gx = vec![0.0f32; x.num_elements()];
                sum_axis_bwd_block(grad, &mut gx, split);
                x.accumulate_grad(&gx);
            }),
        )
        .with_rec(|| SymAttr::Axis { axis, keepdim })
    }

    /// Means along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let count = self.dims()[axis];
        assert!(count > 0, "mean_axis over empty axis");
        self.sum_axis(axis, keepdim).mul_scalar(1.0 / count as f32)
    }

    /// Population variance along `axis` (the normalisation used by layer
    /// norm).
    pub fn var_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let mu = self.mean_axis(axis, true);
        let centered = self.sub(&mu);

        centered.square().mean_axis(axis, keepdim)
    }

    /// Maximum over all elements (no gradient; used for diagnostics and
    /// numerically stable kernels).
    pub fn max_value(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum over all elements (no gradient).
    pub fn min_value(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.sum().item(), 10.0);
        assert_eq!(t.mean().item(), 2.5);
    }

    #[test]
    fn sum_backward_is_ones() {
        let p = Tensor::param(vec![5.0; 4], [2, 2]);
        p.sum().backward();
        assert_eq!(p.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn mean_backward_scaled() {
        let p = Tensor::param(vec![5.0; 4], [4]);
        p.mean().backward();
        assert_eq!(p.grad().unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn sum_axis0() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let s = t.sum_axis(0, false);
        assert_eq!(s.dims(), &[3]);
        assert_eq!(s.to_vec(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_axis1_keepdim() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let s = t.sum_axis(1, true);
        assert_eq!(s.dims(), &[2, 1]);
        assert_eq!(s.to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn sum_middle_axis() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]);
        let s = t.sum_axis(1, false);
        assert_eq!(s.dims(), &[2, 4]);
        // out[0,0] = t[0,0,0]+t[0,1,0]+t[0,2,0] = 0+4+8
        assert_eq!(s.at(&[0, 0]), 12.0);
        assert_eq!(s.at(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn sum_axis_backward() {
        let p = Tensor::param(vec![1.0; 6], [2, 3]);
        p.sum_axis(1, false).sum().backward();
        assert_eq!(p.grad().unwrap(), vec![1.0; 6]);
    }

    #[test]
    fn mean_axis_values() {
        let t = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], [2, 2]);
        assert_eq!(t.mean_axis(1, false).to_vec(), vec![3.0, 7.0]);
    }

    #[test]
    fn var_axis_values() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 2.0, 2.0], [2, 2]);
        let v = t.var_axis(1, false).to_vec();
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!((v[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn var_axis_grad_flows() {
        let p = Tensor::param(vec![1.0, 3.0], [1, 2]);
        p.var_axis(1, false).sum().backward();
        let g = p.grad().unwrap();
        // d var/dx_i = 2 (x_i - mu) / n = [-1, 1]
        assert!((g[0] + 1.0).abs() < 1e-5);
        assert!((g[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn min_max_values() {
        let t = Tensor::from_vec(vec![-5.0, 3.0, 0.0], [3]);
        assert_eq!(t.max_value(), 3.0);
        assert_eq!(t.min_value(), -5.0);
    }
}
