//! Element-wise unary and binary operations with NumPy-style broadcasting.
//! The element formulas, their derivatives and the broadcast walk live in
//! [`super::kernels`]; this module builds the graph nodes around them.

use crate::ops::kernels::{
    binary_block, binary_bwd_block, broadcast_walk, unary_block, unary_bwd_block, BinKind, UnKind,
};
use crate::symbolic::SymAttr;
use crate::tensor::Tensor;

impl Tensor {
    /// Broadcasting binary op. Both passes walk the output in row-major
    /// order, so a broadcast operand's gradient accumulates in ascending
    /// output order.
    fn binary(&self, kind: BinKind, other: &Tensor) -> Tensor {
        let out_shape = self
            .shape()
            .broadcast_with(other.shape())
            .unwrap_or_else(|| {
                panic!(
                    "incompatible shapes for binary op: {} vs {}",
                    self.shape(),
                    other.shape()
                )
            });
        let walk = broadcast_walk(self.dims(), other.dims(), out_shape.dims());
        let mut out = vec![0.0f32; out_shape.num_elements()];
        binary_block(kind, &walk, &self.data(), &other.data(), &mut out);
        Tensor::from_op(
            kind.name(),
            out,
            out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |grad, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                let mut ga = a.requires_grad().then(|| vec![0.0f32; a.num_elements()]);
                let mut gb = b.requires_grad().then(|| vec![0.0f32; b.num_elements()]);
                binary_bwd_block(
                    kind,
                    &walk,
                    &a.data(),
                    &b.data(),
                    grad,
                    ga.as_deref_mut(),
                    gb.as_deref_mut(),
                );
                if let Some(ga) = ga {
                    a.accumulate_grad(&ga);
                }
                if let Some(gb) = gb {
                    b.accumulate_grad(&gb);
                }
            }),
        )
    }

    /// Element-wise unary op.
    fn unary(&self, kind: UnKind) -> Tensor {
        let mut out = vec![0.0f32; self.num_elements()];
        unary_block(kind, &self.data(), &mut out);
        // Only a tracked op keeps its backward, and only a derivative that
        // reads the output `y` needs it saved.
        let saved_out = if kind.reads_output() && Tensor::tracks(std::slice::from_ref(self)) {
            out.clone()
        } else {
            Vec::new()
        };
        Tensor::from_op(
            kind.name(),
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                if !x.requires_grad() {
                    return;
                }
                let mut gx = vec![0.0f32; grad.len()];
                unary_bwd_block(kind, &x.data(), &saved_out, grad, &mut gx);
                x.accumulate_grad(&gx);
            }),
        )
    }

    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary(BinKind::Add, other)
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary(BinKind::Sub, other)
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary(BinKind::Mul, other)
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary(BinKind::Div, other)
    }

    /// Element-wise Smooth-L1 (Huber, δ=1) loss per Eq. (17) of the paper:
    /// `0.5 d²` when `|d| < 1`, `|d| − 0.5` otherwise, where `d = self −
    /// target`.
    pub fn smooth_l1(&self, target: &Tensor) -> Tensor {
        self.binary(BinKind::SmoothL1, target)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.unary(UnKind::AddScalar(c))
            .with_rec(|| SymAttr::Scalar(c))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, c: f32) -> Tensor {
        self.unary(UnKind::MulScalar(c))
            .with_rec(|| SymAttr::Scalar(c))
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.mul_scalar(-1.0)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary(UnKind::Exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.unary(UnKind::Ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary(UnKind::Sqrt)
    }

    /// Element-wise reciprocal square root `1/√(x)`.
    pub fn rsqrt(&self) -> Tensor {
        self.unary(UnKind::Rsqrt)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.unary(UnKind::Square)
    }

    /// Element-wise absolute value. The gradient at 0 is defined as 0.
    pub fn abs(&self) -> Tensor {
        self.unary(UnKind::Abs)
    }

    /// Rectified linear unit `max(0, x)` as used by the paper's FFNs
    /// (Eq. 7).
    pub fn relu(&self) -> Tensor {
        self.unary(UnKind::Relu)
    }

    /// Gaussian error linear unit (tanh approximation), used by the GPT
    /// backbone.
    pub fn gelu(&self) -> Tensor {
        self.unary(UnKind::Gelu)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary(UnKind::Tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary(UnKind::Sigmoid)
    }

    /// Clamps values to `[lo, hi]`. Gradient is zero outside the range.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp: lo > hi");
        self.unary(UnKind::Clamp { lo, hi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn mul_backward() {
        let a = Tensor::param(vec![2.0, 3.0], [2]);
        let b = Tensor::param(vec![5.0, 7.0], [2]);
        a.mul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn broadcast_backward_reduces() {
        // b has shape [3], broadcast over 2 rows: grad should sum rows.
        let a = Tensor::param(vec![1.0; 6], [2, 3]);
        let b = Tensor::param(vec![1.0, 2.0, 3.0], [3]);
        a.mul(&b).sum().backward();
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0, 2.0]);
        assert_eq!(a.grad().unwrap(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn div_values_and_grad() {
        let a = Tensor::param(vec![6.0], [1]);
        let b = Tensor::param(vec![3.0], [1]);
        let y = a.div(&b);
        assert_eq!(y.to_vec(), vec![2.0]);
        y.sum().backward();
        assert_close(&a.grad().unwrap(), &[1.0 / 3.0], 1e-6);
        assert_close(&b.grad().unwrap(), &[-6.0 / 9.0], 1e-6);
    }

    #[test]
    fn smooth_l1_regions() {
        let a = Tensor::from_vec(vec![0.5, 3.0, -2.0, 0.0], [4]);
        let b = Tensor::zeros([4]);
        let l = a.smooth_l1(&b);
        assert_close(&l.to_vec(), &[0.125, 2.5, 1.5, 0.0], 1e-6);
    }

    #[test]
    fn smooth_l1_grad_clipped() {
        let a = Tensor::param(vec![0.5, 3.0, -2.0], [3]);
        let b = Tensor::zeros([3]);
        a.smooth_l1(&b).sum().backward();
        assert_close(&a.grad().unwrap(), &[0.5, 1.0, -1.0], 1e-6);
    }

    #[test]
    fn relu_forward_backward() {
        let a = Tensor::param(vec![-1.0, 0.0, 2.0], [3]);
        let y = a.relu();
        assert_eq!(y.to_vec(), vec![0.0, 0.0, 2.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn exp_ln_inverse() {
        let a = Tensor::from_vec(vec![0.5, 1.0, 2.0], [3]);
        let y = a.exp().ln();
        assert_close(&y.to_vec(), &a.to_vec(), 1e-5);
    }

    #[test]
    fn sigmoid_range() {
        let a = Tensor::from_vec(vec![-100.0, 0.0, 100.0], [3]);
        let y = a.sigmoid().to_vec();
        assert!(y[0] >= 0.0 && y[0] < 1e-6);
        assert!((y[1] - 0.5).abs() < 1e-6);
        assert!(y[2] > 1.0 - 1e-6 && y[2] <= 1.0);
    }

    #[test]
    fn gelu_known_values() {
        let a = Tensor::from_vec(vec![0.0, 1.0, -1.0], [3]);
        let y = a.gelu().to_vec();
        assert!((y[0] - 0.0).abs() < 1e-6);
        assert!((y[1] - 0.8412).abs() < 1e-3);
        assert!((y[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn clamp_grad_mask() {
        let a = Tensor::param(vec![-2.0, 0.5, 2.0], [3]);
        a.clamp(-1.0, 1.0).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 4]);
        let _ = a.add(&b);
    }

    #[test]
    fn trailing_broadcast_fast_path_matches_general() {
        // [2,3,4] + [3,4] exercises the i % len fast path; compare against
        // an explicitly materialised broadcast.
        let a = Tensor::param((0..24).map(|x| x as f32).collect(), [2, 3, 4]);
        let b = Tensor::param((0..12).map(|x| x as f32 * 0.5).collect(), [3, 4]);
        let fast = a.mul(&b);
        let slow = a.mul(&b.broadcast_to([2, 3, 4]));
        assert_eq!(fast.to_vec(), slow.to_vec());
        fast.sum().backward();
        let gb_fast = b.grad().unwrap();
        a.zero_grad();
        b.zero_grad();
        slow.sum().backward();
        assert_eq!(gb_fast, b.grad().unwrap());
    }

    #[test]
    fn scalar_broadcast_both_ways() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let s = Tensor::scalar(10.0);
        assert_eq!(a.add(&s).to_vec(), vec![11.0, 12.0]);
        assert_eq!(s.add(&a).to_vec(), vec![11.0, 12.0]);
    }
}
