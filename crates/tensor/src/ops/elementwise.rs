//! Element-wise unary and binary operations with NumPy-style broadcasting.

use crate::shape::{eff_strides, Shape};
use crate::symbolic::SymAttr;
use crate::tensor::Tensor;

/// The broadcast walk of a binary op, shared by its forward and backward:
/// output rows (the last axis) in row-major order, each with the offset of
/// the first element it reads from either operand. Along a row an operand
/// steps by 1, or by 0 where it broadcasts. The per-axis strides come from
/// [`eff_strides`], the mapping the plan executors use too. Operands with
/// the output's shape walk it as one row.
struct BroadcastRows {
    /// Output dims without the last axis.
    outer: Vec<usize>,
    a_str: Vec<usize>,
    b_str: Vec<usize>,
    len: usize,
    a_step: usize,
    b_step: usize,
}

impl BroadcastRows {
    fn new(a: &Shape, b: &Shape, out: &Shape) -> BroadcastRows {
        let dims = out.dims();
        if a == out && b == out || dims.is_empty() {
            return BroadcastRows {
                outer: Vec::new(),
                a_str: Vec::new(),
                b_str: Vec::new(),
                len: out.num_elements(),
                a_step: 1,
                b_step: 1,
            };
        }
        let last = dims.len() - 1;
        let a_str = eff_strides(a.dims(), dims);
        let b_str = eff_strides(b.dims(), dims);
        BroadcastRows {
            outer: dims[..last].to_vec(),
            a_step: a_str[last],
            b_step: b_str[last],
            a_str: a_str[..last].to_vec(),
            b_str: b_str[..last].to_vec(),
            len: dims[last],
        }
    }

    /// Calls `row(a_off, b_off, out_off)` for every output row, in order.
    fn for_each(&self, mut row: impl FnMut(usize, usize, usize)) {
        let rank = self.outer.len();
        let rows: usize = self.outer.iter().product();
        let mut idx = vec![0usize; rank];
        let (mut a_off, mut b_off) = (0usize, 0usize);
        for r in 0..rows {
            row(a_off, b_off, r * self.len);
            // Odometer increment over the outer axes.
            for ax in (0..rank).rev() {
                idx[ax] += 1;
                a_off += self.a_str[ax];
                b_off += self.b_str[ax];
                if idx[ax] < self.outer[ax] {
                    break;
                }
                a_off -= self.a_str[ax] * self.outer[ax];
                b_off -= self.b_str[ax] * self.outer[ax];
                idx[ax] = 0;
            }
        }
    }
}

impl Tensor {
    /// Generic broadcasting binary op.
    ///
    /// `f(a, b)` computes the forward value; `df(a, b, g)` returns the
    /// gradient contributions `(∂L/∂a, ∂L/∂b)` for one element given the
    /// upstream gradient `g`. Both passes visit the output in row-major
    /// order, so a broadcast operand's gradient accumulates in ascending
    /// output order.
    fn binary_op(
        &self,
        op: &'static str,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
        df: impl Fn(f32, f32, f32) -> (f32, f32) + 'static,
    ) -> Tensor {
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
        let walk = BroadcastRows::new(self.shape(), other.shape(), &out_shape);
        let a = self.data();
        let b = other.data();
        let mut out = Vec::with_capacity(out_shape.num_elements());
        let len = walk.len;
        walk.for_each(|ao, bo, _| match (walk.a_step, walk.b_step) {
            (1, 1) => out.extend(
                a[ao..ao + len]
                    .iter()
                    .zip(&b[bo..bo + len])
                    .map(|(&x, &y)| f(x, y)),
            ),
            (1, _) => {
                let y = b[bo];
                out.extend(a[ao..ao + len].iter().map(|&x| f(x, y)));
            }
            (_, 1) => {
                let x = a[ao];
                out.extend(b[bo..bo + len].iter().map(|&y| f(x, y)));
            }
            _ => out.extend(std::iter::repeat_n(f(a[ao], b[bo]), len)),
        });
        drop(a);
        drop(b);
        Tensor::from_op(
            op,
            out,
            out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |grad, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                let a_data = a.data();
                let b_data = b.data();
                let mut ga = vec![0.0f32; a.num_elements()];
                let mut gb = vec![0.0f32; b.num_elements()];
                let (sa, sb) = (walk.a_step, walk.b_step);
                walk.for_each(|ao, bo, o| {
                    for j in 0..walk.len {
                        let (ia, ib) = (ao + j * sa, bo + j * sb);
                        let (da, db) = df(a_data[ia], b_data[ib], grad[o + j]);
                        ga[ia] += da;
                        gb[ib] += db;
                    }
                });
                drop(a_data);
                drop(b_data);
                if a.requires_grad() {
                    a.accumulate_grad(&ga);
                }
                if b.requires_grad() {
                    b.accumulate_grad(&gb);
                }
            }),
        )
    }

    /// Generic unary op. `df(x, y, g)` receives the input, the output, and
    /// the upstream gradient.
    fn unary_op(
        &self,
        op: &'static str,
        f: impl Fn(f32) -> f32,
        df: impl Fn(f32, f32, f32) -> f32 + 'static,
    ) -> Tensor {
        let data = self.data();
        let out: Vec<f32> = data.iter().map(|&x| f(x)).collect();
        drop(data);
        // Only a tracked op keeps its backward, and only that reads `y`.
        let saved_out = if Tensor::tracks(std::slice::from_ref(self)) {
            out.clone()
        } else {
            Vec::new()
        };
        Tensor::from_op(
            op,
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                if !x.requires_grad() {
                    return;
                }
                let x_data = x.data();
                let gx: Vec<f32> = (0..grad.len())
                    .map(|i| df(x_data[i], saved_out[i], grad[i]))
                    .collect();
                drop(x_data);
                x.accumulate_grad(&gx);
            }),
        )
    }

    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary_op("add", other, |a, b| a + b, |_, _, g| (g, g))
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary_op("sub", other, |a, b| a - b, |_, _, g| (g, -g))
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary_op("mul", other, |a, b| a * b, |a, b, g| (g * b, g * a))
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary_op(
            "div",
            other,
            |a, b| a / b,
            |a, b, g| (g / b, -g * a / (b * b)),
        )
    }

    /// Element-wise Smooth-L1 (Huber, δ=1) loss per Eq. (17) of the paper:
    /// `0.5 d²` when `|d| < 1`, `|d| − 0.5` otherwise, where `d = self −
    /// target`.
    pub fn smooth_l1(&self, target: &Tensor) -> Tensor {
        self.binary_op(
            "smooth_l1",
            target,
            |a, b| {
                let d = a - b;
                if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            },
            |a, b, g| {
                let d = (a - b).clamp(-1.0, 1.0);
                (g * d, -g * d)
            },
        )
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.unary_op("add_scalar", move |x| x + c, |_, _, g| g)
            .with_rec(|| SymAttr::Scalar(c), || None)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, c: f32) -> Tensor {
        self.unary_op("mul_scalar", move |x| x * c, move |_, _, g| g * c)
            .with_rec(|| SymAttr::Scalar(c), || None)
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.mul_scalar(-1.0)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary_op("exp", |x| x.exp(), |_, y, g| g * y)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.unary_op("ln", |x| x.ln(), |x, _, g| g / x)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary_op("sqrt", |x| x.sqrt(), |_, y, g| g * 0.5 / y)
    }

    /// Element-wise reciprocal square root `1/√(x)`.
    pub fn rsqrt(&self) -> Tensor {
        self.unary_op(
            "rsqrt",
            |x| 1.0 / x.sqrt(),
            |x, y, g| g * (-0.5) * y / x, // d/dx x^(-1/2) = -1/2 x^(-3/2)
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.unary_op("square", |x| x * x, |x, _, g| g * 2.0 * x)
    }

    /// Element-wise absolute value. The gradient at 0 is defined as 0.
    pub fn abs(&self) -> Tensor {
        self.unary_op(
            "abs",
            |x| x.abs(),
            |x, _, g| {
                if x > 0.0 {
                    g
                } else if x < 0.0 {
                    -g
                } else {
                    0.0
                }
            },
        )
    }

    /// Rectified linear unit `max(0, x)` as used by the paper's FFNs
    /// (Eq. 7).
    pub fn relu(&self) -> Tensor {
        self.unary_op(
            "relu",
            |x| x.max(0.0),
            |x, _, g| if x > 0.0 { g } else { 0.0 },
        )
    }

    /// Gaussian error linear unit (tanh approximation), used by the GPT
    /// backbone.
    pub fn gelu(&self) -> Tensor {
        const C: f32 = 0.797_884_6; // sqrt(2/π)
        self.unary_op(
            "gelu",
            |x| {
                let inner = C * (x + 0.044715 * x * x * x);
                0.5 * x * (1.0 + inner.tanh())
            },
            |x, _, g| {
                let x3 = 0.044715 * x * x * x;
                let inner = C * (x + x3);
                let t = inner.tanh();
                let sech2 = 1.0 - t * t;
                let d_inner = C * (1.0 + 3.0 * 0.044715 * x * x);
                g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)
            },
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary_op("tanh", |x| x.tanh(), |_, y, g| g * (1.0 - y * y))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary_op(
            "sigmoid",
            |x| 1.0 / (1.0 + (-x).exp()),
            |_, y, g| g * y * (1.0 - y),
        )
    }

    /// Clamps values to `[lo, hi]`. Gradient is zero outside the range.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp: lo > hi");
        self.unary_op(
            "clamp",
            move |x| x.clamp(lo, hi),
            move |x, _, g| if x >= lo && x <= hi { g } else { 0.0 },
        )
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

    /// Source offset of every output element, in order, by a per-element
    /// odometer over the output index.
    fn reference_offsets(src: &[usize], out: &[usize]) -> Vec<usize> {
        let eff = eff_strides(src, out);
        crate::shape::IndexIter::new(&Shape::new(out))
            .map(|idx| idx.iter().zip(&eff).map(|(i, s)| i * s).sum())
            .collect()
    }

    #[test]
    fn broadcast_walk_visits_reference_offsets_in_order() {
        for (a, b) in [
            (vec![2, 3], vec![2, 3]),
            (vec![2, 3], vec![1, 3]),
            (vec![2, 3], vec![2, 1]),
            (vec![2, 3], vec![3]),
            (vec![2, 1, 4], vec![3, 1]),
            (vec![4, 3, 3], vec![3, 3]),
            (vec![1], vec![]),
            (vec![], vec![]),
            (vec![5, 1], vec![1, 4]),
        ] {
            let (sa, sb) = (Shape::new(a.clone()), Shape::new(b.clone()));
            let out = sa.broadcast_with(&sb).expect("broadcastable");
            let walk = BroadcastRows::new(&sa, &sb, &out);
            let (mut got_a, mut got_b, mut got_o) = (Vec::new(), Vec::new(), Vec::new());
            walk.for_each(|ao, bo, o| {
                for j in 0..walk.len {
                    got_a.push(ao + j * walk.a_step);
                    got_b.push(bo + j * walk.b_step);
                    got_o.push(o + j);
                }
            });
            let tag = format!("{a:?} x {b:?}");
            assert_eq!(got_a, reference_offsets(&a, out.dims()), "{tag}: a");
            assert_eq!(got_b, reference_offsets(&b, out.dims()), "{tag}: b");
            assert_eq!(got_o, (0..out.num_elements()).collect::<Vec<_>>(), "{tag}");
        }
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
