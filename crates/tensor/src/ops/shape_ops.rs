//! Shape manipulation: reshape, permute/transpose, slice, concat, gather.

use crate::ops::kernels::{
    gather_last_block, gather_last_bwd_block, gather_rows_block, gather_rows_bwd_block,
    inverse_perm, permute_block, permute_walk, slice_block, AxisSplit,
};
use crate::shape::Shape;
use crate::symbolic::SymAttr;
use crate::tensor::Tensor;

impl Tensor {
    /// Reinterprets the data with a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.num_elements(),
            self.num_elements(),
            "reshape {} -> {shape} changes element count",
            self.shape()
        );
        Tensor::from_op(
            "reshape",
            self.to_vec(),
            shape,
            vec![self.clone()],
            Box::new(|grad, parents| {
                let x = &parents[0];
                if x.requires_grad() {
                    x.accumulate_grad(grad);
                }
            }),
        )
    }

    /// Reorders axes by `perm` (a permutation of `0..rank`).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let rank = self.shape().rank();
        assert_eq!(perm.len(), rank, "permute: wrong permutation length");
        let mut seen = vec![false; rank];
        for &p in perm {
            assert!(
                p < rank && !seen[p],
                "permute: invalid permutation {perm:?}"
            );
            seen[p] = true;
        }
        let walk = permute_walk(self.dims(), perm);
        let out_shape = Shape::new(perm.iter().map(|&p| self.dims()[p]).collect::<Vec<_>>());
        let mut out = vec![0.0f32; self.num_elements()];
        permute_block(&walk, &self.data(), &mut out);
        // Backward copies the gradient along the inverse permutation's
        // walk. Only a tracked op keeps its backward, so only it builds one.
        let inv_walk = Tensor::tracks(std::slice::from_ref(self))
            .then(|| permute_walk(out_shape.dims(), &inverse_perm(perm)));
        Tensor::from_op(
            "permute",
            out,
            out_shape,
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let Some(inv_walk) = &inv_walk else {
                    unreachable!("tracked permute has an inverse walk")
                };
                let mut gx = vec![0.0f32; grad.len()];
                permute_block(inv_walk, grad, &mut gx);
                parents[0].accumulate_grad(&gx);
            }),
        )
        .with_rec(|| SymAttr::Perm(perm.to_vec()))
    }

    /// Swaps the last two axes (rank ≥ 2).
    pub fn transpose_last(&self) -> Tensor {
        let rank = self.shape().rank();
        assert!(rank >= 2, "transpose_last needs rank >= 2");
        let mut perm: Vec<usize> = (0..rank).collect();
        perm.swap(rank - 1, rank - 2);
        self.permute(&perm)
    }

    /// Contiguous slice `start..start+len` along `axis`.
    pub fn slice(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let rank = self.shape().rank();
        assert!(axis < rank, "slice: axis out of range");
        let dims = self.dims().to_vec();
        assert!(
            start + len <= dims[axis],
            "slice: {start}+{len} exceeds axis size {}",
            dims[axis]
        );
        let split = AxisSplit::new(&dims, axis);
        let AxisSplit { outer, mid, inner } = split;
        let mut out = vec![0.0f32; outer * len * inner];
        slice_block(&self.data(), &mut out, split, start, len);
        let mut out_dims = dims.clone();
        out_dims[axis] = len;
        Tensor::from_op(
            "slice",
            out,
            Shape::new(out_dims),
            vec![self.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                if !x.requires_grad() {
                    return;
                }
                let mut gx = vec![0.0f32; x.num_elements()];
                for o in 0..outer {
                    let dst = (o * mid + start) * inner;
                    let src = o * len * inner;
                    gx[dst..dst + len * inner].copy_from_slice(&grad[src..src + len * inner]);
                }
                x.accumulate_grad(&gx);
            }),
        )
        .with_rec(|| SymAttr::Slice { axis, start, len })
    }

    /// Concatenates tensors along `axis`. All other axes must match.
    pub fn concat(tensors: &[Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let rank = tensors[0].shape().rank();
        assert!(axis < rank, "concat: axis out of range");
        let base_dims = tensors[0].dims().to_vec();
        let mut axis_sizes = Vec::with_capacity(tensors.len());
        for t in tensors {
            assert_eq!(t.shape().rank(), rank, "concat: rank mismatch");
            for (i, (&a, &b)) in t.dims().iter().zip(&base_dims).enumerate() {
                assert!(
                    i == axis || a == b,
                    "concat: shapes differ off-axis: {} vs {}",
                    t.shape(),
                    tensors[0].shape()
                );
            }
            axis_sizes.push(t.dims()[axis]);
        }
        let total_axis: usize = axis_sizes.iter().sum();
        let outer: usize = base_dims[..axis].iter().product();
        let inner: usize = base_dims[axis + 1..].iter().product();
        let mut out_dims = base_dims.clone();
        out_dims[axis] = total_axis;
        let mut out = Vec::with_capacity(outer * total_axis * inner);
        for o in 0..outer {
            for (t, &sz) in tensors.iter().zip(&axis_sizes) {
                let data = t.data();
                let base = o * sz * inner;
                out.extend_from_slice(&data[base..base + sz * inner]);
            }
        }
        let sizes_bw = axis_sizes.clone();
        Tensor::from_op(
            "concat",
            out,
            Shape::new(out_dims),
            tensors.to_vec(),
            Box::new(move |grad, parents| {
                let mut grads: Vec<Vec<f32>> = parents
                    .iter()
                    .map(|p| vec![0.0f32; p.num_elements()])
                    .collect();
                let mut pos = 0usize;
                for o in 0..outer {
                    for (pi, &sz) in sizes_bw.iter().enumerate() {
                        let chunk = sz * inner;
                        let dst = o * chunk;
                        grads[pi][dst..dst + chunk].copy_from_slice(&grad[pos..pos + chunk]);
                        pos += chunk;
                    }
                }
                for (p, g) in parents.iter().zip(&grads) {
                    if p.requires_grad() {
                        p.accumulate_grad(g);
                    }
                }
            }),
        )
        .with_rec(|| SymAttr::Concat { axis })
    }

    /// Selects rows of a rank-2 tensor: `self[V, D]` gathered by the
    /// constant `[S]` row ids `ids` (exact integers in f32, see
    /// [`Tensor::indices`]) gives `[S, D]` — the embedding lookup. The ids
    /// are the op's second parent, so a recording keeps them as a leaf
    /// that a plan can feed at run time.
    pub fn index_select_rows(&self, ids: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "index_select_rows needs rank 2");
        assert_eq!(ids.shape().rank(), 1, "index_select_rows: ids must be [S]");
        assert!(
            !ids.requires_grad(),
            "index_select_rows: ids must be constant"
        );
        let (v, d) = (self.dims()[0], self.dims()[1]);
        check_indices(&ids.data(), v);
        let mut out = vec![0.0f32; ids.num_elements() * d];
        gather_rows_block(&self.data(), &ids.data(), d, &mut out);
        Tensor::from_op(
            "index_select_rows",
            out,
            Shape::new([ids.num_elements(), d]),
            vec![self.clone(), ids.clone()],
            Box::new(move |grad, parents| {
                let w = &parents[0];
                if !w.requires_grad() {
                    return;
                }
                let mut gw = vec![0.0f32; w.num_elements()];
                gather_rows_bwd_block(&parents[1].data(), d, grad, &mut gw);
                w.accumulate_grad(&gw);
            }),
        )
    }

    /// Gathers one element per row along the last axis: for `self` viewed as
    /// `[R, C]`, returns `[R]` with `out[r] = self[r, ids[r]]` — used by
    /// cross-entropy. The constant `[R]` column ids (exact integers in
    /// f32) are the op's second parent, like those of
    /// [`index_select_rows`](Self::index_select_rows).
    pub fn gather_last(&self, ids: &Tensor) -> Tensor {
        let rank = self.shape().rank();
        assert!(rank >= 1);
        assert!(!ids.requires_grad(), "gather_last: ids must be constant");
        let c = self.dims()[rank - 1];
        let r = self.num_elements() / c;
        assert_eq!(ids.num_elements(), r, "gather_last: need one index per row");
        check_indices(&ids.data(), c);
        let mut out = vec![0.0f32; r];
        gather_last_block(&self.data(), &ids.data(), c, &mut out);
        Tensor::from_op(
            "gather_last",
            out,
            Shape::new([r]),
            vec![self.clone(), ids.clone()],
            Box::new(move |grad, parents| {
                let x = &parents[0];
                if !x.requires_grad() {
                    return;
                }
                let mut gx = vec![0.0f32; x.num_elements()];
                gather_last_bwd_block(&parents[1].data(), c, grad, &mut gx);
                x.accumulate_grad(&gx);
            }),
        )
    }

    /// A constant `[n]` tensor holding `indices` as f32, which represents
    /// every index below 2^24 exactly — the id operand of
    /// [`index_select_rows`](Self::index_select_rows) and
    /// [`gather_last`](Self::gather_last).
    pub fn indices(indices: &[usize]) -> Tensor {
        let data = indices
            .iter()
            .map(|&i| {
                assert!(i < 1 << 24, "index {i} is not exact in f32");
                i as f32
            })
            .collect::<Vec<_>>();
        Tensor::from_vec(data, [indices.len()])
    }

    /// Materialises a broadcast of this tensor to `target`.
    pub fn broadcast_to(&self, target: impl Into<Shape>) -> Tensor {
        let target = target.into();
        assert!(
            self.shape().broadcasts_to(&target),
            "{} does not broadcast to {target}",
            self.shape()
        );
        // add with zeros of the target shape routes gradients correctly.
        self.add(&Tensor::zeros(target))
    }
}

/// Panics unless every id is an integer in `0..bound`.
fn check_indices(ids: &[f32], bound: usize) {
    for &i in ids {
        assert!(
            i >= 0.0 && i.fract() == 0.0 && (i as usize) < bound,
            "index {i} out of range for {bound}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_round_trip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.to_vec(), t.to_vec());
    }

    #[test]
    fn reshape_backward_identity() {
        let p = Tensor::param(vec![1.0; 6], [2, 3]);
        p.reshape([6]).sum().backward();
        assert_eq!(p.grad().unwrap(), vec![1.0; 6]);
    }

    #[test]
    fn permute_2d_transpose() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.permute(&[1, 0]);
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
        assert_eq!(p.at(&[3, 1, 0]), t.at(&[1, 0, 3]));
    }

    #[test]
    fn permute_backward_inverse() {
        let p = Tensor::param((0..6).map(|x| x as f32).collect(), [2, 3]);
        // weight the output so gradient is distinguishable
        let w = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]);
        p.permute(&[1, 0]).mul(&w).sum().backward();
        // grad of p[i][j] = w[j][i]
        let g = p.grad().unwrap();
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(g[i * 3 + j], w.at(&[j, i]));
            }
        }
    }

    #[test]
    fn transpose_last_involution() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]);
        let round = t.transpose_last().transpose_last();
        assert_eq!(round.to_vec(), t.to_vec());
    }

    #[test]
    fn slice_middle() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]);
        let s = t.slice(1, 1, 2);
        assert_eq!(s.dims(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn slice_backward_scatters() {
        let p = Tensor::param((0..6).map(|x| x as f32).collect(), [2, 3]);
        p.slice(1, 1, 1).sum().backward();
        assert_eq!(p.grad().unwrap(), vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        assert_eq!(
            Tensor::concat(&[a.clone(), b.clone()], 0).to_vec(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(
            Tensor::concat(&[a, b], 1).to_vec(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn concat_slice_inverse() {
        let a = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [2, 4]);
        let left = a.slice(1, 0, 2);
        let right = a.slice(1, 2, 2);
        let back = Tensor::concat(&[left, right], 1);
        assert_eq!(back.to_vec(), a.to_vec());
    }

    #[test]
    fn concat_backward_splits() {
        let a = Tensor::param(vec![1.0; 2], [1, 2]);
        let b = Tensor::param(vec![1.0; 2], [1, 2]);
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]);
        Tensor::concat(&[a.clone(), b.clone()], 1)
            .mul(&w)
            .sum()
            .backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 2.0]);
        assert_eq!(b.grad().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn index_select_rows_gathers() {
        let w = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]);
        let e = w.index_select_rows(&Tensor::indices(&[2, 0, 2]));
        assert_eq!(e.dims(), &[3, 2]);
        assert_eq!(e.to_vec(), vec![4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn index_select_rows_grad_accumulates_dupes() {
        let w = Tensor::param(vec![0.0; 6], [3, 2]);
        w.index_select_rows(&Tensor::indices(&[2, 0, 2]))
            .sum()
            .backward();
        assert_eq!(w.grad().unwrap(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_last_and_grad() {
        let x = Tensor::param(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let g = x.gather_last(&Tensor::indices(&[2, 0]));
        assert_eq!(g.to_vec(), vec![3.0, 4.0]);
        g.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn broadcast_to_materialises() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = t.broadcast_to([3, 2]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }
}
