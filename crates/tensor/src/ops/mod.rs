//! Differentiable tensor operations.
//!
//! Each op computes its forward value eagerly and, when any input requires
//! grad (and grad recording is enabled), registers a backward closure on the
//! output node. Broadcasting ops map every output element to a source
//! element per operand via precomputed offset tables, which the backward
//! pass reuses to scatter gradients.

pub(crate) mod attention;
pub(crate) mod elementwise;
pub(crate) mod matmul;
pub(crate) mod qmm;
pub(crate) mod reduce;
pub(crate) mod shape_ops;
pub(crate) mod softmax;

use crate::shape::{eff_strides, Shape};

/// For each flat output index of `out`, the flat source index in a tensor of
/// shape `src` broadcast to `out`.
///
/// `src` must broadcast to `out`.
pub(crate) fn broadcast_offsets(src: &Shape, out: &Shape) -> Vec<usize> {
    debug_assert!(src.broadcasts_to(out), "{src} !-> {out}");
    let n = out.num_elements();
    let mut offsets = Vec::with_capacity(n);
    if src == out {
        offsets.extend(0..n);
        return offsets;
    }
    let out_dims = out.dims();
    let rank = out.rank();
    let eff = eff_strides(src.dims(), out_dims);
    let mut idx = vec![0usize; rank];
    let mut src_off = 0usize;
    for _ in 0..n {
        offsets.push(src_off);
        // Odometer increment.
        let mut ax = rank;
        loop {
            if ax == 0 {
                break;
            }
            ax -= 1;
            idx[ax] += 1;
            src_off += eff[ax];
            if idx[ax] < out_dims[ax] {
                break;
            }
            src_off -= eff[ax] * out_dims[ax];
            idx[ax] = 0;
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_identity() {
        let s = Shape::new([2, 3]);
        assert_eq!(broadcast_offsets(&s, &s), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn offsets_row_broadcast() {
        // [1, 3] -> [2, 3]: both rows read the same source row.
        let src = Shape::new([1, 3]);
        let out = Shape::new([2, 3]);
        assert_eq!(broadcast_offsets(&src, &out), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn offsets_col_broadcast() {
        // [2, 1] -> [2, 3].
        let src = Shape::new([2, 1]);
        let out = Shape::new([2, 3]);
        assert_eq!(broadcast_offsets(&src, &out), vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn offsets_rank_extension() {
        // [3] -> [2, 3].
        let src = Shape::new([3]);
        let out = Shape::new([2, 3]);
        assert_eq!(broadcast_offsets(&src, &out), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn offsets_scalar() {
        let src = Shape::scalar();
        let out = Shape::new([2, 2]);
        assert_eq!(broadcast_offsets(&src, &out), vec![0, 0, 0, 0]);
    }
}
