//! Shape and broadcasting arithmetic for dense row-major tensors.
//!
//! A [`Shape`] is a small vector of dimension sizes. All tensors in this
//! crate are dense and row-major (C order), so strides are always derivable
//! from the shape; we never store them separately. Broadcasting follows the
//! NumPy rules: trailing axes are aligned, and axes of size 1 stretch.

use std::fmt;

/// Dimension sizes of a dense row-major tensor.
///
/// The empty shape `[]` denotes a scalar with exactly one element.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// The scalar shape `[]`.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes (0 for a scalar).
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for a scalar, 0 if any axis is 0).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of axis `axis`. Panics if out of range.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides, in elements.
    ///
    /// `strides()[i]` is the distance between consecutive indices along axis
    /// `i`. A scalar has no strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.rank()];
        let mut acc = 1usize;
        for i in (0..self.rank()).rev() {
            strides[i] = acc;
            acc *= self.0[i];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// Panics in debug builds if `index` is out of bounds.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut flat = 0usize;
        let mut acc = 1usize;
        for i in (0..self.rank()).rev() {
            debug_assert!(
                index[i] < self.0[i],
                "index {index:?} out of bounds for {self}"
            );
            flat += index[i] * acc;
            acc *= self.0[i];
        }
        flat
    }

    /// Computes the broadcast shape of `self` and `other` per NumPy rules.
    ///
    /// Returns `None` if the shapes are incompatible.
    pub fn broadcast_with(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = axis_from_right(&self.0, rank - 1 - i);
            let b = axis_from_right(&other.0, rank - 1 - i);
            *dim = match (a, b) {
                (1, d) | (d, 1) => d,
                (d1, d2) if d1 == d2 => d1,
                _ => return None,
            };
        }
        Some(Shape(dims))
    }

    /// True if a tensor of this shape can broadcast to `target` without
    /// changing `target`.
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        match self.broadcast_with(target) {
            Some(s) => s == *target,
            None => false,
        }
    }

    /// The axes of `target` along which `self` was stretched when
    /// broadcasting to `target` (for gradient reduction), including leading
    /// axes that `self` lacks.
    ///
    /// Panics if `self` does not broadcast to `target`.
    pub fn broadcast_reduction_axes(&self, target: &Shape) -> Vec<usize> {
        assert!(
            self.broadcasts_to(target),
            "{self} does not broadcast to {target}"
        );
        let offset = target.rank() - self.rank();
        let mut axes = Vec::new();
        for i in 0..target.rank() {
            let stretched = i < offset || (self.0[i - offset] == 1 && target.0[i] != 1);
            if stretched {
                axes.push(i);
            }
        }
        axes
    }
}

#[inline]
fn axis_from_right(dims: &[usize], k: usize) -> usize {
    if k < dims.len() {
        dims[dims.len() - 1 - k]
    } else {
        1
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Iterates over all multi-dimensional indices of `shape` in row-major order.
///
/// Used by broadcasting kernels; for hot same-shape paths we bypass this.
#[derive(Debug)]
pub struct IndexIter {
    dims: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl IndexIter {
    /// Creates an iterator over every index of `shape`.
    pub fn new(shape: &Shape) -> Self {
        let done = shape.num_elements() == 0;
        IndexIter {
            dims: shape.dims().to_vec(),
            current: vec![0; shape.rank()],
            done,
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Advance odometer.
        let mut i = self.dims.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.current[i] += 1;
            if self.current[i] < self.dims[i] {
                break;
            }
            self.current[i] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new([2, 3, 4]);
        let mut seen = [false; 24];
        for idx in IndexIter::new(&s) {
            let f = s.flat_index(&idx);
            assert!(!seen[f]);
            seen[f] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn broadcast_basic() {
        let a = Shape::new([3, 1]);
        let b = Shape::new([1, 4]);
        assert_eq!(a.broadcast_with(&b).unwrap(), Shape::new([3, 4]));
    }

    #[test]
    fn broadcast_rank_extension() {
        let a = Shape::new([4]);
        let b = Shape::new([2, 3, 4]);
        assert_eq!(a.broadcast_with(&b).unwrap(), Shape::new([2, 3, 4]));
        assert!(a.broadcasts_to(&b));
        assert!(!b.broadcasts_to(&a));
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Shape::new([3, 2]);
        let b = Shape::new([3, 4]);
        assert!(a.broadcast_with(&b).is_none());
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::scalar();
        let b = Shape::new([5, 6]);
        assert_eq!(a.broadcast_with(&b).unwrap(), b);
        assert_eq!(a.broadcast_reduction_axes(&b), vec![0, 1]);
    }

    #[test]
    fn reduction_axes() {
        let a = Shape::new([1, 4]);
        let t = Shape::new([2, 3, 4]);
        assert_eq!(a.broadcast_reduction_axes(&t), vec![0, 1]);
        let b = Shape::new([3, 1]);
        let t2 = Shape::new([3, 5]);
        assert_eq!(b.broadcast_reduction_axes(&t2), vec![1]);
    }

    #[test]
    fn index_iter_order() {
        let s = Shape::new([2, 2]);
        let v: Vec<_> = IndexIter::new(&s).collect();
        assert_eq!(v, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn index_iter_empty() {
        let s = Shape::new([2, 0, 3]);
        assert_eq!(IndexIter::new(&s).count(), 0);
    }
}
