//! The [`Tensor`] type: a dense row-major f32 array with reverse-mode
//! autograd.
//!
//! Tensors form a DAG. Every operation that involves at least one
//! gradient-requiring input records a backward closure and keeps handles to
//! its parents; [`Tensor::backward`] topologically sorts the reachable
//! subgraph and propagates gradients. Tensors are reference-counted and
//! cheap to clone (a clone is a new handle to the same node).
//!
//! Inside a [`record`] scope every op keeps its parents whether or not it
//! tracks gradients, together with the static payload its plan lowering
//! reads ([`SymAttr`]), and every detach keeps its source, so
//! [`crate::recorder::Recorder`] can copy the real forward into IR.
//!
//! Threading model: the *graph* is single-threaded by design — `Rc`
//! handles, `RefCell` buffers, one thread per graph; experiment-level
//! parallelism happens across independent model instances, never across
//! one graph. The dense *kernels underneath* an op (matmul and friends)
//! run on the calling thread too, so ops are bitwise deterministic.

use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::shape::Shape;
use crate::symbolic::SymAttr;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
    static RECORD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Returns true while inside a [`no_grad`] scope.
pub fn is_grad_disabled() -> bool {
    NO_GRAD_DEPTH.with(|c| c.get() > 0)
}

/// Runs `f` with gradient recording disabled.
///
/// Operations executed inside the closure never build graph nodes, even on
/// tensors that require grad — used for inference, metric computation, and
/// cached teacher embeddings.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    with_depth(&NO_GRAD_DEPTH, f)
}

/// Returns true while inside a [`record`] scope.
pub fn is_recording() -> bool {
    RECORD_DEPTH.with(|c| c.get() > 0)
}

/// Runs `f` with graph recording on: every op created inside keeps its
/// parents (tracked or not) and its IR payload, and every detach keeps its
/// source, so [`crate::recorder::Recorder`] can replay the computation.
/// Kernels and gradient tracking behave exactly as outside the scope;
/// spans and op counts are muted ([`timekd_obs::muted`]), since a
/// recording is plan bookkeeping rather than pipeline work.
pub fn record<T>(f: impl FnOnce() -> T) -> T {
    with_depth(&RECORD_DEPTH, || timekd_obs::muted(f))
}

fn with_depth<T>(depth: &'static std::thread::LocalKey<Cell<u32>>, f: impl FnOnce() -> T) -> T {
    depth.with(|c| c.set(c.get() + 1));
    // Ensure the depth is restored even if `f` panics.
    struct Guard(&'static std::thread::LocalKey<Cell<u32>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.with(|c| c.set(c.get() - 1));
        }
    }
    let _guard = Guard(depth);
    f()
}

/// Backward closure: receives the output gradient and the parent handles,
/// and accumulates into each parent's gradient buffer.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32], &[Tensor])>;

/// What a [`record`] scope keeps on a node beyond its op name, shape and
/// parents.
pub(crate) struct Rec {
    /// Static operand payload (scalars, axes, permutations, slices).
    pub(crate) attr: SymAttr,
    /// The parameter whose module owns a [`Tensor::named`] leaf.
    pub(crate) owner: Option<Tensor>,
    /// Name of a constant leaf inside the module of `owner`.
    pub(crate) name: &'static str,
}

pub(crate) struct TensorInner {
    id: u64,
    /// Name of the op that produced this node (`"leaf"` / `"param"` for
    /// graph leaves). `&'static` so recording costs nothing.
    op: &'static str,
    shape: Shape,
    data: RefCell<Vec<f32>>,
    grad: RefCell<Option<Vec<f32>>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
    rec: Option<Box<Rec>>,
}

impl Drop for TensorInner {
    // Graphs from long training sequences can be tens of thousands of nodes
    // deep; the default recursive drop of the parent chain would overflow
    // the stack. Unlink parents iteratively instead.
    fn drop(&mut self) {
        let mut stack: Vec<Tensor> = std::mem::take(&mut self.parents);
        while let Some(mut t) = stack.pop() {
            if let Some(inner) = Rc::get_mut(&mut t.inner) {
                stack.append(&mut std::mem::take(&mut inner.parents));
            }
        }
    }
}

/// Dense row-major f32 tensor with reverse-mode autograd.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<TensorInner>,
}

impl Tensor {
    /// Creates a constant (non-differentiable) tensor from `data`.
    ///
    /// Panics if `data.len()` does not match the number of elements in
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            inner: Rc::new(TensorInner {
                id: next_id(),
                op: "leaf",
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: false,
                parents: Vec::new(),
                backward: None,
                rec: None,
            }),
        }
    }

    /// Creates a trainable leaf tensor (a parameter) from `data`.
    pub fn param(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            inner: Rc::new(TensorInner {
                id: next_id(),
                op: "param",
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: true,
                parents: Vec::new(),
                backward: None,
                rec: None,
            }),
        }
    }

    /// Creates an interior graph node produced by the op named `op`.
    ///
    /// If gradients are globally disabled or no parent requires grad, the
    /// node is constant and records nothing (the op name is kept either
    /// way so diagnostics work under `no_grad` too) — except inside a
    /// [`record`] scope, where the parents are kept regardless.
    pub(crate) fn from_op(
        op: &'static str,
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        assert_eq!(data.len(), shape.num_elements());
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_op_output(op, &data, &parents);
        timekd_obs::count_op(op);
        let track = Tensor::tracks(&parents);
        Tensor {
            inner: Rc::new(TensorInner {
                id: next_id(),
                op,
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: track,
                parents: if track || is_recording() {
                    parents
                } else {
                    Vec::new()
                },
                backward: if track { Some(backward) } else { None },
                rec: None,
            }),
        }
    }

    /// True when an op over `parents` tracks gradients, i.e. when
    /// [`from_op`](Self::from_op) keeps its backward closure.
    pub(crate) fn tracks(parents: &[Tensor]) -> bool {
        !is_grad_disabled() && parents.iter().any(|p| p.requires_grad())
    }

    /// Attaches the IR payload of a freshly created node while recording;
    /// outside a [`record`] scope the closure does not run.
    pub(crate) fn with_rec(self, attr: impl FnOnce() -> SymAttr) -> Tensor {
        self.set_rec(|| Rec {
            attr: attr(),
            owner: None,
            name: "",
        })
    }

    /// The recorded payload, when this node was created inside a
    /// [`record`] scope and carries one.
    pub(crate) fn rec(&self) -> Option<&Rec> {
        self.inner.rec.as_deref()
    }

    /// Names a fresh constant leaf `name` inside the module that owns the
    /// parameter `owner`, so a recording labels it `<owner's module>.<name>`
    /// (RevIN's instance statistics, for example). Free outside a
    /// [`record`] scope.
    pub fn named(self, name: &'static str, owner: &Tensor) -> Tensor {
        self.set_rec(|| Rec {
            attr: SymAttr::None,
            owner: Some(owner.clone()),
            name,
        })
    }

    fn set_rec(mut self, rec: impl FnOnce() -> Rec) -> Tensor {
        if is_recording() {
            Rc::get_mut(&mut self.inner)
                .expect("a payload is attached to a fresh node")
                .rec = Some(Box::new(rec()));
        }
        self
    }

    /// Zero-filled constant tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor::from_vec(vec![0.0; n], shape)
    }

    /// One-filled constant tensor.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(1.0, shape)
    }

    /// Constant tensor filled with `value`.
    pub fn full(value: f32, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor::from_vec(vec![value; n], shape)
    }

    /// Rank-0 constant scalar.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], Shape::scalar())
    }

    /// Unique node id (monotonically increasing per thread).
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Name of the op that produced this node; `"leaf"` for constants and
    /// `"param"` for trainable leaves.
    #[inline]
    pub fn op_name(&self) -> &'static str {
        self.inner.op
    }

    /// Recorded parent nodes: empty for leaves and, outside a [`record`]
    /// scope, for untracked ops. A detach recorded in a [`record`] scope
    /// keeps its source as its one parent.
    #[inline]
    pub fn parents(&self) -> &[Tensor] {
        &self.inner.parents
    }

    /// True if a gradient buffer is currently accumulated on this node.
    /// Cheaper than [`Tensor::grad`], which clones the buffer.
    #[inline]
    pub fn has_grad(&self) -> bool {
        self.inner.grad.borrow().is_some()
    }

    /// Length of the accumulated gradient buffer, if any. The audit pass
    /// uses this to verify gradient/shape consistency without copying.
    pub fn grad_len(&self) -> Option<usize> {
        self.inner.grad.borrow().as_ref().map(Vec::len)
    }

    /// Length of the raw data buffer (normally equal to
    /// `num_elements()`; the audit pass verifies this).
    pub fn data_len(&self) -> usize {
        self.inner.data.borrow().len()
    }

    /// Human-readable provenance chain: this node, its parents, and the
    /// first-parent ancestor line, annotated with op names, shapes and a
    /// data health summary. Used by the `sanitize` feature to explain
    /// where a non-finite value came from.
    pub fn provenance(&self) -> String {
        fn summary(t: &Tensor) -> String {
            let data = t.inner.data.borrow();
            let (mut nan, mut inf) = (0usize, 0usize);
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in data.iter() {
                if v.is_nan() {
                    nan += 1;
                } else if v.is_infinite() {
                    inf += 1;
                } else {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            let range = if lo <= hi {
                format!("[{lo:.3e}, {hi:.3e}]")
            } else {
                "[]".to_string()
            };
            format!(
                "#{} {} {} grad={} finite range {range}, {nan} NaN, {inf} Inf",
                t.id(),
                t.op_name(),
                t.shape(),
                t.requires_grad(),
            )
        }
        let mut out = String::new();
        out.push_str(&format!("-> {}\n", summary(self)));
        for p in self.parents() {
            out.push_str(&format!("   parent {}\n", summary(p)));
        }
        // Follow the first-parent line a few more hops for context.
        let mut cur = self.parents().first().cloned();
        let mut depth = 0;
        while let Some(t) = cur {
            if depth >= 8 {
                out.push_str("   ... (chain truncated)\n");
                break;
            }
            if depth > 0 {
                out.push_str(&format!("   ancestor {}\n", summary(&t)));
            }
            cur = t.parents().first().cloned();
            depth += 1;
        }
        out
    }

    /// Replaces the raw gradient buffer without any shape checking.
    /// Test-only hook for exercising the audit pass on corrupt graphs.
    #[doc(hidden)]
    pub fn set_raw_grad_for_tests(&self, g: Vec<f32>) {
        *self.inner.grad.borrow_mut() = Some(g);
    }

    /// Shape of this tensor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// Number of elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.inner.shape.num_elements()
    }

    /// Borrows the underlying data.
    ///
    /// Panics if the data is mutably borrowed (e.g. during an in-place
    /// optimizer update).
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.inner.data.borrow()
    }

    /// Copies the data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.data.borrow().clone()
    }

    /// The single value of a one-element tensor.
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let data = self.inner.data.borrow();
        assert_eq!(
            data.len(),
            1,
            "item() on tensor with {} elements",
            data.len()
        );
        data[0]
    }

    /// Value at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        let flat = self.inner.shape.flat_index(index);
        self.inner.data.borrow()[flat]
    }

    /// True if this tensor participates in gradient computation.
    #[inline]
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// True if this is a leaf (no recorded parents).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.inner.backward.is_none()
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.grad.borrow().clone()
    }

    /// The accumulated gradient, if any, borrowed instead of copied.
    pub fn grad_ref(&self) -> Option<Ref<'_, [f32]>> {
        Ref::filter_map(self.inner.grad.borrow(), |g| g.as_deref()).ok()
    }

    /// Rewrites the accumulated gradient in place (e.g. gradient
    /// clipping); a no-op when there is none.
    pub fn update_grad(&self, f: impl FnOnce(&mut [f32])) {
        if let Some(g) = self.inner.grad.borrow_mut().as_deref_mut() {
            f(g);
        }
    }

    /// Clears the gradient of this node.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Accumulates `g` into this node's gradient buffer.
    ///
    /// Exposed so optimizers and tests can inject or rescale gradients
    /// (e.g. gradient clipping).
    pub fn accumulate_grad(&self, g: &[f32]) {
        debug_assert_eq!(g.len(), self.num_elements());
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                for (b, &x) in buf.iter_mut().zip(g) {
                    *b += x;
                }
            }
            None => *slot = Some(g.to_vec()),
        }
    }

    /// In-place update of the raw data (used by optimizers). The graph is
    /// not informed: call only on leaf parameters between steps.
    pub fn update_data(&self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.inner.data.borrow_mut());
    }

    /// Overwrites the raw data from a slice of identical length.
    pub fn copy_from_slice(&self, src: &[f32]) {
        let mut data = self.inner.data.borrow_mut();
        assert_eq!(src.len(), data.len());
        data.copy_from_slice(src);
    }

    /// Returns a constant tensor sharing this tensor's current values but
    /// cut off from the graph. Inside a [`record`] scope the leaf keeps
    /// its source as a (gradient-free) parent.
    pub fn detach(&self) -> Tensor {
        let mut leaf = Tensor::from_vec(self.to_vec(), self.shape().clone());
        if is_recording() {
            Rc::get_mut(&mut leaf.inner)
                .expect("fresh leaf")
                .parents
                .push(self.clone());
        }
        leaf
    }

    /// Runs reverse-mode autodiff from this tensor.
    ///
    /// The tensor must contain a single element (a loss). Gradients are
    /// accumulated into every reachable node that requires grad; leaves keep
    /// them for the optimizer, and interior buffers are dropped when the
    /// graph nodes are released.
    pub fn backward(&self) {
        assert_eq!(
            self.num_elements(),
            1,
            "backward() requires a scalar loss, got shape {}",
            self.shape()
        );
        assert!(
            self.requires_grad(),
            "backward() on a tensor that does not require grad"
        );
        let _span = timekd_obs::span("tensor.backward");
        let order = self.topo_order();
        self.accumulate_grad(&[1.0]);
        for node in order.iter().rev() {
            let Some(backward) = node.inner.backward.as_ref() else {
                continue;
            };
            let grad = node.inner.grad.borrow().clone();
            let Some(grad) = grad else { continue };
            backward(&grad, &node.inner.parents);
            // Interior gradients are only needed once; free them eagerly.
            *node.inner.grad.borrow_mut() = None;
        }
    }

    /// Topological order (parents before children) of the grad-requiring
    /// subgraph reachable from `self`.
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: std::collections::HashSet<u64> = std::collections::HashSet::new();
        // Iterative DFS with an explicit stack to avoid recursion depth
        // limits on deep graphs (long training sequences).
        enum Frame {
            Enter(Tensor),
            Exit(Tensor),
        }
        let mut stack = vec![Frame::Enter(self.clone())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(t) => {
                    if !t.requires_grad() || visited.contains(&t.id()) {
                        continue;
                    }
                    visited.insert(t.id());
                    stack.push(Frame::Exit(t.clone()));
                    for p in &t.inner.parents {
                        stack.push(Frame::Enter(p.clone()));
                    }
                }
                Frame::Exit(t) => order.push(t),
            }
        }
        order
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.inner.data.borrow();
        let preview: Vec<f32> = data.iter().copied().take(8).collect();
        write!(
            f,
            "Tensor(id={}, shape={}, requires_grad={}, data≈{:?}{})",
            self.id(),
            self.shape(),
            self.requires_grad(),
            preview,
            if data.len() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_read() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert!(!t.requires_grad());
        assert!(t.is_leaf());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], [2, 2]);
    }

    #[test]
    fn param_requires_grad() {
        let p = Tensor::param(vec![0.5; 4], [4]);
        assert!(p.requires_grad());
        assert!(p.is_leaf());
        assert!(p.grad().is_none());
    }

    #[test]
    fn accumulate_and_zero_grad() {
        let p = Tensor::param(vec![0.0; 3], [3]);
        p.accumulate_grad(&[1.0, 2.0, 3.0]);
        p.accumulate_grad(&[1.0, 1.0, 1.0]);
        assert_eq!(p.grad().unwrap(), vec![2.0, 3.0, 4.0]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn no_grad_scope_blocks_graph() {
        let p = Tensor::param(vec![1.0, 2.0], [2]);
        let out = no_grad(|| p.add(&p));
        assert!(!out.requires_grad());
        assert!(out.is_leaf());
    }

    #[test]
    fn no_grad_scope_restores_on_panic() {
        let res = std::panic::catch_unwind(|| no_grad(|| panic!("boom")));
        assert!(res.is_err());
        assert!(!is_grad_disabled());
    }

    #[test]
    fn detach_cuts_graph() {
        let p = Tensor::param(vec![1.0, 2.0], [2]);
        let y = p.mul_scalar(3.0);
        let d = y.detach();
        assert!(!d.requires_grad());
        assert_eq!(d.to_vec(), vec![3.0, 6.0]);
    }

    #[test]
    fn backward_simple_chain() {
        // y = sum(2 * p); dy/dp = 2.
        let p = Tensor::param(vec![1.0, 2.0, 3.0], [3]);
        let y = p.mul_scalar(2.0).sum();
        y.backward();
        assert_eq!(p.grad().unwrap(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn backward_diamond_accumulates() {
        // y = sum(p + p); dy/dp = 2 (gradient flows along both edges).
        let p = Tensor::param(vec![1.0, 1.0], [2]);
        let y = p.add(&p).sum();
        y.backward();
        assert_eq!(p.grad().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_non_scalar_panics() {
        let p = Tensor::param(vec![1.0, 2.0], [2]);
        p.mul_scalar(1.0).backward();
    }

    #[test]
    fn deep_graph_backward_no_stack_overflow() {
        let p = Tensor::param(vec![1.0], [1]);
        let mut x = p.clone();
        for _ in 0..20_000 {
            x = x.add_scalar(0.0);
        }
        x.sum().backward();
        assert_eq!(p.grad().unwrap(), vec![1.0]);
    }
}
