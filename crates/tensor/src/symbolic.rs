//! Symbolic graph IR: gradient-flow analysis and plan lowering without
//! executing kernels.
//!
//! A [`SymbolicTensor`] stands for one autograd node — op name, shape,
//! static payload, parents, `requires_grad` — but carries no data. Graphs
//! are not written by hand: the [`Recorder`](crate::Recorder) copies each
//! node of a recorded real forward, so shapes are the ones the engine
//! computed and checked when that forward ran. The tracking rule is that of
//! `Tensor::from_op`: a node recorded under `no_grad` or with no
//! grad-requiring parent records no *gradient* edges (it becomes a frontier
//! leaf exactly as the real engine's untracked nodes do), though full
//! provenance parents are always retained for diagnostics.
//!
//! Two analyses build on the IR:
//! - [`reachable_params`] walks gradient edges from a loss root, yielding
//!   the set of parameters the backward pass would update — the basis for
//!   loss→parameter flow matrices and frozen-parameter proofs;
//! - [`find_path`] names the gradient route from a loss to a parameter,
//!   the provenance of gradient-flow findings.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// Renders a shape as `[96, 32]`.
fn render_dims(dims: &[usize]) -> String {
    format!("{dims:?}")
}

/// The module part of a dotted label (`a.b.weight` → `a.b`).
pub(crate) fn module_of(label: &str) -> &str {
    label.rsplit_once('.').map_or("", |(m, _)| m)
}

/// Static operand payload recorded on a symbolic node — the part of an
/// op's semantics that is not captured by shapes alone. The plan compiler
/// ([`crate::plan`]) needs these to lower a traced graph into executable
/// steps; ops whose behaviour is fully determined by input/output shapes
/// record [`SymAttr::None`].
#[derive(Clone, Debug, PartialEq)]
pub enum SymAttr {
    /// No payload beyond the shapes.
    None,
    /// Scalar operand of `add_scalar` / `mul_scalar` (and therefore of the
    /// `mean` family, which lowers to `sum` + `mul_scalar(1/n)` exactly as
    /// the real kernels do).
    Scalar(f32),
    /// Reduced axis of `sum_axis`.
    Axis {
        /// Axis index in the input shape.
        axis: usize,
        /// Whether the axis is kept with size 1.
        keepdim: bool,
    },
    /// Axis order of `permute`.
    Perm(Vec<usize>),
    /// Window of `slice`: `start..start + len` along `axis`.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// Kept length.
        len: usize,
    },
    /// Joined axis of `concat`.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// `fused_attention` (and its map) under an additive mask, which is
    /// the node's last parent: a constant leaf that never takes a
    /// gradient. Plans lower the masked context node with the mask fed at
    /// run time (an aux leaf); the masked map has no lowering.
    Masked,
}

struct SymNode {
    id: u64,
    op: &'static str,
    label: String,
    dims: Vec<usize>,
    attr: SymAttr,
    /// Full provenance parents — always recorded, even when untracked.
    parents: Vec<SymbolicTensor>,
    /// Mirrors `Tensor::requires_grad` under the `from_op` tracking rule.
    requires_grad: bool,
    /// Mirrors `backward.is_some()`: true only for tracked op nodes.
    has_backward: bool,
    /// True for trainable leaves registered via [`SymCtx::param`].
    is_param: bool,
    /// True for parameters registered as frozen (pretrained) weights.
    frozen: bool,
}

/// A node of the symbolic graph. Cheap to clone (reference-counted).
/// Nodes hold no handle on their [`SymCtx`], so the context's parameter
/// registry forms no reference cycle and a dropped replay is freed.
#[derive(Clone)]
pub struct SymbolicTensor {
    node: Rc<SymNode>,
}

impl fmt::Debug for SymbolicTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} {} @{}",
            self.node.id,
            self.node.op,
            render_dims(&self.node.dims),
            self.node.label
        )
    }
}

#[derive(Default)]
struct CtxInner {
    next_id: u64,
    params: Vec<SymbolicTensor>,
}

/// Replay context: id allocation and the registry of parameters created
/// during the replay.
#[derive(Clone, Default)]
pub struct SymCtx {
    inner: Rc<RefCell<CtxInner>>,
}

impl fmt::Debug for SymCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "SymCtx {{ nodes: {}, params: {} }}",
            inner.next_id,
            inner.params.len()
        )
    }
}

impl SymCtx {
    fn next_id(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        id
    }

    fn leaf(
        &self,
        op: &'static str,
        label: &str,
        dims: Vec<usize>,
        frozen: bool,
    ) -> SymbolicTensor {
        let is_param = op == "param";
        SymbolicTensor::new(SymNode {
            id: self.next_id(),
            op,
            label: label.to_string(),
            dims,
            attr: SymAttr::None,
            parents: Vec::new(),
            // `Tensor::param` sets requires_grad unconditionally.
            requires_grad: is_param,
            has_backward: false,
            is_param,
            frozen,
        })
    }

    /// Registers a trainable parameter leaf (mirrors `Tensor::param`);
    /// `frozen` marks a pretrained weight for the gradient-flow proofs.
    pub(crate) fn param(&self, label: &str, dims: Vec<usize>, frozen: bool) -> SymbolicTensor {
        let t = self.leaf("param", label, dims, frozen);
        self.inner.borrow_mut().params.push(t.clone());
        t
    }

    /// Creates a constant leaf (mirrors `Tensor::from_vec`).
    pub(crate) fn constant(&self, label: &str, dims: Vec<usize>) -> SymbolicTensor {
        self.leaf("leaf", label, dims, false)
    }

    /// Creates the op node `op` over `parents`, with gradient edges when
    /// `track` holds (the caller applies the `Tensor::from_op` rule).
    pub(crate) fn op(
        &self,
        op: &'static str,
        label: String,
        dims: Vec<usize>,
        attr: SymAttr,
        parents: Vec<SymbolicTensor>,
        track: bool,
    ) -> SymbolicTensor {
        SymbolicTensor::new(SymNode {
            id: self.next_id(),
            op,
            label,
            dims,
            attr,
            parents,
            requires_grad: track,
            has_backward: track,
            is_param: false,
            frozen: false,
        })
    }

    /// Mirrors `Tensor::detach` of `source`: a fresh constant leaf
    /// labelled `<owner>.detach`. Provenance parents are kept so diagnostic
    /// chains can cross the detach, but no gradient edge exists (the real
    /// detach returns a `from_vec` leaf).
    pub fn detach(&self, source: &SymbolicTensor) -> SymbolicTensor {
        let label = match source.owner() {
            "" => "detach".to_string(),
            owner => format!("{owner}.detach"),
        };
        SymbolicTensor::new(SymNode {
            id: self.next_id(),
            op: "leaf",
            label,
            dims: source.node.dims.clone(),
            attr: SymAttr::None,
            parents: vec![source.clone()],
            requires_grad: false,
            has_backward: false,
            is_param: false,
            frozen: false,
        })
    }

    /// All parameters registered during the trace, in creation order.
    pub fn params(&self) -> Vec<SymbolicTensor> {
        self.inner.borrow().params.clone()
    }
}

impl SymbolicTensor {
    fn new(node: SymNode) -> SymbolicTensor {
        SymbolicTensor {
            node: Rc::new(node),
        }
    }

    /// Unique node id within its context.
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Producing op name (`"leaf"` / `"param"` for leaves).
    pub fn op_name(&self) -> &'static str {
        self.node.op
    }

    /// Component label recorded at creation (e.g. `"student.projection"`).
    pub fn label(&self) -> &str {
        &self.node.label
    }

    /// The module this node belongs to: the module part of a leaf's label,
    /// an op's own label.
    pub(crate) fn owner(&self) -> &str {
        match self.node.op {
            "param" | "leaf" => module_of(&self.node.label),
            _ => &self.node.label,
        }
    }

    /// Static operand payload recorded at creation (scalar constants,
    /// reduction axes, permutations) — what the plan compiler consumes.
    pub fn attr(&self) -> &SymAttr {
        &self.node.attr
    }

    /// Symbolic shape.
    pub fn dims(&self) -> &[usize] {
        &self.node.dims
    }

    /// Mirrors `Tensor::requires_grad`.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// Mirrors `Tensor::is_leaf` (`backward.is_none()`): true for leaves
    /// *and* untracked op nodes.
    pub fn is_leaf(&self) -> bool {
        !self.node.has_backward
    }

    /// True for trainable parameter leaves.
    pub fn is_param(&self) -> bool {
        self.node.is_param
    }

    /// True for parameters registered as frozen.
    pub fn is_frozen(&self) -> bool {
        self.node.frozen
    }

    /// Provenance parents (always recorded, even for untracked nodes).
    pub fn parents(&self) -> &[SymbolicTensor] {
        &self.node.parents
    }

    /// Gradient-edge parents: what the real engine records. Empty for
    /// leaves and untracked nodes, mirroring `Tensor::parents`.
    pub fn grad_parents(&self) -> &[SymbolicTensor] {
        if self.node.has_backward {
            &self.node.parents
        } else {
            const EMPTY: &[SymbolicTensor] = &[];
            EMPTY
        }
    }

    fn describe(&self) -> String {
        let grad = if self.node.requires_grad { " grad" } else { "" };
        if self.node.label.is_empty() {
            format!(
                "#{} {} {}{grad}",
                self.node.id,
                self.node.op,
                render_dims(&self.node.dims)
            )
        } else {
            format!(
                "#{} {} {} @{}{grad}",
                self.node.id,
                self.node.op,
                render_dims(&self.node.dims),
                self.node.label
            )
        }
    }

    /// First-parent lineage as display lines, mirroring
    /// `Tensor::provenance` (at most `max_hops` entries).
    pub fn provenance_lines(&self, max_hops: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let mut cur = self.clone();
        for _ in 0..max_hops {
            lines.push(cur.describe());
            match cur.node.parents.first() {
                Some(p) => {
                    let p = p.clone();
                    cur = p;
                }
                None => return lines,
            }
        }
        lines.push("…".to_string());
        lines
    }
}

/// All parameter leaves reachable from `root` through gradient edges — the
/// set the real backward pass would deposit gradients on.
pub fn reachable_params(root: &SymbolicTensor) -> Vec<SymbolicTensor> {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut out = Vec::new();
    let mut stack = vec![root.clone()];
    while let Some(t) = stack.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        if t.is_param() {
            out.push(t.clone());
        }
        for p in t.grad_parents() {
            stack.push(p.clone());
        }
    }
    out.sort_by_key(|t| t.id());
    out
}

/// Shortest gradient path from `root` down to the node with `target_id`,
/// as display lines (root first). `None` when unreachable.
pub fn find_path(root: &SymbolicTensor, target_id: u64) -> Option<Vec<String>> {
    // BFS parent-pointer reconstruction over gradient edges.
    let mut prev: HashMap<u64, SymbolicTensor> = HashMap::new();
    let mut by_id: HashMap<u64, SymbolicTensor> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    by_id.insert(root.id(), root.clone());
    queue.push_back(root.clone());
    while let Some(t) = queue.pop_front() {
        if t.id() == target_id {
            let mut chain = vec![t.describe()];
            let mut cur = t.id();
            while let Some(p) = prev.get(&cur) {
                chain.push(p.describe());
                cur = p.id();
            }
            chain.reverse();
            return Some(chain);
        }
        for p in t.grad_parents() {
            if let std::collections::hash_map::Entry::Vacant(e) = by_id.entry(p.id()) {
                e.insert(p.clone());
                prev.insert(p.id(), t.clone());
                queue.push_back(p.clone());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::replay_labelled;
    use crate::Tensor;

    #[test]
    fn detach_blocks_gradient_reachability() {
        let p = Tensor::param(vec![1.0; 3], [3]);
        let reachable = replay_labelled(&[("p", &p)], || p.mul_scalar(2.0).sum());
        let blocked = replay_labelled(&[("p", &p)], || p.mul_scalar(2.0).detach().sum());
        assert_eq!(reachable_params(&reachable).len(), 1);
        assert_eq!(reachable_params(&blocked).len(), 0);
        // Provenance still crosses the detach for diagnostics.
        assert!(blocked.parents()[0].parents()[0].parents().len() == 1);
    }

    #[test]
    fn find_path_names_route() {
        let p = Tensor::param(vec![1.0, -1.0], [2]);
        let loss = replay_labelled(&[("enc.w", &p)], || p.relu().sum());
        let w = loss.parents()[0].parents()[0].clone();
        let path = find_path(&loss, w.id()).unwrap();
        assert_eq!(path.len(), 3);
        assert!(path[0].contains("sum"));
        assert!(path[2].contains("enc.w"));
        assert!(find_path(&loss, 9999).is_none());
    }

    #[test]
    fn dropped_replay_is_freed() {
        let ctx = SymCtx::default();
        let w = ctx.param("w", vec![4], false);
        let _cut = ctx.detach(&w);
        let registry = Rc::downgrade(&ctx.inner);
        drop(ctx);
        assert!(
            registry.upgrade().is_none(),
            "parameter nodes keep their context alive"
        );
    }

    #[test]
    fn frozen_registration_marks_params() {
        let ctx = SymCtx::default();
        let f = ctx.param("tok", vec![10, 4], true);
        let t = ctx.param("w", vec![4], false);
        assert!(f.is_frozen() && !t.is_frozen());
        assert_eq!(ctx.params().len(), 2);
    }
}
