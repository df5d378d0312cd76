//! Symbolic graph IR: shape inference and gradient-flow analysis without
//! executing kernels.
//!
//! A [`SymbolicTensor`] stands for one autograd node — op name, shape,
//! parents, `requires_grad` — but carries no data. Graphs are not written by hand: the
//! [`Recorder`](crate::Recorder) replays a recorded real forward through
//! these constructors, one per real op, so the tracking rule is that of
//! `Tensor::from_op`: a node produced under [`SymCtx::no_grad`] or with no
//! grad-requiring parent records no *gradient* edges (it becomes a frontier
//! leaf exactly as the real engine's untracked nodes do), though full
//! provenance parents are always retained for error messages.
//!
//! Three analyses build on the IR:
//! - every op returns `Result<_, ShapeError>`, so shape inference is the
//!   replay itself — a mismatch surfaces with a provenance chain naming the
//!   offending op;
//! - [`reachable_params`] walks gradient edges from a loss root, yielding
//!   the set of parameters the backward pass would update — the basis for
//!   loss→parameter flow matrices and frozen-parameter proofs;
//! - [`find_path`] names the gradient route from a loss to a parameter,
//!   the provenance of gradient-flow findings.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use crate::shape::Shape;

/// Renders a shape as `[96, 32]`.
fn render_dims(dims: &[usize]) -> String {
    format!("{dims:?}")
}

/// A static shape-inference failure, carrying the op that rejected its
/// inputs and the provenance chain that produced them.
#[derive(Clone, Debug)]
pub struct ShapeError {
    /// Op that rejected its inputs.
    pub op: String,
    /// Component label of the op (e.g. `"teacher.sca.phi_q"`).
    pub label: String,
    /// Human-readable description of the mismatch.
    pub message: String,
    /// First-parent lineage of the offending inputs, outermost first.
    pub provenance: Vec<String>,
}

impl ShapeError {
    fn new(op: &str, label: &str, message: String, inputs: &[&SymbolicTensor]) -> ShapeError {
        let mut provenance = Vec::new();
        for t in inputs {
            provenance.extend(t.provenance_lines(8));
        }
        ShapeError {
            op: op.to_string(),
            label: label.to_string(),
            message,
            provenance,
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shape error in `{}` at `{}`: {}",
            self.op, self.label, self.message
        )?;
        for line in &self.provenance {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShapeError {}

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
    /// True for parameters created inside a [`SymCtx::frozen`] scope.
    pub(crate) frozen: bool,
}

/// A node of the symbolic graph. Cheap to clone (reference-counted).
#[derive(Clone)]
pub struct SymbolicTensor {
    node: Rc<SymNode>,
    ctx: SymCtx,
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

struct CtxInner {
    next_id: u64,
    no_grad_depth: usize,
    frozen_depth: usize,
    scope: Vec<String>,
    params: Vec<SymbolicTensor>,
}

/// Replay context: id allocation, `no_grad`/frozen scopes, component
/// labels, and the registry of parameters created during the replay.
#[derive(Clone)]
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

impl Default for SymCtx {
    fn default() -> Self {
        SymCtx::new()
    }
}

impl SymCtx {
    /// Fresh context with no nodes.
    pub fn new() -> SymCtx {
        SymCtx {
            inner: Rc::new(RefCell::new(CtxInner {
                next_id: 0,
                no_grad_depth: 0,
                frozen_depth: 0,
                scope: Vec::new(),
                params: Vec::new(),
            })),
        }
    }

    fn next_id(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        id
    }

    fn grad_disabled(&self) -> bool {
        self.inner.borrow().no_grad_depth > 0
    }

    fn current_label(&self) -> String {
        self.inner.borrow().scope.join(".")
    }

    fn scoped_label(&self, name: &str) -> String {
        let base = self.current_label();
        if base.is_empty() {
            name.to_string()
        } else if name.is_empty() {
            base
        } else {
            format!("{base}.{name}")
        }
    }

    /// Runs `f` with the component-label scope replaced by `path`, so nodes
    /// created inside report labels like `student.encoder.layer0.ln1` (the
    /// recorder replays each op under its module's path).
    pub fn with_label<R>(&self, path: &str, f: impl FnOnce() -> R) -> R {
        let saved = std::mem::take(&mut self.inner.borrow_mut().scope);
        if !path.is_empty() {
            self.inner.borrow_mut().scope.push(path.to_string());
        }
        let out = f();
        self.inner.borrow_mut().scope = saved;
        out
    }

    /// Runs `f` with gradient tracking disabled, mirroring
    /// [`no_grad`](crate::no_grad): ops created inside record no gradient
    /// edges and do not require grad.
    pub fn no_grad<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.borrow_mut().no_grad_depth += 1;
        let out = f();
        self.inner.borrow_mut().no_grad_depth -= 1;
        out
    }

    /// Runs `f` with the frozen flag set: parameters created inside are
    /// marked frozen (e.g. the pretrained CLM weights), which the
    /// gradient-flow pass uses to prove no loss can update them.
    pub fn frozen<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.borrow_mut().frozen_depth += 1;
        let out = f();
        self.inner.borrow_mut().frozen_depth -= 1;
        out
    }

    fn leaf(
        &self,
        op: &'static str,
        name: &str,
        dims: Vec<usize>,
        is_param: bool,
    ) -> SymbolicTensor {
        let frozen = self.inner.borrow().frozen_depth > 0;
        let t = SymbolicTensor {
            node: Rc::new(SymNode {
                id: self.next_id(),
                op,
                label: self.scoped_label(name),
                dims,
                attr: SymAttr::None,
                parents: Vec::new(),
                // `Tensor::param` sets requires_grad unconditionally.
                requires_grad: is_param,
                has_backward: false,
                is_param,
                frozen,
            }),
            ctx: self.clone(),
        };
        if is_param {
            self.inner.borrow_mut().params.push(t.clone());
        }
        t
    }

    /// Registers a trainable parameter leaf (mirrors `Tensor::param`).
    pub fn param(&self, name: &str, dims: Vec<usize>) -> SymbolicTensor {
        self.leaf("param", name, dims, true)
    }

    /// Creates a constant leaf (mirrors `Tensor::from_vec`).
    pub fn constant(&self, name: &str, dims: Vec<usize>) -> SymbolicTensor {
        self.leaf("leaf", name, dims, false)
    }

    /// All parameters registered during the trace, in creation order.
    pub fn params(&self) -> Vec<SymbolicTensor> {
        self.inner.borrow().params.clone()
    }
}

type SymResult = Result<SymbolicTensor, ShapeError>;

impl SymbolicTensor {
    fn from_op(
        ctx: &SymCtx,
        op: &'static str,
        dims: Vec<usize>,
        parents: Vec<SymbolicTensor>,
    ) -> SymbolicTensor {
        SymbolicTensor::from_op_attr(ctx, op, dims, parents, SymAttr::None)
    }

    fn from_op_attr(
        ctx: &SymCtx,
        op: &'static str,
        dims: Vec<usize>,
        parents: Vec<SymbolicTensor>,
        attr: SymAttr,
    ) -> SymbolicTensor {
        // Mirrors `Tensor::from_op`: track only outside no_grad and when
        // some parent requires grad. Untracked nodes keep provenance
        // parents but expose no gradient edges.
        let track = !ctx.grad_disabled() && parents.iter().any(|p| p.node.requires_grad);
        SymbolicTensor {
            node: Rc::new(SymNode {
                id: ctx.next_id(),
                op,
                label: ctx.current_label(),
                dims,
                attr,
                parents,
                requires_grad: track,
                has_backward: track,
                is_param: false,
                frozen: false,
            }),
            ctx: ctx.clone(),
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

    /// Static operand payload recorded at creation (scalar constants,
    /// reduction axes, permutations) — what the plan compiler consumes.
    pub fn attr(&self) -> &SymAttr {
        &self.node.attr
    }

    /// Symbolic shape.
    pub fn dims(&self) -> &[usize] {
        &self.node.dims
    }

    /// Product of all dimension sizes.
    pub fn num_elements(&self) -> usize {
        self.node.dims.iter().product()
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

    /// True for parameters created in a [`SymCtx::frozen`] scope.
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

    fn err(&self, op: &str, message: String, inputs: &[&SymbolicTensor]) -> ShapeError {
        ShapeError::new(op, &self.ctx.scoped_label(""), message, inputs)
    }

    // ---- element-wise binary ops (NumPy broadcast) ----

    fn broadcast_dims(
        &self,
        other: &SymbolicTensor,
        op: &'static str,
    ) -> Result<Vec<usize>, ShapeError> {
        let (a, b) = (self.dims(), other.dims());
        Shape::new(a.to_vec())
            .broadcast_with(&Shape::new(b.to_vec()))
            .map(|s| s.dims().to_vec())
            .ok_or_else(|| {
                self.err(
                    op,
                    format!(
                        "cannot broadcast {} with {}",
                        render_dims(a),
                        render_dims(b)
                    ),
                    &[self, other],
                )
            })
    }

    fn binary(&self, other: &SymbolicTensor, op: &'static str) -> SymResult {
        let dims = self.broadcast_dims(other, op)?;
        Ok(SymbolicTensor::from_op(
            &self.ctx,
            op,
            dims,
            vec![self.clone(), other.clone()],
        ))
    }

    /// Mirrors `Tensor::add`.
    pub fn add(&self, other: &SymbolicTensor) -> SymResult {
        self.binary(other, "add")
    }

    /// Mirrors `Tensor::sub`.
    pub fn sub(&self, other: &SymbolicTensor) -> SymResult {
        self.binary(other, "sub")
    }

    /// Mirrors `Tensor::mul`.
    pub fn mul(&self, other: &SymbolicTensor) -> SymResult {
        self.binary(other, "mul")
    }

    /// Mirrors `Tensor::div`.
    pub fn div(&self, other: &SymbolicTensor) -> SymResult {
        self.binary(other, "div")
    }

    /// Mirrors `Tensor::smooth_l1` — requires identical shapes.
    pub fn smooth_l1(&self, target: &SymbolicTensor) -> SymResult {
        if self.dims() != target.dims() {
            return Err(self.err(
                "smooth_l1",
                format!(
                    "prediction {} and target {} must have identical shapes",
                    render_dims(self.dims()),
                    render_dims(target.dims())
                ),
                &[self, target],
            ));
        }
        Ok(SymbolicTensor::from_op(
            &self.ctx,
            "smooth_l1",
            self.node.dims.clone(),
            vec![self.clone(), target.clone()],
        ))
    }

    // ---- element-wise unary ops ----

    fn unary(&self, op: &'static str) -> SymbolicTensor {
        SymbolicTensor::from_op(&self.ctx, op, self.node.dims.clone(), vec![self.clone()])
    }

    fn unary_attr(&self, op: &'static str, attr: SymAttr) -> SymbolicTensor {
        SymbolicTensor::from_op_attr(
            &self.ctx,
            op,
            self.node.dims.clone(),
            vec![self.clone()],
            attr,
        )
    }

    /// Mirrors `Tensor::add_scalar`, recording the scalar operand so a
    /// compiled plan can replay the op exactly.
    pub fn add_scalar(&self, c: f32) -> SymbolicTensor {
        self.unary_attr("add_scalar", SymAttr::Scalar(c))
    }

    /// Mirrors `Tensor::mul_scalar`, recording the scalar operand so a
    /// compiled plan can replay the op exactly.
    pub fn mul_scalar(&self, c: f32) -> SymbolicTensor {
        self.unary_attr("mul_scalar", SymAttr::Scalar(c))
    }

    /// Mirrors `Tensor::rsqrt`.
    pub fn rsqrt(&self) -> SymbolicTensor {
        self.unary("rsqrt")
    }

    /// Mirrors `Tensor::square`.
    pub fn square(&self) -> SymbolicTensor {
        self.unary("square")
    }

    /// Mirrors `Tensor::relu`.
    pub fn relu(&self) -> SymbolicTensor {
        self.unary("relu")
    }

    /// Mirrors `Tensor::gelu`.
    pub fn gelu(&self) -> SymbolicTensor {
        self.unary("gelu")
    }

    /// Mirrors `Tensor::softmax_last`.
    pub fn softmax_last(&self) -> SymbolicTensor {
        self.unary("softmax_last")
    }

    // ---- reductions ----

    /// Mirrors `Tensor::sum` (scalar output).
    pub fn sum(&self) -> SymbolicTensor {
        SymbolicTensor::from_op(&self.ctx, "sum", Vec::new(), vec![self.clone()])
    }

    /// Mirrors `Tensor::mean` = `sum` + `mul_scalar(1/n)` (two nodes, with
    /// the same scalar the real kernel applies).
    pub fn mean(&self) -> SymbolicTensor {
        let n = self.num_elements();
        self.sum().mul_scalar(1.0 / n as f32)
    }

    /// Mirrors `Tensor::sum_axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> SymResult {
        if axis >= self.node.dims.len() {
            return Err(self.err(
                "sum_axis",
                format!("axis {axis} out of range for {}", render_dims(self.dims())),
                &[self],
            ));
        }
        let mut dims = self.node.dims.clone();
        if keepdim {
            dims[axis] = 1;
        } else {
            dims.remove(axis);
        }
        Ok(SymbolicTensor::from_op_attr(
            &self.ctx,
            "sum_axis",
            dims,
            vec![self.clone()],
            SymAttr::Axis { axis, keepdim },
        ))
    }

    // ---- matmul (rank dispatch mirrors `Tensor::matmul`) ----

    /// Mirrors `Tensor::matmul`: `[M,K]@[K,N]`, `[B,M,K]@[B,K,N]`, or
    /// `[B,M,K]@[K,N]`.
    pub fn matmul(&self, other: &SymbolicTensor) -> SymResult {
        let a = &self.node.dims;
        let b = &other.node.dims;
        match (a.len(), b.len()) {
            (2, 2) => {
                self.check_inner("matmul_2d", a[1], b[0], other)?;
                Ok(SymbolicTensor::from_op(
                    &self.ctx,
                    "matmul_2d",
                    vec![a[0], b[1]],
                    vec![self.clone(), other.clone()],
                ))
            }
            (3, 3) => {
                if a[0] != b[0] {
                    return Err(self.err(
                        "matmul_batched",
                        format!("batch dims differ: {} vs {}", a[0], b[0]),
                        &[self, other],
                    ));
                }
                self.check_inner("matmul_batched", a[2], b[1], other)?;
                Ok(SymbolicTensor::from_op(
                    &self.ctx,
                    "matmul_batched",
                    vec![a[0], a[1], b[2]],
                    vec![self.clone(), other.clone()],
                ))
            }
            (3, 2) => {
                self.check_inner("matmul_3d_2d", a[2], b[0], other)?;
                Ok(SymbolicTensor::from_op(
                    &self.ctx,
                    "matmul_3d_2d",
                    vec![a[0], a[1], b[1]],
                    vec![self.clone(), other.clone()],
                ))
            }
            (ra, rb) => Err(self.err(
                "matmul",
                format!(
                    "unsupported rank combination {ra}x{rb} ({} @ {})",
                    render_dims(a),
                    render_dims(b)
                ),
                &[self, other],
            )),
        }
    }

    fn check_inner(
        &self,
        op: &str,
        lhs: usize,
        rhs: usize,
        other: &SymbolicTensor,
    ) -> Result<(), ShapeError> {
        if lhs != rhs {
            return Err(self.err(
                op,
                format!(
                    "inner dimensions disagree: {} @ {} ({lhs} != {rhs})",
                    render_dims(self.dims()),
                    render_dims(other.dims())
                ),
                &[self, other],
            ));
        }
        Ok(())
    }

    // ---- shape surgery ----

    /// Mirrors `Tensor::reshape` — element count must be preserved, which
    /// is what catches a head dim that does not divide the model dim.
    pub fn reshape(&self, dims: Vec<usize>) -> SymResult {
        let new: usize = dims.iter().product();
        if new != self.num_elements() {
            return Err(self.err(
                "reshape",
                format!(
                    "cannot reshape {} ({} elements) into {} ({} elements)",
                    render_dims(self.dims()),
                    self.num_elements(),
                    render_dims(&dims),
                    new
                ),
                &[self],
            ));
        }
        Ok(SymbolicTensor::from_op(
            &self.ctx,
            "reshape",
            dims,
            vec![self.clone()],
        ))
    }

    /// Mirrors `Tensor::permute`.
    pub fn permute(&self, perm: &[usize]) -> SymResult {
        let rank = self.node.dims.len();
        let mut seen = vec![false; rank];
        if perm.len() != rank
            || perm
                .iter()
                .any(|&p| p >= rank || std::mem::replace(&mut seen[p], true))
        {
            return Err(self.err(
                "permute",
                format!(
                    "invalid permutation {perm:?} for {}",
                    render_dims(self.dims())
                ),
                &[self],
            ));
        }
        let dims = perm.iter().map(|&p| self.node.dims[p]).collect();
        Ok(SymbolicTensor::from_op_attr(
            &self.ctx,
            "permute",
            dims,
            vec![self.clone()],
            SymAttr::Perm(perm.to_vec()),
        ))
    }

    /// Mirrors `Tensor::slice`.
    pub fn slice(&self, axis: usize, start: usize, len: usize) -> SymResult {
        if axis >= self.node.dims.len() || start + len > self.node.dims[axis] {
            return Err(self.err(
                "slice",
                format!(
                    "slice axis {axis} range {start}..{} out of bounds for {}",
                    start + len,
                    render_dims(self.dims())
                ),
                &[self],
            ));
        }
        let mut dims = self.node.dims.clone();
        dims[axis] = len;
        Ok(SymbolicTensor::from_op_attr(
            &self.ctx,
            "slice",
            dims,
            vec![self.clone()],
            SymAttr::Slice { axis, start, len },
        ))
    }

    /// Mirrors `Tensor::concat` along `axis`.
    pub fn concat(tensors: &[SymbolicTensor], axis: usize) -> SymResult {
        let first = tensors.first().expect("concat of zero tensors");
        let rank = first.node.dims.len();
        let mut total = 0usize;
        for t in tensors {
            if t.node.dims.len() != rank || axis >= rank {
                return Err(first.err(
                    "concat",
                    format!(
                        "rank mismatch in concat: {} vs {}",
                        render_dims(first.dims()),
                        render_dims(t.dims())
                    ),
                    &[first, t],
                ));
            }
            for (i, (a, b)) in first.node.dims.iter().zip(t.node.dims.iter()).enumerate() {
                if i != axis && a != b {
                    return Err(first.err(
                        "concat",
                        format!(
                            "non-concat axis {i} differs: {} vs {}",
                            render_dims(first.dims()),
                            render_dims(t.dims())
                        ),
                        &[first, t],
                    ));
                }
            }
            total += t.node.dims[axis];
        }
        let mut dims = first.node.dims.clone();
        dims[axis] = total;
        Ok(SymbolicTensor::from_op_attr(
            &first.ctx,
            "concat",
            dims,
            tensors.to_vec(),
            SymAttr::Concat { axis },
        ))
    }

    /// Mirrors `Tensor::fused_attention`: one fused node for
    /// `softmax(QK^T/√dh + mask)V` over `[H, T, dh]` inputs.
    ///
    /// Returns the merged context `[T_q, H·dh]` (grad parents `[q, k, v]`)
    /// and the head-averaged map `[T_q, T_k]` (grad parents `[q, k]`).
    /// Like the dynamic op, the mask is captured data, not a parent, so
    /// node/edge counts stay in lockstep with the runtime graph.
    pub fn fused_attention(
        q: &SymbolicTensor,
        k: &SymbolicTensor,
        v: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<(SymbolicTensor, SymbolicTensor), ShapeError> {
        if q.node.dims.len() != 3 || k.node.dims.len() != 3 {
            return Err(q.err(
                "fused_attention",
                format!(
                    "q and k must be [H, T, dh], got {} and {}",
                    render_dims(q.dims()),
                    render_dims(k.dims())
                ),
                &[q, k],
            ));
        }
        let (heads, tq, dh) = (q.node.dims[0], q.node.dims[1], q.node.dims[2]);
        let tk = k.node.dims[1];
        if k.node.dims[0] != heads || k.node.dims[2] != dh {
            return Err(q.err(
                "fused_attention",
                format!(
                    "q {} and k {} disagree on heads or head dim",
                    render_dims(q.dims()),
                    render_dims(k.dims())
                ),
                &[q, k],
            ));
        }
        if v.dims() != k.dims() {
            return Err(k.err(
                "fused_attention",
                format!(
                    "k {} and v {} must have identical shapes",
                    render_dims(k.dims()),
                    render_dims(v.dims())
                ),
                &[k, v],
            ));
        }
        if let Some(m) = mask {
            if m.dims() != [tq, tk] {
                return Err(m.err(
                    "fused_attention",
                    format!(
                        "mask {} does not match scores [{}, {}]",
                        render_dims(m.dims()),
                        tq,
                        tk
                    ),
                    &[q, k, m],
                ));
            }
            if m.requires_grad() {
                return Err(m.err(
                    "fused_attention",
                    "the additive mask must not require gradients".to_string(),
                    &[m],
                ));
            }
        }
        let out = SymbolicTensor::from_op(
            &q.ctx,
            "fused_attention",
            vec![tq, heads * dh],
            vec![q.clone(), k.clone(), v.clone()],
        );
        let map = SymbolicTensor::from_op(
            &q.ctx,
            "fused_attention_map",
            vec![tq, tk],
            vec![q.clone(), k.clone()],
        );
        Ok((out, map))
    }

    /// Mirrors `Tensor::index_select_rows` on a rank-2 table.
    pub fn index_select_rows(&self, num_indices: usize) -> SymResult {
        if self.node.dims.len() != 2 {
            return Err(self.err(
                "index_select_rows",
                format!("expects a rank-2 table, got {}", render_dims(self.dims())),
                &[self],
            ));
        }
        let dims = vec![num_indices, self.node.dims[1]];
        Ok(SymbolicTensor::from_op(
            &self.ctx,
            "index_select_rows",
            dims,
            vec![self.clone()],
        ))
    }

    /// Mirrors `Tensor::detach`: a fresh constant leaf. Provenance parents
    /// are kept so error chains can cross the detach, but no gradient edge
    /// exists (the real detach returns a `from_vec` leaf).
    pub fn detach(&self) -> SymbolicTensor {
        SymbolicTensor {
            node: Rc::new(SymNode {
                id: self.ctx.next_id(),
                op: "leaf",
                label: self.ctx.scoped_label("detach"),
                dims: self.node.dims.clone(),
                attr: SymAttr::None,
                parents: vec![self.clone()],
                requires_grad: false,
                has_backward: false,
                is_param: false,
                frozen: false,
            }),
            ctx: self.ctx.clone(),
        }
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

    #[test]
    fn matmul_shape_inference() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![96, 7]);
        let w = ctx.param("w", vec![7, 32]);
        let y = x.matmul(&w).unwrap();
        assert_eq!(y.dims(), [96, 32]);
        assert_eq!(y.op_name(), "matmul_2d");
    }

    #[test]
    fn matmul_mismatch_has_provenance() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![96, 7]);
        let w = ctx.param("w", vec![32, 32]);
        let err = ctx
            .with_label("student.embed", || x.matmul(&w))
            .unwrap_err();
        assert_eq!(err.op, "matmul_2d");
        assert_eq!(err.label, "student.embed");
        assert!(err.message.contains("(7 != 32)"), "{}", err.message);
        assert!(!err.provenance.is_empty());
    }

    #[test]
    fn broadcast_matches_engine_rules() {
        let ctx = SymCtx::new();
        let a = ctx.constant("a", vec![4, 3]);
        let b = ctx.constant("b", vec![1, 3]);
        assert_eq!(a.add(&b).unwrap().dims(), [4, 3]);
        let c = ctx.constant("c", vec![5]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn tracking_mirrors_from_op() {
        let ctx = SymCtx::new();
        let p = ctx.param("p", vec![4]);
        let c = ctx.constant("c", vec![4]);
        // Constant-only op: untracked, counts as a leaf.
        let cc = c.mul_scalar(2.0);
        assert!(!cc.requires_grad() && cc.is_leaf());
        assert!(cc.grad_parents().is_empty());
        // Param-involving op: tracked.
        let y = p.add(&c).unwrap();
        assert!(y.requires_grad() && !y.is_leaf());
        // Under no_grad nothing tracks.
        let z = ctx.no_grad(|| p.mul_scalar(2.0));
        assert!(!z.requires_grad() && z.is_leaf());
    }

    #[test]
    fn detach_blocks_gradient_reachability() {
        let ctx = SymCtx::new();
        let p = ctx.param("p", vec![3]);
        let reachable = p.mul_scalar(2.0).sum();
        let blocked = p.mul_scalar(2.0).detach().sum();
        assert_eq!(reachable_params(&reachable).len(), 1);
        assert_eq!(reachable_params(&blocked).len(), 0);
        // Provenance still crosses the detach for error reporting.
        assert!(blocked.parents()[0].parents()[0].parents().len() == 1);
    }

    #[test]
    fn find_path_names_route() {
        let ctx = SymCtx::new();
        let p = ctx.with_label("enc", || ctx.param("w", vec![2]));
        let loss = p.relu().sum();
        let path = find_path(&loss, p.id()).unwrap();
        assert_eq!(path.len(), 3);
        assert!(path[0].contains("sum"));
        assert!(path[2].contains("enc.w"));
        assert!(find_path(&loss, 9999).is_none());
    }

    #[test]
    fn frozen_scope_marks_params() {
        let ctx = SymCtx::new();
        let f = ctx.frozen(|| ctx.param("tok", vec![10, 4]));
        let t = ctx.param("w", vec![4]);
        assert!(f.is_frozen() && !t.is_frozen());
        assert_eq!(ctx.params().len(), 2);
    }

    #[test]
    fn reshape_rejects_element_count_change() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![5, 6]);
        assert!(x.reshape(vec![5, 2, 3]).is_ok());
        let err = x.reshape(vec![5, 4, 1]).unwrap_err();
        assert!(err.message.contains("30 elements"), "{}", err.message);
    }

    #[test]
    fn slice_and_concat_shapes() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![10, 4]);
        let last = x.slice(0, 9, 1).unwrap();
        assert_eq!(last.dims(), [1, 4]);
        assert!(x.slice(0, 8, 3).is_err());
        let rows: Vec<SymbolicTensor> = (0..3).map(|_| ctx.constant("r", vec![1, 4])).collect();
        let cat = SymbolicTensor::concat(&rows, 0).unwrap();
        assert_eq!(cat.dims(), [3, 4]);
    }
}
