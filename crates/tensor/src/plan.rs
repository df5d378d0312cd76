//! Static execution plans: the symbolic graph compiled into a fixed op
//! schedule plus a liveness-colored buffer arena.
//!
//! [`Plan::compile`] lowers a traced [`SymbolicTensor`] graph into a
//! shape-specialized [`Plan`]: a topologically ordered list of
//! [`PlanStep`]s and an arena of reusable buffer [`PlanSlot`]s assigned by
//! classic liveness analysis — def/use intervals over the schedule, an
//! interference relation (two values interfere when their intervals
//! overlap), and first-fit slot coloring. [`PlanExecutor`] then replays the
//! schedule with *zero* graph construction and *zero* allocation per call,
//! invoking the same row-block kernels as the dynamic engine, so planned
//! outputs are bitwise identical to dynamic execution.
//!
//! The plan is deliberately easy to distrust: every structural fact
//! (schedule order, slot assignment, arena bound, dependency edges) is
//! stored explicitly so `timekd-check --plan` can re-derive liveness from
//! scratch and prove interference soundness, def-before-use, the arena
//! bound, and a clean diff against the symbolic graph. [`Plan::inject_fault`]
//! deliberately corrupts a compiled plan along each of those axes for
//! fault-injection tests of the verifier.
//!
//! Liveness is conservative: an input is considered live *through* the
//! step that consumes it, so an op's output never shares a slot with any
//! of its inputs and no kernel ever aliases in-place.
//!
//! ## Lowering exceptions
//!
//! RevIN instance statistics are computed outside autograd by the real
//! model and enter the symbolic graph as constant `[1, N]` leaves — once
//! under `normalize` and again under `denormalize`. The compiler lowers
//! each distinct stat *label* to one synthesized [`PlanOp::ColMean`] /
//! [`PlanOp::ColStd`] step over the plan input (replicating the RevIN
//! arithmetic bitwise), so a stat value carries several symbolic ids in
//! [`PlanValue::sym_ids`].
//!
//! Runtime data operands are leaves like any other: the ids of
//! `index_select_rows` and `gather_last` and the mask of a masked
//! `fused_attention` are the ops' last parents, so a plan feeds them as its
//! input or as aux leaves ([`PlanSpec::aux_labels`]). A masked attention's
//! mask must be an aux leaf or a row window of one (a `slice` along axis
//! 0, as a forward that runs its last rows only takes): the step reads
//! those rows of the feed in place. [`PlanExecutor::set_aux`] counts each
//! row's live keys when the mask is fed, outside the replay loop, and the
//! kernels skip the forbidden keys exactly as the dynamic op does. The
//! masked attention *map* has no lowering.
//!
//! `concat` lowers to [`PlanOp::Concat`], a forward-only copy (a cached
//! key/value prefix joined to a continuation's own rows); training plans
//! reject it.
//!
//! ## Training plans
//!
//! [`Plan::compile_training`] (in [`crate::plan_train`]) extends a forward
//! plan with a statically derived reverse schedule ([`Plan::bwd_steps`]),
//! fused optimizer updates ([`Plan::update_steps`]), and a `Target` leaf
//! fed with the label window. Gradient buffers are colored into the same
//! arena by the same interference/first-fit machinery, over the combined
//! forward + backward + update timeline — saved activations stay pinned
//! across the reversal point until their last backward consumer. Forward
//! plans carry empty backward/update schedules and are byte-identical to
//! what this module compiled before training support existed.

use std::collections::HashMap;
use std::fmt;

use crate::ops::attention::{attn_fwd_row_block, live_keys, KeyMask};
use crate::ops::kernels::{
    binary_block, broadcast_walk, gather_last_block, gather_rows_block, log_softmax_block,
    permute_block, permute_walk, slice_block, sum_axis_block, unary_block, AxisSplit, BinKind,
    RowWalk, UnKind,
};
use crate::ops::matmul::mm_row_block;
use crate::plan_train::{BwdStep, PlanOptimizer, UpdateStep};
use crate::symbolic::{SymAttr, SymbolicTensor};

/// Index of a [`PlanValue`] within its plan.
pub type ValueId = usize;

/// Maximum tensor rank a plan supports (the student graphs are rank ≤ 3).
pub const MAX_PLAN_RANK: usize = 6;

/// A plan compilation or binding failure.
#[derive(Clone, Debug)]
pub struct PlanError {
    /// Human-readable description of what could not be compiled or bound.
    pub message: String,
}

impl PlanError {
    pub(crate) fn new(message: impl Into<String>) -> PlanError {
        PlanError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

/// Numeric precision of a published model. Every plan and executor is
/// f32, so this has one variant; it survives only because the benchmark
/// package still names `Precision::F32` in its `publish` calls, and goes
/// once those calls drop the argument.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 kernels everywhere.
    #[default]
    F32,
}

/// How to treat the symbolic graph's constant leaves during lowering.
#[derive(Clone, Debug, Default)]
pub struct PlanSpec {
    /// Label of the single runtime-fed input leaf (e.g. `"x"`).
    pub input_label: String,
    /// Labels of `[1, N]` constant leaves lowered to a per-column mean of
    /// the input (RevIN `mu`).
    pub col_mean_leaves: Vec<String>,
    /// Labels (with epsilon) of `[1, N]` constant leaves lowered to a
    /// per-column standard deviation of the input (RevIN `std`).
    pub col_std_leaves: Vec<(String, f32)>,
    /// Labels of auxiliary constant leaves fed per step at run time (e.g.
    /// teacher activations in a distillation objective). A label's index
    /// in this list is its [`PlanExecutor::set_aux`] feed slot; labels
    /// absent from a particular graph are tolerated (their slots are
    /// empty).
    pub aux_labels: Vec<String>,
}

/// The executable operation of one schedule step.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanOp {
    /// Element-wise `a + b` with broadcasting.
    Add,
    /// Element-wise `a - b` with broadcasting.
    Sub,
    /// Element-wise `a * b` with broadcasting.
    Mul,
    /// Element-wise `a / b` with broadcasting.
    Div,
    /// `x + c`.
    AddScalar(f32),
    /// `x * c`.
    MulScalar(f32),
    /// `1 / sqrt(x)`.
    Rsqrt,
    /// `x * x`.
    Square,
    /// `max(x, 0)`.
    Relu,
    /// GELU (tanh approximation), matching the dynamic kernel.
    Gelu,
    /// Sum over one axis (output shape is recorded on the value).
    SumAxis {
        /// Reduced input axis.
        axis: usize,
    },
    /// Dense `[M, K] @ [K, N]` product.
    Matmul2d,
    /// Pure copy into the recorded output shape.
    Reshape,
    /// Axis reorder (pure strided copy).
    Permute(Vec<usize>),
    /// Fused unmasked multi-head attention over `[H, T, dh]` inputs,
    /// producing the merged `[T_q, H·dh]` context.
    FusedAttention {
        /// Head count.
        heads: usize,
        /// Query length.
        tq: usize,
        /// Key length.
        tk: usize,
        /// Per-head dim.
        dh: usize,
    },
    /// The `[T_q, T_k]` head-averaged attention map of a fused unmasked
    /// multi-head attention (the distillation surface; context discarded).
    FusedAttentionMap {
        /// Head count.
        heads: usize,
        /// Query length.
        tq: usize,
        /// Key length.
        tk: usize,
        /// Per-head dim.
        dh: usize,
    },
    /// Synthesized per-column mean of the `[T, N]` input (RevIN `mu`).
    ColMean,
    /// Synthesized per-column std of the `[T, N]` input (RevIN `std`).
    ColStd {
        /// Variance epsilon, matching the real layer.
        eps: f32,
    },
    /// Element-wise Smooth-L1 (Huber, δ=1) loss over identical shapes.
    SmoothL1,
    /// Full reduction to a single scalar (serial ascending sum, exactly
    /// like the dynamic kernel).
    Sum,
    /// Row gather from a `[V, d]` table by a runtime `[S]` id vector (the
    /// second operand; ids are exact integers in f32), e.g. the token
    /// embedding lookup.
    IndexSelectRows,
    /// The window `start..start + len` of one axis.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// Kept length.
        len: usize,
    },
    /// Log-softmax over the last axis.
    LogSoftmaxLast,
    /// One element per row along the last axis, picked by a runtime id
    /// vector (the second operand).
    GatherLast,
    /// Fused multi-head attention under an additive `[T_q, T_k]` mask,
    /// the fourth operand, which must be an aux leaf fed at run time or a
    /// row window of one. Each query row visits only its live keys, as in
    /// the dynamic op.
    MaskedAttention {
        /// Head count.
        heads: usize,
        /// Query length.
        tq: usize,
        /// Key length.
        tk: usize,
        /// Per-head dim.
        dh: usize,
    },
    /// Every operand, in order, joined along `axis` (a pure copy).
    /// Forward only: [`Plan::compile_training`] rejects it.
    Concat {
        /// Joined axis.
        axis: usize,
    },
}

/// Where a plan value's bytes come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueSource {
    /// The runtime input passed to [`PlanExecutor::run`].
    Input,
    /// A parameter bound by label at executor construction.
    Param,
    /// Produced by the schedule step with this index.
    Step(usize),
    /// The training target fed per step (training plans only).
    Target,
    /// A gradient buffer first written by the backward step with this
    /// index (training plans only).
    Grad(usize),
    /// An auxiliary per-step constant fed at run time via
    /// [`PlanExecutor::set_aux`]; the index is the position of the leaf's
    /// label in [`PlanSpec::aux_labels`].
    Aux(usize),
}

/// One value (tensor) of a compiled plan.
#[derive(Clone, Debug)]
pub struct PlanValue {
    /// Provenance of the bytes.
    pub source: ValueSource,
    /// Concrete shape.
    pub dims: Vec<usize>,
    /// Component label (parameter path, leaf name, or producing op label).
    pub label: String,
    /// Symbolic node ids this value realizes. Exactly one except for
    /// deduplicated stat leaves (see the module docs).
    pub sym_ids: Vec<u64>,
    /// Arena slot for step outputs and gradient buffers; `None` for
    /// input/param/target leaves, which live in dedicated buffers.
    pub slot: Option<usize>,
    /// Mirrors the symbolic `requires_grad` (true for parameters).
    pub requires_grad: bool,
    /// Mirrors the symbolic `is_frozen` for parameters (frozen params are
    /// provably excluded from gradient flow by the verifier).
    pub frozen: bool,
    /// For gradient values: the forward value this is the adjoint of.
    pub adjoint_of: Option<ValueId>,
}

impl PlanValue {
    /// Element count of the value.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the value has no elements (never the case in a valid plan).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One scheduled operation of a compiled plan.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// The operation to execute.
    pub op: PlanOp,
    /// Operand values, in kernel order.
    pub inputs: Vec<ValueId>,
    /// Output value.
    pub output: ValueId,
    /// Symbolic node this step lowers; `None` for synthesized stat steps.
    pub sym_id: Option<u64>,
    /// Symbolic op name (`""` for synthesized steps) — for graph diffing.
    pub sym_op: &'static str,
    /// Mirrors the symbolic node's `has_backward`: whether the dynamic
    /// engine would record gradient edges for this op.
    pub tracked: bool,
}

/// One reusable arena buffer, shared by non-interfering values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanSlot {
    /// Offset into the arena, in elements.
    pub offset: usize,
    /// Extent in elements (max over assigned values).
    pub size: usize,
}

/// A deliberate corruption of a compiled plan, one per verifier pass, used
/// to prove each `timekd-check --plan` analysis actually fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanFault {
    /// Assign a step's output to the slot of one of its live inputs
    /// (breaks interference soundness).
    OverlapSlots,
    /// Swap a producing step after its consumer (breaks def-before-use).
    SwapSchedule,
    /// Shrink the declared arena below the analysis bound.
    ShrinkArena,
    /// Drop one dependency edge from a step (breaks the graph diff).
    DropEdge,
    /// Remove the sole gradient write of one trainable parameter (breaks
    /// adjoint completeness; training plans only).
    DropAdjoint,
    /// Re-home a backward-read forward value into a gradient slot whose
    /// combined-timeline interval overlaps it (breaks saved-activation
    /// liveness; training plans only).
    ClobberSavedActivation,
    /// Swap a gradient's writing backward step after a backward step that
    /// reads it (breaks reverse-topological validity; training plans only).
    ReorderBackward,
    /// Freeze a trained parameter while leaving its (now orphaned)
    /// gradient value in place — the plan then provably skips a parameter
    /// the dynamic engine trains (caught only by the plan-vs-dynamic
    /// gradient diff; training plans only).
    UpdateFrozenParam,
}

/// A compiled, shape-specialized execution plan. See the module docs.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) spec: PlanSpec,
    pub(crate) values: Vec<PlanValue>,
    pub(crate) steps: Vec<PlanStep>,
    pub(crate) slots: Vec<PlanSlot>,
    pub(crate) arena_len: usize,
    pub(crate) input: ValueId,
    pub(crate) root: ValueId,
    pub(crate) bwd_steps: Vec<BwdStep>,
    pub(crate) update_steps: Vec<UpdateStep>,
    pub(crate) target: Option<ValueId>,
    pub(crate) optimizer: Option<PlanOptimizer>,
    pub(crate) grad_clip: Option<f32>,
    pub(crate) clip_grads: Vec<ValueId>,
    pub(crate) pinned: Vec<ValueId>,
}

/// Intermediate result of forward lowering, shared by [`Plan::compile`]
/// and the training compiler in [`crate::plan_train`].
pub(crate) struct ForwardLowering {
    pub(crate) values: Vec<PlanValue>,
    pub(crate) steps: Vec<PlanStep>,
    pub(crate) val_of: HashMap<u64, ValueId>,
    pub(crate) input: ValueId,
    pub(crate) root: ValueId,
    pub(crate) target: Option<ValueId>,
}

impl Plan {
    /// Lowers the provenance graph reachable from `root` into a static
    /// plan under `spec`. Fails with a named diagnostic on any op with no
    /// plan lowering, on constant leaves the spec does not classify, and
    /// on graphs whose root is itself a leaf.
    pub fn compile(root: &SymbolicTensor, spec: &PlanSpec) -> Result<Plan, PlanError> {
        let lowering = lower_forward(root, spec, None)?;
        let ForwardLowering {
            mut values,
            steps,
            input,
            root: root_val,
            ..
        } = lowering;
        let (slots, arena_len) = assign_slots(&mut values, &steps, &[], &[], root_val, &[]);
        Ok(Plan {
            spec: spec.clone(),
            values,
            steps,
            slots,
            arena_len,
            input,
            root: root_val,
            bwd_steps: Vec::new(),
            update_steps: Vec::new(),
            target: None,
            optimizer: None,
            grad_clip: None,
            clip_grads: Vec::new(),
            pinned: Vec::new(),
        })
    }
}

/// Lowers the forward graph under `spec`. When `target_label` is `Some`,
/// the matching constant leaf becomes the plan's [`ValueSource::Target`]
/// value instead of an error.
pub(crate) fn lower_forward(
    root: &SymbolicTensor,
    spec: &PlanSpec,
    target_label: Option<&str>,
) -> Result<ForwardLowering, PlanError> {
    {
        let order = provenance_postorder(root);
        let mut values: Vec<PlanValue> = Vec::new();
        let mut steps: Vec<PlanStep> = Vec::new();
        let mut val_of: HashMap<u64, ValueId> = HashMap::new();
        let mut stat_val: HashMap<String, ValueId> = HashMap::new();
        let mut input_val: Option<ValueId> = None;
        let mut target_val: Option<ValueId> = None;

        // The input leaf must exist before any stat leaf can be lowered
        // against it, and postorder does not promise that — register it
        // first.
        for node in &order {
            if node.op_name() == "leaf" && node.label() == spec.input_label {
                if node.dims().len() > MAX_PLAN_RANK {
                    return Err(PlanError::new(format!(
                        "input `{}` exceeds max plan rank {MAX_PLAN_RANK}",
                        node.label()
                    )));
                }
                let id = values.len();
                values.push(PlanValue {
                    source: ValueSource::Input,
                    dims: node.dims().to_vec(),
                    label: node.label().to_string(),
                    sym_ids: vec![node.id()],
                    slot: None,
                    requires_grad: false,
                    frozen: false,
                    adjoint_of: None,
                });
                val_of.insert(node.id(), id);
                input_val = Some(id);
                break;
            }
        }

        for node in &order {
            if val_of.contains_key(&node.id()) {
                continue;
            }
            if node.dims().len() > MAX_PLAN_RANK {
                return Err(PlanError::new(format!(
                    "`{}` at `{}` exceeds max plan rank {MAX_PLAN_RANK}",
                    node.op_name(),
                    node.label()
                )));
            }
            match node.op_name() {
                "param" => {
                    let id = values.len();
                    values.push(PlanValue {
                        source: ValueSource::Param,
                        dims: node.dims().to_vec(),
                        label: node.label().to_string(),
                        sym_ids: vec![node.id()],
                        slot: None,
                        requires_grad: node.requires_grad(),
                        frozen: node.is_frozen(),
                        adjoint_of: None,
                    });
                    val_of.insert(node.id(), id);
                }
                "leaf" => {
                    if !node.parents().is_empty() {
                        return Err(PlanError::new(format!(
                            "derived leaf (detach) at `{}` has no plan lowering",
                            node.label()
                        )));
                    }
                    let label = node.label().to_string();
                    if target_label == Some(label.as_str()) {
                        if target_val.is_some() {
                            return Err(PlanError::new(format!(
                                "target leaf `{label}` appears more than once"
                            )));
                        }
                        let id = values.len();
                        values.push(PlanValue {
                            source: ValueSource::Target,
                            dims: node.dims().to_vec(),
                            label,
                            sym_ids: vec![node.id()],
                            slot: None,
                            requires_grad: false,
                            frozen: false,
                            adjoint_of: None,
                        });
                        val_of.insert(node.id(), id);
                        target_val = Some(id);
                        continue;
                    }
                    if let Some(k) = spec.aux_labels.iter().position(|l| *l == label) {
                        if values.iter().any(|v| v.source == ValueSource::Aux(k)) {
                            return Err(PlanError::new(format!(
                                "aux leaf `{label}` appears more than once"
                            )));
                        }
                        let id = values.len();
                        values.push(PlanValue {
                            source: ValueSource::Aux(k),
                            dims: node.dims().to_vec(),
                            label,
                            sym_ids: vec![node.id()],
                            slot: None,
                            requires_grad: false,
                            frozen: false,
                            adjoint_of: None,
                        });
                        val_of.insert(node.id(), id);
                        continue;
                    }
                    let stat_op = if spec.col_mean_leaves.contains(&label) {
                        Some(PlanOp::ColMean)
                    } else {
                        spec.col_std_leaves
                            .iter()
                            .find(|(l, _)| *l == label)
                            .map(|&(_, eps)| PlanOp::ColStd { eps })
                    };
                    match stat_op {
                        Some(op) => {
                            if let Some(&vid) = stat_val.get(&label) {
                                // Second occurrence of the same stat leaf
                                // (denormalize): alias, don't recompute.
                                values[vid].sym_ids.push(node.id());
                                val_of.insert(node.id(), vid);
                                continue;
                            }
                            let src = input_val.ok_or_else(|| {
                                PlanError::new(format!(
                                    "stat leaf `{label}` traced without input leaf `{}`",
                                    spec.input_label
                                ))
                            })?;
                            if values[src].dims.len() != 2
                                || node.dims() != [1, values[src].dims[1]]
                            {
                                return Err(PlanError::new(format!(
                                    "stat leaf `{label}` shape {:?} does not match input {:?}",
                                    node.dims(),
                                    values[src].dims
                                )));
                            }
                            let vid = values.len();
                            values.push(PlanValue {
                                source: ValueSource::Step(steps.len()),
                                dims: node.dims().to_vec(),
                                label: label.clone(),
                                sym_ids: vec![node.id()],
                                slot: None,
                                requires_grad: false,
                                frozen: false,
                                adjoint_of: None,
                            });
                            steps.push(PlanStep {
                                op,
                                inputs: vec![src],
                                output: vid,
                                sym_id: None,
                                sym_op: "",
                                tracked: false,
                            });
                            stat_val.insert(label, vid);
                            val_of.insert(node.id(), vid);
                        }
                        None => {
                            let origin = order
                                .iter()
                                .find(|n| n.parents().iter().any(|p| p.id() == node.id()))
                                .map_or("read by no op".to_string(), |reader| {
                                    format!("read by {}", op_at(reader.op_name(), reader.label()))
                                });
                            return Err(PlanError::new(format!(
                                "constant leaf {} is not classified by the plan spec",
                                describe(&label, node.id(), node.dims(), &origin)
                            )));
                        }
                    }
                }
                _ => {
                    let mut inputs = Vec::with_capacity(node.parents().len());
                    for p in node.parents() {
                        let vid = val_of.get(&p.id()).copied().ok_or_else(|| {
                            PlanError::new(format!(
                                "parent #{} of `{}` not lowered before use",
                                p.id(),
                                node.op_name()
                            ))
                        })?;
                        inputs.push(vid);
                    }
                    let op = lower_op(node)?;
                    let vid = values.len();
                    values.push(PlanValue {
                        source: ValueSource::Step(steps.len()),
                        dims: node.dims().to_vec(),
                        label: node.label().to_string(),
                        sym_ids: vec![node.id()],
                        slot: None,
                        requires_grad: node.requires_grad(),
                        frozen: false,
                        adjoint_of: None,
                    });
                    steps.push(PlanStep {
                        op,
                        inputs,
                        output: vid,
                        sym_id: Some(node.id()),
                        sym_op: node.op_name(),
                        tracked: !node.is_leaf(),
                    });
                    val_of.insert(node.id(), vid);
                }
            }
        }

        let root_val = *val_of.get(&root.id()).ok_or_else(|| {
            PlanError::new("root node was not lowered (empty graph?)".to_string())
        })?;
        if !matches!(values[root_val].source, ValueSource::Step(_)) {
            return Err(PlanError::new(
                "plan root must be produced by an op, not a leaf".to_string(),
            ));
        }
        let input = input_val
            .ok_or_else(|| PlanError::new(format!("no input leaf `{}`", spec.input_label)))?;
        if let Some(label) = target_label {
            if target_val.is_none() {
                return Err(PlanError::new(format!("no target leaf `{label}`")));
            }
        }

        Ok(ForwardLowering {
            values,
            steps,
            val_of,
            input,
            root: root_val,
            target: target_val,
        })
    }
}

impl Plan {
    /// The spec the plan was compiled under.
    pub fn spec(&self) -> &PlanSpec {
        &self.spec
    }

    /// All values, indexed by [`ValueId`].
    pub fn values(&self) -> &[PlanValue] {
        &self.values
    }

    /// The op schedule, in execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The arena slots.
    pub fn slots(&self) -> &[PlanSlot] {
        &self.slots
    }

    /// Declared arena extent in elements — what the executor allocates
    /// once at construction.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// The runtime input value.
    pub fn input(&self) -> ValueId {
        self.input
    }

    /// The root (output) value.
    pub fn root(&self) -> ValueId {
        self.root
    }

    /// The reverse schedule, in execution order (empty for forward-only
    /// plans).
    pub fn bwd_steps(&self) -> &[BwdStep] {
        &self.bwd_steps
    }

    /// The fused optimizer-update schedule (empty for forward-only plans).
    pub fn update_steps(&self) -> &[UpdateStep] {
        &self.update_steps
    }

    /// The training-target value, when the plan was compiled for training.
    pub fn target(&self) -> Option<ValueId> {
        self.target
    }

    /// The fused optimizer, when the plan was compiled for training.
    pub fn optimizer(&self) -> Option<&PlanOptimizer> {
        self.optimizer.as_ref()
    }

    /// Global gradient-clipping threshold compiled into the plan, if any.
    pub fn grad_clip(&self) -> Option<f32> {
        self.grad_clip
    }

    /// Gradient values in the pinned clipping traversal order (matches the
    /// dynamic `clip_grad_norm` parameter order).
    pub fn clip_grads(&self) -> &[ValueId] {
        &self.clip_grads
    }

    /// Values pinned live through the end of the combined timeline so
    /// their arena bytes stay readable after a step (e.g. per-component
    /// loss scalars).
    pub fn pinned(&self) -> &[ValueId] {
        &self.pinned
    }

    /// Arena range `(offset, len)` of an arena-backed value.
    pub fn arena_range(&self, vid: ValueId) -> Option<(usize, usize)> {
        let value = self.values.get(vid)?;
        let slot = self.slots.get(value.slot?)?;
        Some((slot.offset, value.len()))
    }

    /// True when the plan carries a backward + optimizer schedule.
    pub fn is_training(&self) -> bool {
        !self.bwd_steps.is_empty()
    }

    /// Deliberately corrupts the plan along the axis `fault` names. Panics
    /// when the plan is too trivial to host the fault (student plans never
    /// are).
    pub fn inject_fault(&mut self, fault: PlanFault) {
        match fault {
            PlanFault::OverlapSlots => {
                // Give some step's output the slot of one of its own
                // (step-produced) inputs: both are live at that step.
                for step in &self.steps {
                    let in_slot = step
                        .inputs
                        .iter()
                        .find_map(|&v| self.values[v].slot)
                        .filter(|_| self.values[step.output].slot.is_some());
                    if let Some(slot) = in_slot {
                        self.values[step.output].slot = Some(slot);
                        return;
                    }
                }
                panic!("no step with a step-produced input to overlap");
            }
            PlanFault::SwapSchedule => {
                // Swap the first producer/consumer pair.
                for i in 0..self.steps.len() {
                    let produced = self.steps[i].output;
                    if let Some(j) = (i + 1..self.steps.len())
                        .find(|&j| self.steps[j].inputs.contains(&produced))
                    {
                        self.steps.swap(i, j);
                        return;
                    }
                }
                panic!("no dependent step pair to swap");
            }
            PlanFault::ShrinkArena => {
                assert!(self.arena_len > 0, "empty arena cannot shrink");
                self.arena_len -= 1;
            }
            PlanFault::DropEdge => {
                for step in &mut self.steps {
                    if step.inputs.len() >= 2 {
                        step.inputs.pop();
                        return;
                    }
                }
                panic!("no multi-input step to drop an edge from");
            }
            PlanFault::DropAdjoint => crate::plan_train::inject_drop_adjoint(self),
            PlanFault::ClobberSavedActivation => {
                crate::plan_train::inject_clobber_saved_activation(self)
            }
            PlanFault::ReorderBackward => crate::plan_train::inject_reorder_backward(self),
            PlanFault::UpdateFrozenParam => crate::plan_train::inject_update_frozen_param(self),
        }
    }
}

/// How a compile error names a value: its label when it has one, its
/// symbolic node id and dims, and `origin` (the op that made it, or for a
/// leaf the op that reads it), so an unlabelled value is still findable.
fn describe(label: &str, id: u64, dims: &[usize], origin: &str) -> String {
    let name = if label.is_empty() {
        "(unlabelled)".to_string()
    } else {
        format!("`{label}`")
    };
    format!("{name} #{id} {dims:?} {origin}")
}

/// "`op` at `component`", or "`op`" when the component is unlabelled.
fn op_at(op: &str, component: &str) -> String {
    if component.is_empty() {
        format!("`{op}`")
    } else {
        format!("`{op}` at `{component}`")
    }
}

/// Deterministic postorder (parents before children) over *provenance*
/// edges — the full computation, not just the gradient subgraph.
fn provenance_postorder(root: &SymbolicTensor) -> Vec<SymbolicTensor> {
    let mut order = Vec::new();
    let mut visited: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut stack = vec![(root.clone(), false)];
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            order.push(node);
            continue;
        }
        if !visited.insert(node.id()) {
            continue;
        }
        stack.push((node.clone(), true));
        for p in node.parents().iter().rev() {
            if !visited.contains(&p.id()) {
                stack.push((p.clone(), false));
            }
        }
    }
    order
}

fn lower_op(node: &SymbolicTensor) -> Result<PlanOp, PlanError> {
    let unsupported = || {
        PlanError::new(format!(
            "op `{}` at `{}` has no plan lowering",
            node.op_name(),
            node.label()
        ))
    };
    Ok(match node.op_name() {
        "add" => PlanOp::Add,
        "sub" => PlanOp::Sub,
        "mul" => PlanOp::Mul,
        "div" => PlanOp::Div,
        "add_scalar" => match *node.attr() {
            SymAttr::Scalar(c) => PlanOp::AddScalar(c),
            _ => return Err(unsupported()),
        },
        "mul_scalar" => match *node.attr() {
            SymAttr::Scalar(c) => PlanOp::MulScalar(c),
            _ => return Err(unsupported()),
        },
        "rsqrt" => PlanOp::Rsqrt,
        "square" => PlanOp::Square,
        "relu" => PlanOp::Relu,
        "gelu" => PlanOp::Gelu,
        "sum_axis" => match *node.attr() {
            SymAttr::Axis { axis, .. } => PlanOp::SumAxis { axis },
            _ => return Err(unsupported()),
        },
        "matmul_2d" => PlanOp::Matmul2d,
        "reshape" => PlanOp::Reshape,
        "permute" => match node.attr() {
            SymAttr::Perm(p) => PlanOp::Permute(p.clone()),
            _ => return Err(unsupported()),
        },
        "fused_attention" if *node.attr() == SymAttr::None => {
            let q = &node.parents()[0];
            let k = &node.parents()[1];
            let (qd, kd) = (q.dims(), k.dims());
            PlanOp::FusedAttention {
                heads: qd[0],
                tq: qd[1],
                tk: kd[1],
                dh: qd[2],
            }
        }
        "fused_attention_map" if *node.attr() == SymAttr::None => {
            let q = &node.parents()[0];
            let k = &node.parents()[1];
            let (qd, kd) = (q.dims(), k.dims());
            PlanOp::FusedAttentionMap {
                heads: qd[0],
                tq: qd[1],
                tk: kd[1],
                dh: qd[2],
            }
        }
        "fused_attention" if *node.attr() == SymAttr::Masked => {
            let (qd, kd) = (node.parents()[0].dims(), node.parents()[1].dims());
            PlanOp::MaskedAttention {
                heads: qd[0],
                tq: qd[1],
                tk: kd[1],
                dh: qd[2],
            }
        }
        "smooth_l1" => PlanOp::SmoothL1,
        "sum" => PlanOp::Sum,
        "index_select_rows" => PlanOp::IndexSelectRows,
        "slice" => match *node.attr() {
            SymAttr::Slice { axis, start, len } => PlanOp::Slice { axis, start, len },
            _ => return Err(unsupported()),
        },
        "log_softmax_last" => PlanOp::LogSoftmaxLast,
        "gather_last" => PlanOp::GatherLast,
        "concat" => match *node.attr() {
            SymAttr::Concat { axis } => PlanOp::Concat { axis },
            _ => return Err(unsupported()),
        },
        _ => return Err(unsupported()),
    })
}

/// Liveness analysis + first-fit slot coloring over the combined
/// forward + backward + optimizer timeline.
///
/// Positions: forward step `t` at `t`, backward step `j` at `F + j`, update
/// step `u` at `F + B + u`. Def/use intervals are inclusive: a
/// step-produced value is live from its defining step through its last
/// consuming step, and backward reads pin saved activations *across* the
/// reversal point. A gradient's def is its first (initializing) write; its
/// interval covers every later write, grad-in read, and optimizer read.
/// The root (loss) is pinned to the very end of the timeline. Two values
/// interfere when their intervals overlap; slots are assigned first-fit in
/// definition order (forward outputs in schedule order, then gradients by
/// first write), a slot's extent is the max size of the values it hosts,
/// and the arena is the concatenation of all slots. With empty backward
/// and update schedules this degenerates byte-identically to the original
/// forward-only analysis.
///
/// `pinned` values are held live through the very end of the timeline
/// (like the root) so callers can read their bytes after a step.
pub(crate) fn assign_slots(
    values: &mut [PlanValue],
    steps: &[PlanStep],
    bwd_steps: &[BwdStep],
    update_steps: &[UpdateStep],
    root: ValueId,
    pinned: &[ValueId],
) -> (Vec<PlanSlot>, usize) {
    let fwd_end = steps.len();
    let end = fwd_end + bwd_steps.len() + update_steps.len();
    let mut last_use: Vec<usize> = (0..values.len()).map(|_| 0).collect();
    let mut def: Vec<Option<usize>> = values.iter().map(|_| None).collect();
    for (t, step) in steps.iter().enumerate() {
        def[step.output] = Some(t);
        for &v in &step.inputs {
            last_use[v] = last_use[v].max(t);
        }
    }
    for (j, bstep) in bwd_steps.iter().enumerate() {
        let t = fwd_end + j;
        for &v in &bstep.reads {
            last_use[v] = last_use[v].max(t);
        }
        if let Some(g) = bstep.grad_in {
            last_use[g] = last_use[g].max(t);
        }
        for &(g, _) in &bstep.writes {
            def[g] = Some(def[g].map_or(t, |d| d.min(t)));
            last_use[g] = last_use[g].max(t);
        }
    }
    for (u, upd) in update_steps.iter().enumerate() {
        let t = fwd_end + bwd_steps.len() + u;
        last_use[upd.grad] = last_use[upd.grad].max(t);
    }
    last_use[root] = end;
    for &v in pinned {
        last_use[v] = end;
    }

    // slot -> (size, assigned intervals)
    let mut slots: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    let mut place = |values: &mut [PlanValue], v: ValueId| {
        let Some(d) = def[v] else { return };
        if values[v].slot.is_some() {
            return;
        }
        let interval = (d, last_use[v].max(d));
        let size = values[v].len();
        let fit = slots
            .iter()
            .position(|(_, taken)| taken.iter().all(|&(a, b)| interval.1 < a || b < interval.0));
        let idx = match fit {
            Some(i) => i,
            None => {
                slots.push((0, Vec::new()));
                slots.len() - 1
            }
        };
        slots[idx].0 = slots[idx].0.max(size);
        slots[idx].1.push(interval);
        values[v].slot = Some(idx);
    };
    for step in steps {
        place(values, step.output);
    }
    for bstep in bwd_steps {
        for &(g, _) in &bstep.writes {
            place(values, g);
        }
    }

    let mut out = Vec::with_capacity(slots.len());
    let mut offset = 0usize;
    for (size, _) in &slots {
        out.push(PlanSlot {
            offset,
            size: *size,
        });
        offset += size;
    }
    (out, offset)
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Where one operand's bytes live at execution time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Loc {
    Arena { off: usize, len: usize },
    Param { idx: usize },
    Input,
    Target,
    Aux(usize),
}

/// The rows of an aux feed a masked attention step reads as its
/// `[T_q, T_k]` mask: feed `slot`, from row `row` on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MaskRows {
    pub(crate) slot: usize,
    pub(crate) row: usize,
}

impl MaskRows {
    /// The mask rows and their live key counts, out of every aux feed
    /// and its counts.
    pub(crate) fn view<'a>(
        self,
        aux: &'a [Vec<f32>],
        live: &'a [Vec<usize>],
        tq: usize,
        tk: usize,
    ) -> KeyMask<'a> {
        KeyMask::new(
            &aux[self.slot][self.row * tk..(self.row + tq) * tk],
            &live[self.slot][self.row..self.row + tq],
        )
    }
}

/// Where the `[tq, tk]` mask operand `vid` (at `loc`) of a masked
/// attention step comes from: an aux feed, or a window of its rows (a
/// `slice` along axis 0 of one). Any other source is a compile error.
pub(crate) fn mask_rows(
    plan: &Plan,
    vid: ValueId,
    loc: Loc,
    tq: usize,
    tk: usize,
) -> Result<MaskRows, PlanError> {
    let value = &plan.values()[vid];
    // The fed value, its slot and the first of its rows the mask reads.
    let window = match (loc, &value.source) {
        (Loc::Aux(slot), _) => Some((vid, slot, 0)),
        (_, ValueSource::Step(i)) => match &plan.steps()[*i] {
            PlanStep {
                op: PlanOp::Slice { axis: 0, start, .. },
                inputs,
                ..
            } => match plan.values()[inputs[0]].source {
                ValueSource::Aux(slot) => Some((inputs[0], slot, *start)),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    };
    let Some((fed, slot, row)) = window else {
        let origin = match value.source {
            ValueSource::Step(i) => format!("made by `{}`", plan.steps()[i].sym_op),
            ref source => format!("from {source:?}"),
        };
        let id = value.sym_ids.first().copied().unwrap_or_default();
        return Err(PlanError::new(format!(
            "attention mask {} must be an aux leaf fed at run time or a row window of one",
            describe(&value.label, id, &value.dims, &origin)
        )));
    };
    let fed = &plan.values()[fed];
    if fed.dims.len() != 2 || fed.dims[1] != tk || row + tq > fed.dims[0] {
        return Err(PlanError::new(format!(
            "attention mask rows {row}..{} of feed `{}` {:?} do not fit [{tq}, {tk}]",
            row + tq,
            fed.label,
            fed.dims
        )));
    }
    Ok(MaskRows { slot, row })
}

impl PlanOp {
    /// The element kernel of a broadcasting binary op.
    pub(crate) fn bin_kind(&self) -> Option<BinKind> {
        Some(match self {
            PlanOp::Add => BinKind::Add,
            PlanOp::Sub => BinKind::Sub,
            PlanOp::Mul => BinKind::Mul,
            PlanOp::Div => BinKind::Div,
            PlanOp::SmoothL1 => BinKind::SmoothL1,
            _ => return None,
        })
    }

    /// The element kernel of a unary op.
    pub(crate) fn un_kind(&self) -> Option<UnKind> {
        Some(match self {
            PlanOp::AddScalar(c) => UnKind::AddScalar(*c),
            PlanOp::MulScalar(c) => UnKind::MulScalar(*c),
            PlanOp::Rsqrt => UnKind::Rsqrt,
            PlanOp::Square => UnKind::Square,
            PlanOp::Relu => UnKind::Relu,
            PlanOp::Gelu => UnKind::Gelu,
            _ => return None,
        })
    }
}

#[derive(Debug)]
enum ExecOp {
    Binary {
        kind: BinKind,
        walk: RowWalk<2>,
    },
    Unary(UnKind),
    SumAxis(AxisSplit),
    Matmul {
        m: usize,
        k: usize,
        n: usize,
    },
    CopyReshape,
    Permute(RowWalk<1>),
    /// Context of a fused attention; `mask` is the aux rows of its
    /// additive mask, if any, and `stats` the offset of its softmax
    /// statistics in `attn_saved`.
    Attention {
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        scale: f32,
        mask: Option<MaskRows>,
        stats: usize,
    },
    /// Head-averaged attention map only: the context output lands in the
    /// `attn_out_sink` scratch (discarded) and `v` is a zero buffer the
    /// map bits never depend on.
    AttentionMap {
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        scale: f32,
        stats: usize,
    },
    ColMean {
        t: usize,
        n: usize,
    },
    ColStd {
        t: usize,
        n: usize,
        eps: f32,
    },
    Sum,
    GatherRows {
        d: usize,
    },
    Slice {
        split: AxisSplit,
        start: usize,
        len: usize,
    },
    LogSoftmax {
        c: usize,
    },
    GatherLast {
        c: usize,
    },
    /// `outer` rounds, each copying the next `chunk` elements of every
    /// operand in turn.
    Concat {
        outer: usize,
        parts: Vec<(Loc, usize)>,
    },
}

#[derive(Debug)]
struct ExecStep {
    op: ExecOp,
    srcs: [Loc; 4],
    out_off: usize,
    out_len: usize,
}

/// Replays a compiled [`Plan`] with zero per-call allocation.
///
/// All buffers — the arena, parameter copies, and attention scratch — are
/// allocated once at construction; [`PlanExecutor::run`] only indexes into
/// them and calls the dynamic engine's row-block kernels, so its output is
/// bitwise identical to the dynamic engine's.
#[derive(Debug)]
pub struct PlanExecutor {
    exec: Vec<ExecStep>,
    pub(crate) arena: Vec<f32>,
    pub(crate) params: Vec<Vec<f32>>,
    input_len: usize,
    pub(crate) root_off: usize,
    root_len: usize,
    /// Per-step training target buffer (empty for forward-only plans).
    pub(crate) target: Vec<f32>,
    /// Per-step auxiliary constant buffers, indexed like
    /// [`PlanSpec::aux_labels`] (empty slots for labels absent from the
    /// graph).
    pub(crate) aux: Vec<Vec<f32>>,
    /// Live key counts of every aux slot that is an attention mask
    /// (`[T_q]` per slot, empty otherwise), recounted by
    /// [`set_aux`](Self::set_aux).
    pub(crate) mask_live: Vec<Vec<usize>>,
    /// Key length `T_k` of each mask slot (0 for other slots).
    mask_tk: Vec<usize>,
    attn_kt: Vec<f32>,
    attn_vt: Vec<f32>,
    attn_scores: Vec<f32>,
    /// The softmax statistics of every attention step's last run —
    /// `[m (T_q·H) | l (T_q·H)]` at the step's offset — kept for the
    /// training executor's backward, which reads them instead of
    /// recomputing them.
    pub(crate) attn_saved: Vec<f32>,
    /// Discarded context output of `AttentionMap` steps.
    attn_out_sink: Vec<f32>,
    /// All-zero `v` operand for `AttentionMap` steps (the kernel packs a
    /// value matrix unconditionally; the map does not depend on it).
    attn_zero_v: Vec<f32>,
}

impl PlanExecutor {
    /// Builds an executor for `plan`, resolving every parameter through
    /// `param_source` (label, dims) → data. Fails when a parameter is
    /// missing or mis-sized, or when the plan's slot assignment would
    /// alias a kernel's output with one of its inputs.
    pub fn new(
        plan: &Plan,
        mut param_source: impl FnMut(&str, &[usize]) -> Option<Vec<f32>>,
    ) -> Result<PlanExecutor, PlanError> {
        let mut params: Vec<Vec<f32>> = Vec::new();
        let mut param_idx: HashMap<ValueId, usize> = HashMap::new();
        for (vid, value) in plan.values().iter().enumerate() {
            if value.source != ValueSource::Param {
                continue;
            }
            let data = param_source(&value.label, &value.dims).ok_or_else(|| {
                PlanError::new(format!("no binding for parameter `{}`", value.label))
            })?;
            if data.len() != value.len() {
                return Err(PlanError::new(format!(
                    "parameter `{}` bound with {} elements, expected {}",
                    value.label,
                    data.len(),
                    value.len()
                )));
            }
            param_idx.insert(vid, params.len());
            params.push(data);
        }

        let loc_of = |vid: ValueId| -> Result<Loc, PlanError> {
            let value = &plan.values()[vid];
            match value.source {
                ValueSource::Input => Ok(Loc::Input),
                ValueSource::Target => Ok(Loc::Target),
                ValueSource::Param => Ok(Loc::Param {
                    idx: param_idx[&vid],
                }),
                ValueSource::Aux(k) => Ok(Loc::Aux(k)),
                ValueSource::Step(_) | ValueSource::Grad(_) => {
                    let slot = value.slot.ok_or_else(|| {
                        PlanError::new(format!("step value `{}` has no slot", value.label))
                    })?;
                    let s = plan
                        .slots()
                        .get(slot)
                        .copied()
                        .ok_or_else(|| PlanError::new(format!("slot {slot} out of range")))?;
                    if value.len() > s.size || s.offset + s.size > plan.arena_len() {
                        return Err(PlanError::new(format!(
                            "value `{}` does not fit its slot/arena",
                            value.label
                        )));
                    }
                    Ok(Loc::Arena {
                        off: s.offset,
                        len: value.len(),
                    })
                }
            }
        };

        let mut exec = Vec::with_capacity(plan.steps().len());
        let mut mask_tk = vec![0usize; plan.spec().aux_labels.len()];
        let (mut kt_len, mut vt_len, mut sc_len, mut st_len) = (0, 0, 0, 0usize);
        let (mut out_sink_len, mut zero_v_len) = (0usize, 0usize);
        for step in plan.steps() {
            let out_v = &plan.values()[step.output];
            let Loc::Arena {
                off: out_off,
                len: out_len,
            } = loc_of(step.output)?
            else {
                return Err(PlanError::new(format!(
                    "step output `{}` is not arena-backed",
                    out_v.label
                )));
            };
            let mut srcs = [Loc::Input; 4];
            let mut locs = Vec::with_capacity(step.inputs.len());
            for &vid in &step.inputs {
                let loc = loc_of(vid)?;
                // The executor's raw-pointer split of the arena is sound
                // only because inputs never alias the output; reject any
                // plan where they would (a verified plan never does).
                if let Loc::Arena { off, len } = loc {
                    if off < out_off + out_len && out_off < off + len {
                        return Err(PlanError::new(format!(
                            "input `{}` aliases output `{}` in the arena",
                            plan.values()[vid].label,
                            out_v.label
                        )));
                    }
                }
                locs.push(loc);
            }
            for (src, &loc) in srcs.iter_mut().zip(&locs) {
                *src = loc;
            }
            let in_dims = |i: usize| -> &[usize] { &plan.values()[step.inputs[i]].dims };
            let op = match (&step.op, step.op.bin_kind(), step.op.un_kind()) {
                (_, Some(kind), _) => ExecOp::Binary {
                    kind,
                    walk: broadcast_walk(in_dims(0), in_dims(1), &out_v.dims),
                },
                (_, _, Some(kind)) => ExecOp::Unary(kind),
                (PlanOp::SumAxis { axis }, ..) => {
                    ExecOp::SumAxis(AxisSplit::new(in_dims(0), *axis))
                }
                (PlanOp::Matmul2d, ..) => {
                    let (a, b) = (in_dims(0), in_dims(1));
                    ExecOp::Matmul {
                        m: a[0],
                        k: a[1],
                        n: b[1],
                    }
                }
                (PlanOp::Reshape, ..) => ExecOp::CopyReshape,
                (PlanOp::Permute(perm), ..) => ExecOp::Permute(permute_walk(in_dims(0), perm)),
                (
                    PlanOp::FusedAttention { heads, tq, tk, dh }
                    | PlanOp::MaskedAttention { heads, tq, tk, dh },
                    ..,
                ) => {
                    kt_len = kt_len.max(dh * tk);
                    vt_len = vt_len.max(dh * tk);
                    sc_len = sc_len.max(*tk);
                    let stats = st_len;
                    st_len += 2 * tq * heads;
                    let mask = match step.op {
                        PlanOp::MaskedAttention { .. } => {
                            let rows = mask_rows(plan, step.inputs[3], srcs[3], *tq, *tk)?;
                            mask_tk[rows.slot] = *tk;
                            Some(rows)
                        }
                        _ => None,
                    };
                    ExecOp::Attention {
                        heads: *heads,
                        tq: *tq,
                        tk: *tk,
                        dh: *dh,
                        scale: 1.0 / (*dh as f32).sqrt(),
                        mask,
                        stats,
                    }
                }
                (PlanOp::FusedAttentionMap { heads, tq, tk, dh }, ..) => {
                    kt_len = kt_len.max(dh * tk);
                    vt_len = vt_len.max(dh * tk);
                    sc_len = sc_len.max(*tk);
                    let stats = st_len;
                    st_len += 2 * tq * heads;
                    out_sink_len = out_sink_len.max(tq * heads * dh);
                    zero_v_len = zero_v_len.max(heads * tk * dh);
                    ExecOp::AttentionMap {
                        heads: *heads,
                        tq: *tq,
                        tk: *tk,
                        dh: *dh,
                        scale: 1.0 / (*dh as f32).sqrt(),
                        stats,
                    }
                }
                (PlanOp::ColMean, ..) => {
                    let dims = in_dims(0);
                    ExecOp::ColMean {
                        t: dims[0],
                        n: dims[1],
                    }
                }
                (PlanOp::ColStd { eps }, ..) => {
                    let dims = in_dims(0);
                    ExecOp::ColStd {
                        t: dims[0],
                        n: dims[1],
                        eps: *eps,
                    }
                }
                (PlanOp::Sum, ..) => ExecOp::Sum,
                (PlanOp::IndexSelectRows, ..) => ExecOp::GatherRows { d: in_dims(0)[1] },
                (PlanOp::Slice { axis, start, len }, ..) => ExecOp::Slice {
                    split: AxisSplit::new(in_dims(0), *axis),
                    start: *start,
                    len: *len,
                },
                (PlanOp::LogSoftmaxLast, ..) => ExecOp::LogSoftmax {
                    c: out_v.dims.last().copied().unwrap_or(1),
                },
                (PlanOp::GatherLast, ..) => ExecOp::GatherLast {
                    c: in_dims(0).last().copied().unwrap_or(1),
                },
                (PlanOp::Concat { axis }, ..) => {
                    let inner: usize = out_v.dims[axis + 1..].iter().product();
                    ExecOp::Concat {
                        outer: out_v.dims[..*axis].iter().product(),
                        parts: locs
                            .iter()
                            .enumerate()
                            .map(|(i, &loc)| (loc, in_dims(i)[*axis] * inner))
                            .collect(),
                    }
                }
                (op, ..) => {
                    return Err(PlanError::new(format!("op {op:?} has no executor kernel")))
                }
            };
            exec.push(ExecStep {
                op,
                srcs,
                out_off,
                out_len,
            });
        }

        let Loc::Arena {
            off: root_off,
            len: root_len,
        } = loc_of(plan.root())?
        else {
            return Err(PlanError::new("plan root is not arena-backed".to_string()));
        };

        let target_len = plan.target().map_or(0, |vid| plan.values()[vid].len());
        let aux: Vec<Vec<f32>> = (0..plan.spec().aux_labels.len())
            .map(|k| {
                let len = plan
                    .values()
                    .iter()
                    .find(|v| v.source == ValueSource::Aux(k))
                    .map_or(0, |v| v.len());
                vec![0.0f32; len]
            })
            .collect();
        // Every mask slot starts zeroed: all keys live until it is fed.
        let mask_live = aux
            .iter()
            .zip(&mask_tk)
            .map(|(bias, &tk)| {
                let mut live = vec![0usize; bias.len().checked_div(tk).unwrap_or(0)];
                if tk > 0 {
                    live_keys(bias, tk, &mut live);
                }
                live
            })
            .collect();
        Ok(PlanExecutor {
            exec,
            arena: vec![0.0f32; plan.arena_len()],
            params,
            input_len: plan.values()[plan.input()].len(),
            root_off,
            root_len,
            target: vec![0.0f32; target_len],
            aux,
            mask_live,
            mask_tk,
            attn_kt: vec![0.0f32; kt_len],
            attn_vt: vec![0.0f32; vt_len],
            attn_scores: vec![0.0f32; sc_len],
            attn_saved: vec![0.0f32; st_len],
            attn_out_sink: vec![0.0f32; out_sink_len],
            attn_zero_v: vec![0.0f32; zero_v_len],
        })
    }

    /// Offset in `attn_saved` of the softmax statistics plan step `step`
    /// writes (attention steps only).
    pub(crate) fn stats_offset(&self, step: usize) -> Option<usize> {
        match self.exec.get(step)?.op {
            ExecOp::Attention { stats, .. } | ExecOp::AttentionMap { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Element count the input slice must have.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Element count the output slice must have.
    pub fn output_len(&self) -> usize {
        self.root_len
    }

    /// Expected length of auxiliary feed slot `k` (0 when the label is
    /// absent from the compiled graph).
    pub fn aux_len(&self, k: usize) -> usize {
        self.aux[k].len()
    }

    /// Feeds auxiliary constant `k` (index into the spec's `aux_labels`)
    /// for subsequent runs. Panics on length mismatch. When the slot is an
    /// attention mask, its live key counts are recounted here, once per
    /// feed, so the replay loop never scans the mask.
    pub fn set_aux(&mut self, k: usize, data: &[f32]) {
        assert_eq!(data.len(), self.aux[k].len(), "aux length mismatch");
        self.aux[k].copy_from_slice(data);
        if self.mask_tk[k] > 0 {
            live_keys(&self.aux[k], self.mask_tk[k], &mut self.mask_live[k]);
        }
    }

    /// Executes the plan on `input`, writing the root value into `out`.
    /// Performs no allocation and records no spans.
    pub fn run(&mut self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.input_len, "plan input length mismatch");
        assert_eq!(out.len(), self.root_len, "plan output length mismatch");
        self.execute_plan_loop(input);
        out.copy_from_slice(&self.arena[self.root_off..self.root_off + self.root_len]);
    }

    /// The hot schedule loop. Linted (`timekd-check --lints`) to stay free
    /// of allocation, `unwrap`, and span instrumentation.
    pub(crate) fn execute_plan_loop(&mut self, input: &[f32]) {
        let arena_ptr = self.arena.as_mut_ptr();
        let params = &self.params;
        let target = &self.target;
        let aux = &self.aux;
        let mask_live = &self.mask_live;
        for step in &self.exec {
            // SAFETY: `arena` is allocated to `plan.arena_len()` and every
            // `Loc::Arena` range was bounds-checked at construction; the
            // output range was verified disjoint from every input range
            // (conservative liveness forbids in-place aliasing), so these
            // raw-pointer slices never overlap a live `&mut`.
            let out = unsafe {
                std::slice::from_raw_parts_mut(arena_ptr.add(step.out_off), step.out_len)
            };
            let resolve = |loc: Loc| -> &[f32] {
                match loc {
                    // SAFETY: as above — in-bounds and disjoint from `out`.
                    Loc::Arena { off, len } => unsafe {
                        std::slice::from_raw_parts(arena_ptr.add(off) as *const f32, len)
                    },
                    Loc::Param { idx } => &params[idx],
                    Loc::Input => input,
                    Loc::Target => target,
                    Loc::Aux(k) => &aux[k],
                }
            };
            let src = |i: usize| resolve(step.srcs[i]);
            match &step.op {
                ExecOp::Binary { kind, walk } => binary_block(*kind, walk, src(0), src(1), out),
                ExecOp::Unary(kind) => unary_block(*kind, src(0), out),
                ExecOp::SumAxis(split) => sum_axis_block(src(0), out, *split),
                ExecOp::Matmul { m, k, n } => {
                    out.fill(0.0);
                    mm_row_block(src(0), src(1), out, *m, *k, *n);
                }
                ExecOp::CopyReshape => {
                    out.copy_from_slice(src(0));
                }
                ExecOp::Permute(walk) => permute_block(walk, src(0), out),
                ExecOp::Attention {
                    heads,
                    tq,
                    tk,
                    dh,
                    scale,
                    mask,
                    stats,
                } => {
                    let (q, k, v) = (src(0), src(1), src(2));
                    let key_mask = mask.map(|m| m.view(aux, mask_live, *tq, *tk));
                    let saved = &mut self.attn_saved[*stats..*stats + 2 * tq * heads];
                    let (m_sink, l_sink) = saved.split_at_mut(tq * heads);
                    attn_fwd_row_block(
                        q,
                        k,
                        v,
                        key_mask,
                        out,
                        None,
                        &mut m_sink[..tq * heads],
                        &mut l_sink[..tq * heads],
                        &mut self.attn_kt[..dh * tk],
                        &mut self.attn_vt[..dh * tk],
                        &mut self.attn_scores[..*tk],
                        *heads,
                        *tq,
                        *tk,
                        *dh,
                        *scale,
                    );
                }
                ExecOp::AttentionMap {
                    heads,
                    tq,
                    tk,
                    dh,
                    scale,
                    stats,
                } => {
                    let (q, k) = (src(0), src(1));
                    let saved = &mut self.attn_saved[*stats..*stats + 2 * tq * heads];
                    let (m_sink, l_sink) = saved.split_at_mut(tq * heads);
                    out.fill(0.0);
                    attn_fwd_row_block(
                        q,
                        k,
                        &self.attn_zero_v[..heads * tk * dh],
                        None,
                        &mut self.attn_out_sink[..tq * heads * dh],
                        Some(out),
                        &mut m_sink[..tq * heads],
                        &mut l_sink[..tq * heads],
                        &mut self.attn_kt[..dh * tk],
                        &mut self.attn_vt[..dh * tk],
                        &mut self.attn_scores[..*tk],
                        *heads,
                        *tq,
                        *tk,
                        *dh,
                        *scale,
                    );
                }
                ExecOp::ColMean { t, n } => {
                    let a = src(0);
                    for j in 0..*n {
                        let mut s = 0.0f32;
                        for i in 0..*t {
                            s += a[i * n + j];
                        }
                        out[j] = s / *t as f32;
                    }
                }
                ExecOp::ColStd { t, n, eps } => {
                    // Replicates `RevIn::normalize` arithmetic exactly:
                    // mean first, then centered sum of squares, in the
                    // same accumulation order.
                    let a = src(0);
                    for j in 0..*n {
                        let mut s = 0.0f32;
                        for i in 0..*t {
                            s += a[i * n + j];
                        }
                        let mu = s / *t as f32;
                        let mut var = 0.0f32;
                        for i in 0..*t {
                            let d = a[i * n + j] - mu;
                            var += d * d;
                        }
                        out[j] = (var / *t as f32 + eps).sqrt();
                    }
                }
                ExecOp::Sum => {
                    // Serial ascending fold, exactly like the dynamic
                    // `Tensor::sum`.
                    let a = src(0);
                    let mut s = 0.0f32;
                    for &x in a {
                        s += x;
                    }
                    out[0] = s;
                }
                ExecOp::GatherRows { d } => gather_rows_block(src(0), src(1), *d, out),
                ExecOp::Slice { split, start, len } => {
                    slice_block(src(0), out, *split, *start, *len)
                }
                ExecOp::LogSoftmax { c } => log_softmax_block(src(0), out, *c),
                ExecOp::GatherLast { c } => gather_last_block(src(0), src(1), *c, out),
                ExecOp::Concat { outer, parts } => {
                    let mut pos = 0;
                    for o in 0..*outer {
                        for &(loc, chunk) in parts {
                            out[pos..pos + chunk]
                                .copy_from_slice(&resolve(loc)[o * chunk..(o + 1) * chunk]);
                            pos += chunk;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::replay_labelled;
    use crate::tensor::Tensor;

    fn spec() -> PlanSpec {
        PlanSpec {
            input_label: "x".to_string(),
            col_mean_leaves: Vec::new(),
            col_std_leaves: Vec::new(),
            aux_labels: Vec::new(),
        }
    }

    /// x[4,3] @ w[3,2] + b[2], relu, mul_scalar — compare against dynamic
    /// execution bitwise.
    #[test]
    fn plan_matches_dynamic_small_graph() {
        let w_data: Vec<f32> = (0..6).map(|i| 0.3 * i as f32 - 0.7).collect();
        let b_data = vec![0.1f32, -0.2];
        let x = Tensor::zeros([4, 3]);
        let w = Tensor::param(w_data.clone(), [3, 2]);
        let b = Tensor::param(b_data.clone(), [2]);
        let root = replay_labelled(&[("x", &x), ("w", &w), ("b", &b)], || {
            x.matmul(&w).add(&b).relu().mul_scalar(0.5)
        });
        let plan = Plan::compile(&root, &spec()).unwrap();
        assert_eq!(plan.steps().len(), 4);

        let mut exec = PlanExecutor::new(&plan, |label, _| match label {
            "w" => Some(w_data.clone()),
            "b" => Some(b_data.clone()),
            _ => None,
        })
        .unwrap();

        let x_data: Vec<f32> = (0..12).map(|i| (i as f32) * 0.37 - 2.0).collect();
        let mut got = vec![0.0f32; exec.output_len()];
        exec.run(&x_data, &mut got);

        let xt = Tensor::from_vec(x_data, [4, 3]);
        let wt = Tensor::from_vec(w_data.clone(), [3, 2]);
        let bt = Tensor::from_vec(b_data.clone(), [2]);
        let want = xt.matmul(&wt).add(&bt).relu().mul_scalar(0.5).to_vec();
        assert_eq!(got, want, "planned execution must be bitwise identical");
    }

    /// A chain long enough that liveness must reuse slots: the arena must
    /// be smaller than the sum of all step outputs.
    #[test]
    fn liveness_reuses_slots() {
        let x = Tensor::zeros([8, 8]);
        let root = replay_labelled(&[("x", &x)], || {
            let mut cur = x.clone();
            for _ in 0..6 {
                cur = cur.relu().mul_scalar(1.01);
            }
            cur
        });
        let plan = Plan::compile(&root, &spec()).unwrap();
        let total: usize = plan
            .steps()
            .iter()
            .map(|s| plan.values()[s.output].len())
            .sum();
        assert!(
            plan.arena_len() < total,
            "arena {} should be < sum of outputs {}",
            plan.arena_len(),
            total
        );
        // A chain needs exactly two ping-pong slots.
        assert_eq!(plan.slots().len(), 2);
    }

    #[test]
    fn unsupported_op_is_rejected() {
        let x = Tensor::zeros([4, 3]);
        let w = Tensor::param(vec![0.5; 3], [3]);
        let root = replay_labelled(&[("x", &x), ("head.w", &w)], || x.add(&w).softmax_last());
        let err = Plan::compile(&root, &spec()).unwrap_err();
        assert!(
            err.message.contains("`softmax_last` at `head`"),
            "the error names the op and its component: {}",
            err.message
        );
    }

    #[test]
    fn masked_attention_runs_with_its_mask_fed_at_run_time() {
        // The mask is the attention node's last parent: a constant leaf
        // the spec must classify as an aux feed.
        let (t, h, dh) = (10, 2, 3);
        let x = Tensor::zeros([t, h * dh]);
        let mask = Tensor::zeros([t, t]);
        let w_data: Vec<f32> = (0..h * dh).map(|i| 0.2 * i as f32 - 0.4).collect();
        let w = Tensor::param(w_data.clone(), [h * dh]);
        let attend = |x: &Tensor, w: &Tensor, mask: &Tensor| {
            let heads = x.mul(w).reshape([t, h, dh]).permute(&[1, 0, 2]);
            Tensor::fused_attention(&heads, &heads, &heads, Some(mask))
        };
        let labelled = [("x", &x), ("mask", &mask), ("attn.w", &w)];
        let root = replay_labelled(&labelled, || attend(&x, &w, &mask).0);
        let err = Plan::compile(&root, &spec()).unwrap_err();
        assert!(err.message.contains("`mask`"), "{}", err.message);

        let masked_spec = PlanSpec {
            aux_labels: vec!["mask".to_string()],
            ..spec()
        };
        let plan = Plan::compile(&root, &masked_spec).unwrap();
        let mut exec = PlanExecutor::new(&plan, |label, _| {
            (label == "attn.w").then(|| w_data.clone())
        })
        .unwrap();
        // Causal, with the last rows' keys cut further so whole lanes of
        // forbidden keys are skipped.
        let mut bias = vec![0.0f32; t * t];
        for i in 0..t {
            for j in 0..t {
                if j > i || (i >= 8 && j < 2) {
                    bias[i * t + j] = crate::NEG_INF;
                }
            }
        }
        let x_data: Vec<f32> = (0..t * h * dh).map(|i| (i as f32 * 0.37).sin()).collect();
        exec.set_aux(0, &bias);
        let mut got = vec![0.0f32; exec.output_len()];
        exec.run(&x_data, &mut got);
        let want = attend(
            &Tensor::from_vec(x_data, [t, h * dh]),
            &Tensor::from_vec(w_data.clone(), [h * dh]),
            &Tensor::from_vec(bias, [t, t]),
        )
        .0
        .to_vec();
        assert_eq!(bits(&got), bits(&want), "planned masked attention");

        // The masked map has no lowering.
        let map_root = replay_labelled(&labelled, || attend(&x, &w, &mask).1);
        let err = Plan::compile(&map_root, &masked_spec).unwrap_err();
        assert!(
            err.message.contains("`fused_attention_map` at `attn`"),
            "{}",
            err.message
        );
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_sliced_masks_read_their_rows_of_the_fed_mask() {
        // Every row, a window of middle rows and the last row alone attend
        // under rows of one fed mask, as a forward that runs only its last
        // rows does: each windowed step reads its rows of the feed in
        // place, with their live key counts.
        let (t, h, dh) = (11, 2, 3);
        let x = Tensor::zeros([t, h * dh]);
        let mask = Tensor::zeros([t, t]);
        let w_data: Vec<f32> = (0..h * dh).map(|i| 0.3 - 0.1 * i as f32).collect();
        let w = Tensor::param(w_data.clone(), [h * dh]);
        let attend = |x: &Tensor, w: &Tensor, mask: &Tensor| {
            let heads = x.mul(w).reshape([t, h, dh]).permute(&[1, 0, 2]);
            let rows = |start: usize, len: usize| {
                let q = heads.slice(1, start, len);
                Tensor::fused_attention(&q, &heads, &heads, Some(&mask.slice(0, start, len))).0
            };
            let all = Tensor::fused_attention(&heads, &heads, &heads, Some(mask)).0;
            Tensor::concat(&[all, rows(2, 3), rows(t - 1, 1)], 0)
        };
        let labelled = [("x", &x), ("mask", &mask), ("attn.w", &w)];
        let root = replay_labelled(&labelled, || attend(&x, &w, &mask));
        let masked_spec = PlanSpec {
            aux_labels: vec!["mask".to_string()],
            ..spec()
        };
        let plan = Plan::compile(&root, &masked_spec).unwrap();
        let mut exec = PlanExecutor::new(&plan, |label, _| {
            (label == "attn.w").then(|| w_data.clone())
        })
        .unwrap();
        let x_data: Vec<f32> = (0..t * h * dh).map(|i| (i as f32 * 0.29).cos()).collect();
        // Causal, with a cut-off prefix on some rows, so the windows' live
        // key counts differ from row to row.
        for cut in [0, 3] {
            let mut bias = vec![0.0f32; t * t];
            for i in 0..t {
                for j in 0..t {
                    if j > i || (i >= 8 && j < cut) {
                        bias[i * t + j] = crate::NEG_INF;
                    }
                }
            }
            exec.set_aux(0, &bias);
            let mut got = vec![0.0f32; exec.output_len()];
            exec.run(&x_data, &mut got);
            let want = attend(
                &Tensor::from_vec(x_data.clone(), [t, h * dh]),
                &Tensor::from_vec(w_data.clone(), [h * dh]),
                &Tensor::from_vec(bias, [t, t]),
            )
            .to_vec();
            assert_eq!(bits(&got), bits(&want), "cut {cut}");
        }

        // A column window of the mask is not a row window: refused, with
        // the unlabelled slice named by id, dims and op.
        let cols_root = replay_labelled(&labelled, || {
            let heads = x.mul(&w).reshape([t, h, dh]).permute(&[1, 0, 2]);
            let keys = heads.slice(1, 0, t - 2);
            let cols = mask.slice(1, 0, t - 2);
            Tensor::fused_attention(&heads, &keys, &keys, Some(&cols)).0
        });
        let plan = Plan::compile(&cols_root, &masked_spec).unwrap();
        let err = PlanExecutor::new(&plan, |_, _| Some(w_data.clone())).unwrap_err();
        let dims = format!("{:?}", [t, t - 2]);
        for part in ["attention mask (unlabelled) #", &dims, "made by `slice`"] {
            assert!(err.message.contains(part), "{part}: {}", err.message);
        }
    }

    #[test]
    fn concat_runs_as_a_copy_and_training_plans_reject_it() {
        // Operands from the input, a parameter and steps; joined along the
        // leading axis (one round) and along an inner one (a round per
        // row).
        let x = Tensor::zeros([4, 3]);
        let y = Tensor::zeros([4, 15]);
        let w_data: Vec<f32> = (0..12).map(|i| 0.1 * i as f32 - 0.5).collect();
        let w = Tensor::param(w_data.clone(), [4, 3]);
        let join = |x: &Tensor, w: &Tensor| {
            let rows = Tensor::concat(&[x.mul(w), x.clone(), w.clone()], 0);
            Tensor::concat(&[rows.reshape([4, 9]), x.relu(), w.clone()], 1)
        };
        let labelled = [("x", &x), ("y", &y), ("head.w", &w)];
        let root = replay_labelled(&labelled, || join(&x, &w));
        let plan = Plan::compile(&root, &spec()).unwrap();
        let concats = plan
            .steps()
            .iter()
            .filter(|s| matches!(s.op, PlanOp::Concat { .. }))
            .count();
        assert_eq!(concats, 2);
        let mut exec = PlanExecutor::new(&plan, |_, _| Some(w_data.clone())).unwrap();
        let x_data: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut got = vec![0.0f32; exec.output_len()];
        exec.run(&x_data, &mut got);
        let want = join(
            &Tensor::from_vec(x_data, [4, 3]),
            &Tensor::from_vec(w_data.clone(), [4, 3]),
        )
        .to_vec();
        assert_eq!(bits(&got), bits(&want), "planned concat");

        let loss_root = replay_labelled(&labelled, || join(&x, &w).sub(&y).square().sum());
        let train = crate::plan_train::TrainSpec::new(
            "y",
            crate::plan_train::PlanOptimizer::AdamW {
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: 0.0,
            },
        );
        let err = Plan::compile_training(&loss_root, &spec(), &train).unwrap_err();
        assert!(
            err.message.contains("`concat` at `head` is forward-only"),
            "{}",
            err.message
        );
    }

    #[test]
    fn unclassified_leaf_is_rejected() {
        let x = Tensor::zeros([4, 3]);
        let mystery = Tensor::zeros([4, 3]);
        let root = replay_labelled(&[("x", &x), ("mystery", &mystery)], || x.add(&mystery));
        let err = Plan::compile(&root, &spec()).unwrap_err();
        assert!(err.message.contains("mystery"), "{}", err.message);

        // A leaf nobody labelled is named by its id, dims and reader.
        let w = Tensor::param(vec![0.5; 3], [3]);
        let unnamed = Tensor::ones([4, 3]);
        let root = replay_labelled(&[("x", &x), ("proj.w", &w)], || x.mul(&w).add(&unnamed));
        let err = Plan::compile(&root, &spec()).unwrap_err();
        for part in [
            "constant leaf (unlabelled) #",
            "[4, 3]",
            "read by `add` at `proj`",
        ] {
            assert!(err.message.contains(part), "{part}: {}", err.message);
        }
    }

    #[test]
    fn stat_leaves_dedup_and_execute() {
        // Mirror the RevIn normalize/denormalize pattern: mu/std leaves
        // appear twice under the same label but compile to one step each.
        let t = 5;
        let n = 3;
        let x = Tensor::zeros([t, n]);
        let [mu1, std1, mu2, std2] = [(); 4].map(|_| Tensor::ones([1, n]));
        let labelled = [
            ("x", &x),
            ("mu", &mu1),
            ("std", &std1),
            ("mu", &mu2),
            ("std", &std2),
        ];
        let root = replay_labelled(&labelled, || x.sub(&mu1).div(&std1).mul(&std2).add(&mu2));

        let spec = PlanSpec {
            input_label: "x".to_string(),
            col_mean_leaves: vec!["mu".to_string()],
            col_std_leaves: vec![("std".to_string(), 1e-5)],
            aux_labels: Vec::new(),
        };
        let plan = Plan::compile(&root, &spec).unwrap();
        let stat_steps = plan.steps().iter().filter(|s| s.sym_id.is_none()).count();
        assert_eq!(stat_steps, 2, "one ColMean + one ColStd");
        let aliased = plan
            .values()
            .iter()
            .filter(|v| v.sym_ids.len() == 2)
            .count();
        assert_eq!(aliased, 2, "mu and std each alias two symbolic leaves");

        // Round-trip: (x - mu)/std * std + mu == x up to fp — and exactly
        // the same fp as the dynamic ops.
        let x_data: Vec<f32> = (0..t * n).map(|i| (i as f32).sin() * 3.0).collect();
        let mut exec = PlanExecutor::new(&plan, |_, _| None).unwrap();
        let mut got = vec![0.0f32; exec.output_len()];
        exec.run(&x_data, &mut got);

        // Dynamic reference: compute stats the RevIn way.
        let mut mean = vec![0.0f32; n];
        let mut std = vec![0.0f32; n];
        for j in 0..n {
            let mut s = 0.0f32;
            for i in 0..t {
                s += x_data[i * n + j];
            }
            let mu = s / t as f32;
            let mut v = 0.0f32;
            for i in 0..t {
                let dd = x_data[i * n + j] - mu;
                v += dd * dd;
            }
            mean[j] = mu;
            std[j] = (v / t as f32 + 1e-5).sqrt();
        }
        let xt = Tensor::from_vec(x_data, [t, n]);
        let mu_t = Tensor::from_vec(mean, [1, n]);
        let std_t = Tensor::from_vec(std, [1, n]);
        let want = xt.sub(&mu_t).div(&std_t).mul(&std_t).add(&mu_t).to_vec();
        assert_eq!(got, want);
    }

    #[test]
    fn faults_corrupt_the_right_axis() {
        let x = Tensor::zeros([4, 4]);
        let w = Tensor::zeros_param([4, 4]);
        let root = replay_labelled(&[("x", &x), ("w", &w)], || x.matmul(&w).relu().add(&x));
        let plan = Plan::compile(&root, &spec()).unwrap();

        let mut p = plan.clone();
        p.inject_fault(PlanFault::ShrinkArena);
        assert_eq!(p.arena_len(), plan.arena_len() - 1);

        let mut p = plan.clone();
        p.inject_fault(PlanFault::SwapSchedule);
        assert_ne!(
            p.steps().iter().map(|s| s.sym_id).collect::<Vec<_>>(),
            plan.steps().iter().map(|s| s.sym_id).collect::<Vec<_>>()
        );

        let mut p = plan.clone();
        p.inject_fault(PlanFault::DropEdge);
        let edges = |pl: &Plan| pl.steps().iter().map(|s| s.inputs.len()).sum::<usize>();
        assert_eq!(edges(&p), edges(&plan) - 1);

        let mut p = plan.clone();
        p.inject_fault(PlanFault::OverlapSlots);
        let overlap = p.steps().iter().any(|s| {
            s.inputs.iter().any(|&v| {
                p.values()[v].slot.is_some() && p.values()[v].slot == p.values()[s.output].slot
            })
        });
        assert!(overlap, "some step output must now share an input's slot");
    }

    #[test]
    fn executor_rejects_aliasing_plan() {
        let x = Tensor::zeros([4, 4]);
        let root = replay_labelled(&[("x", &x)], || x.relu().mul_scalar(2.0).relu());
        let mut plan = Plan::compile(&root, &spec()).unwrap();
        plan.inject_fault(PlanFault::OverlapSlots);
        let err = PlanExecutor::new(&plan, |_, _| None).unwrap_err();
        assert!(err.message.contains("aliases"), "{}", err.message);
    }
}
