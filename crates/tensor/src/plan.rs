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
//! invoking the same serial row-block kernels the dynamic engine
//! partitions across the worker pool, so planned outputs are bitwise
//! identical to dynamic execution at any `TIMEKD_THREADS`.
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
//! [`PlanValue::sym_ids`]. Masks are not representable (the dynamic op
//! captures them as data, not parents); plans support unmasked attention
//! only, which is all the student path uses.
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

use crate::ops::attention::attn_fwd_row_block;
use crate::ops::matmul::mm_row_block;
use crate::plan_batch::ReduceStep;
use crate::plan_train::{BwdStep, PlanOptimizer, UpdateStep};
use crate::shape::eff_strides;
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
    /// Remove one cross-lane reduction step from a batched training plan
    /// — one trainable parameter's gradient from one window never lands
    /// (breaks batch-reduction completeness; batched plans only).
    DropReduceStep,
    /// Shrink the per-lane arena stride below the arena extent so
    /// neighbouring lane arenas overlap (breaks per-worker lane
    /// disjointness; batched plans only).
    OverlapLaneArenas,
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
    pub(crate) batch: usize,
    pub(crate) lane_stride: usize,
    pub(crate) reduce_steps: Vec<ReduceStep>,
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
            batch: 0,
            lane_stride: 0,
            reduce_steps: Vec::new(),
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
                            return Err(PlanError::new(format!(
                                "constant leaf `{label}` is not classified by the plan spec"
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

    /// Windows per batch for batched training plans (0 = non-batched).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Per-lane arena stride, in elements, for batched training plans
    /// (0 = non-batched). Lane `w` conceptually occupies
    /// `[w·stride, w·stride + arena_len)`.
    pub fn lane_stride(&self) -> usize {
        self.lane_stride
    }

    /// The pinned cross-lane gradient-reduction schedule (empty for
    /// non-batched plans). Order is the determinism contract: source
    /// lanes ascend by window index, and within a lane the gradients
    /// follow the update-step order.
    pub fn reduce_steps(&self) -> &[ReduceStep] {
        &self.reduce_steps
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
            PlanFault::DropReduceStep => {
                assert!(
                    self.batch > 1 && !self.reduce_steps.is_empty(),
                    "plan is not batched"
                );
                let mid = self.reduce_steps.len() / 2;
                self.reduce_steps.remove(mid);
            }
            PlanFault::OverlapLaneArenas => {
                assert!(self.batch > 1, "plan is not batched");
                self.lane_stride = self.arena_len - 1;
            }
        }
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
        "fused_attention" => {
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
        "fused_attention_map" => {
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
        "smooth_l1" => PlanOp::SmoothL1,
        "sum" => PlanOp::Sum,
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

#[derive(Clone, Copy, Debug)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    SmoothL1,
}

#[inline]
pub(crate) fn bin_apply(kind: BinKind, a: f32, b: f32) -> f32 {
    match kind {
        BinKind::Add => a + b,
        BinKind::Sub => a - b,
        BinKind::Mul => a * b,
        BinKind::Div => a / b,
        BinKind::SmoothL1 => {
            // Exactly the dynamic smooth_l1 element function.
            let d = a - b;
            if d.abs() < 1.0 {
                0.5 * d * d
            } else {
                d.abs() - 0.5
            }
        }
    }
}

#[derive(Debug)]
enum ExecOp {
    Binary {
        kind: BinKind,
        dims: Vec<usize>,
        a_str: Vec<usize>,
        b_str: Vec<usize>,
    },
    AddScalar(f32),
    MulScalar(f32),
    Rsqrt,
    Square,
    Relu,
    Gelu,
    SumAxis {
        outer: usize,
        mid: usize,
        inner: usize,
    },
    Matmul {
        m: usize,
        k: usize,
        n: usize,
    },
    CopyReshape,
    Permute {
        strides: Vec<usize>,
        dims: Vec<usize>,
    },
    Attention {
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        scale: f32,
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
}

#[derive(Debug)]
struct ExecStep {
    op: ExecOp,
    srcs: [Loc; 3],
    out_off: usize,
    out_len: usize,
}

/// Replays a compiled [`Plan`] with zero per-call allocation.
///
/// All buffers — the arena, parameter copies, and attention scratch — are
/// allocated once at construction; [`PlanExecutor::run`] only indexes into
/// them and calls the serial row-block kernels, so its output is bitwise
/// identical to the dynamic engine at any thread count.
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
    attn_kt: Vec<f32>,
    attn_vt: Vec<f32>,
    attn_scores: Vec<f32>,
    attn_map: Vec<f32>,
    attn_stats: Vec<f32>,
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
        let (mut kt_len, mut vt_len, mut sc_len, mut map_len, mut st_len) = (0, 0, 0, 0, 0);
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
            let mut srcs = [Loc::Input; 3];
            for (i, &vid) in step.inputs.iter().enumerate().take(3) {
                srcs[i] = loc_of(vid)?;
                // The executor's raw-pointer split of the arena is sound
                // only because inputs never alias the output; reject any
                // plan where they would (a verified plan never does).
                if let Loc::Arena { off, len } = srcs[i] {
                    if off < out_off + out_len && out_off < off + len {
                        return Err(PlanError::new(format!(
                            "input `{}` aliases output `{}` in the arena",
                            plan.values()[vid].label,
                            out_v.label
                        )));
                    }
                }
            }
            let in_dims = |i: usize| -> &[usize] { &plan.values()[step.inputs[i]].dims };
            let op = match &step.op {
                PlanOp::Add | PlanOp::Sub | PlanOp::Mul | PlanOp::Div | PlanOp::SmoothL1 => {
                    let kind = match step.op {
                        PlanOp::Add => BinKind::Add,
                        PlanOp::Sub => BinKind::Sub,
                        PlanOp::Mul => BinKind::Mul,
                        PlanOp::SmoothL1 => BinKind::SmoothL1,
                        _ => BinKind::Div,
                    };
                    ExecOp::Binary {
                        kind,
                        dims: out_v.dims.clone(),
                        a_str: eff_strides(in_dims(0), &out_v.dims),
                        b_str: eff_strides(in_dims(1), &out_v.dims),
                    }
                }
                PlanOp::AddScalar(c) => ExecOp::AddScalar(*c),
                PlanOp::MulScalar(c) => ExecOp::MulScalar(*c),
                PlanOp::Rsqrt => ExecOp::Rsqrt,
                PlanOp::Square => ExecOp::Square,
                PlanOp::Relu => ExecOp::Relu,
                PlanOp::Gelu => ExecOp::Gelu,
                PlanOp::SumAxis { axis } => {
                    let dims = in_dims(0);
                    ExecOp::SumAxis {
                        outer: dims[..*axis].iter().product(),
                        mid: dims[*axis],
                        inner: dims[*axis + 1..].iter().product(),
                    }
                }
                PlanOp::Matmul2d => {
                    let (a, b) = (in_dims(0), in_dims(1));
                    ExecOp::Matmul {
                        m: a[0],
                        k: a[1],
                        n: b[1],
                    }
                }
                PlanOp::Reshape => ExecOp::CopyReshape,
                PlanOp::Permute(perm) => {
                    let src = in_dims(0);
                    let mut src_strides = vec![0usize; src.len()];
                    let mut acc = 1usize;
                    for i in (0..src.len()).rev() {
                        src_strides[i] = acc;
                        acc *= src[i];
                    }
                    ExecOp::Permute {
                        strides: perm.iter().map(|&p| src_strides[p]).collect(),
                        dims: out_v.dims.clone(),
                    }
                }
                PlanOp::FusedAttention { heads, tq, tk, dh } => {
                    kt_len = kt_len.max(dh * tk);
                    vt_len = vt_len.max(dh * tk);
                    sc_len = sc_len.max(*tk);
                    map_len = map_len.max(tq * tk);
                    st_len = st_len.max(tq * heads);
                    ExecOp::Attention {
                        heads: *heads,
                        tq: *tq,
                        tk: *tk,
                        dh: *dh,
                        scale: 1.0 / (*dh as f32).sqrt(),
                    }
                }
                PlanOp::FusedAttentionMap { heads, tq, tk, dh } => {
                    kt_len = kt_len.max(dh * tk);
                    vt_len = vt_len.max(dh * tk);
                    sc_len = sc_len.max(*tk);
                    st_len = st_len.max(tq * heads);
                    out_sink_len = out_sink_len.max(tq * heads * dh);
                    zero_v_len = zero_v_len.max(heads * tk * dh);
                    ExecOp::AttentionMap {
                        heads: *heads,
                        tq: *tq,
                        tk: *tk,
                        dh: *dh,
                        scale: 1.0 / (*dh as f32).sqrt(),
                    }
                }
                PlanOp::ColMean => {
                    let dims = in_dims(0);
                    ExecOp::ColMean {
                        t: dims[0],
                        n: dims[1],
                    }
                }
                PlanOp::ColStd { eps } => {
                    let dims = in_dims(0);
                    ExecOp::ColStd {
                        t: dims[0],
                        n: dims[1],
                        eps: *eps,
                    }
                }
                PlanOp::Sum => ExecOp::Sum,
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
        Ok(PlanExecutor {
            exec,
            arena: vec![0.0f32; plan.arena_len()],
            params,
            input_len: plan.values()[plan.input()].len(),
            root_off,
            root_len,
            target: vec![0.0f32; target_len],
            aux,
            attn_kt: vec![0.0f32; kt_len],
            attn_vt: vec![0.0f32; vt_len],
            attn_scores: vec![0.0f32; sc_len],
            attn_map: vec![0.0f32; map_len],
            attn_stats: vec![0.0f32; 2 * st_len],
            attn_out_sink: vec![0.0f32; out_sink_len],
            attn_zero_v: vec![0.0f32; zero_v_len],
        })
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
    /// for subsequent runs. Panics on length mismatch.
    pub fn set_aux(&mut self, k: usize, data: &[f32]) {
        assert_eq!(data.len(), self.aux[k].len(), "aux length mismatch");
        self.aux[k].copy_from_slice(data);
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
        for step in &self.exec {
            // SAFETY: `arena` is allocated to `plan.arena_len()` and every
            // `Loc::Arena` range was bounds-checked at construction; the
            // output range was verified disjoint from every input range
            // (conservative liveness forbids in-place aliasing), so these
            // raw-pointer slices never overlap a live `&mut`.
            let out = unsafe {
                std::slice::from_raw_parts_mut(arena_ptr.add(step.out_off), step.out_len)
            };
            let src = |i: usize| -> &[f32] {
                match step.srcs[i] {
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
            match &step.op {
                ExecOp::Binary {
                    kind,
                    dims,
                    a_str,
                    b_str,
                } => {
                    let (a, b) = (src(0), src(1));
                    let rank = dims.len();
                    let mut idx = [0usize; MAX_PLAN_RANK];
                    let (mut a_off, mut b_off) = (0usize, 0usize);
                    for o in out.iter_mut() {
                        *o = bin_apply(*kind, a[a_off], b[b_off]);
                        let mut ax = rank;
                        loop {
                            if ax == 0 {
                                break;
                            }
                            ax -= 1;
                            idx[ax] += 1;
                            a_off += a_str[ax];
                            b_off += b_str[ax];
                            if idx[ax] < dims[ax] {
                                break;
                            }
                            a_off -= a_str[ax] * dims[ax];
                            b_off -= b_str[ax] * dims[ax];
                            idx[ax] = 0;
                        }
                    }
                }
                ExecOp::AddScalar(c) => {
                    for (o, &x) in out.iter_mut().zip(src(0)) {
                        *o = x + c;
                    }
                }
                ExecOp::MulScalar(c) => {
                    for (o, &x) in out.iter_mut().zip(src(0)) {
                        *o = x * c;
                    }
                }
                ExecOp::Rsqrt => {
                    for (o, &x) in out.iter_mut().zip(src(0)) {
                        *o = 1.0 / x.sqrt();
                    }
                }
                ExecOp::Square => {
                    for (o, &x) in out.iter_mut().zip(src(0)) {
                        *o = x * x;
                    }
                }
                ExecOp::Relu => {
                    for (o, &x) in out.iter_mut().zip(src(0)) {
                        *o = x.max(0.0);
                    }
                }
                ExecOp::Gelu => {
                    // Same constants as the dynamic kernel.
                    const C: f32 = 0.797_884_6; // sqrt(2/π)
                    for (o, &x) in out.iter_mut().zip(src(0)) {
                        let inner = C * (x + 0.044715 * x * x * x);
                        *o = 0.5 * x * (1.0 + inner.tanh());
                    }
                }
                ExecOp::SumAxis { outer, mid, inner } => {
                    let a = src(0);
                    out.fill(0.0);
                    for o in 0..*outer {
                        for m in 0..*mid {
                            let base = (o * mid + m) * inner;
                            let out_base = o * inner;
                            for i in 0..*inner {
                                out[out_base + i] += a[base + i];
                            }
                        }
                    }
                }
                ExecOp::Matmul { m, k, n } => {
                    out.fill(0.0);
                    mm_row_block(src(0), src(1), out, 0, *m, *k, *n);
                }
                ExecOp::CopyReshape => {
                    out.copy_from_slice(src(0));
                }
                ExecOp::Permute { strides, dims } => {
                    let a = src(0);
                    let rank = dims.len();
                    let mut idx = [0usize; MAX_PLAN_RANK];
                    let mut src_off = 0usize;
                    for o in out.iter_mut() {
                        *o = a[src_off];
                        let mut ax = rank;
                        loop {
                            if ax == 0 {
                                break;
                            }
                            ax -= 1;
                            idx[ax] += 1;
                            src_off += strides[ax];
                            if idx[ax] < dims[ax] {
                                break;
                            }
                            src_off -= strides[ax] * dims[ax];
                            idx[ax] = 0;
                        }
                    }
                }
                ExecOp::Attention {
                    heads,
                    tq,
                    tk,
                    dh,
                    scale,
                } => {
                    let (q, k, v) = (src(0), src(1), src(2));
                    let half = self.attn_stats.len() / 2;
                    let (m_sink, l_sink) = self.attn_stats.split_at_mut(half);
                    self.attn_map[..tq * tk].fill(0.0);
                    attn_fwd_row_block(
                        q,
                        k,
                        v,
                        None,
                        out,
                        &mut self.attn_map[..tq * tk],
                        &mut m_sink[..tq * heads],
                        &mut l_sink[..tq * heads],
                        &mut self.attn_kt[..dh * tk],
                        &mut self.attn_vt[..dh * tk],
                        &mut self.attn_scores[..*tk],
                        0,
                        *tq,
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
                } => {
                    let (q, k) = (src(0), src(1));
                    let half = self.attn_stats.len() / 2;
                    let (m_sink, l_sink) = self.attn_stats.split_at_mut(half);
                    out.fill(0.0);
                    attn_fwd_row_block(
                        q,
                        k,
                        &self.attn_zero_v[..heads * tk * dh],
                        None,
                        &mut self.attn_out_sink[..tq * heads * dh],
                        out,
                        &mut m_sink[..tq * heads],
                        &mut l_sink[..tq * heads],
                        &mut self.attn_kt[..dh * tk],
                        &mut self.attn_vt[..dh * tk],
                        &mut self.attn_scores[..*tk],
                        0,
                        *tq,
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
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymCtx;
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
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4, 3]);
        let w = ctx.param("w", vec![3, 2]);
        let b = ctx.param("b", vec![2]);
        let root = x
            .matmul(&w)
            .unwrap()
            .add(&b)
            .unwrap()
            .relu()
            .mul_scalar(0.5);
        let plan = Plan::compile(&root, &spec()).unwrap();
        assert_eq!(plan.steps().len(), 4);

        let w_data: Vec<f32> = (0..6).map(|i| 0.3 * i as f32 - 0.7).collect();
        let b_data = vec![0.1f32, -0.2];
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
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![8, 8]);
        let mut cur = x.clone();
        for _ in 0..6 {
            cur = cur.relu().mul_scalar(1.01);
        }
        let plan = Plan::compile(&cur, &spec()).unwrap();
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
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4, 3]);
        let root = x.softmax_last();
        let err = Plan::compile(&root, &spec()).unwrap_err();
        assert!(err.message.contains("softmax_last"), "{}", err.message);
    }

    #[test]
    fn unclassified_leaf_is_rejected() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4, 3]);
        let mystery = ctx.constant("mystery", vec![4, 3]);
        let root = x.add(&mystery).unwrap();
        let err = Plan::compile(&root, &spec()).unwrap_err();
        assert!(err.message.contains("mystery"), "{}", err.message);
    }

    #[test]
    fn stat_leaves_dedup_and_execute() {
        // Mirror the RevIn normalize/denormalize pattern: mu/std leaves
        // appear twice under the same label but compile to one step each.
        let ctx = SymCtx::new();
        let t = 5;
        let n = 3;
        let x = ctx.constant("x", vec![t, n]);
        let stat_dims = vec![1, n];
        let mu1 = ctx.constant("mu", stat_dims.clone());
        let std1 = ctx.constant("std", stat_dims.clone());
        let normed = x.sub(&mu1).unwrap().div(&std1).unwrap();
        let mu2 = ctx.constant("mu", stat_dims.clone());
        let std2 = ctx.constant("std", stat_dims);
        let root = normed.mul(&std2).unwrap().add(&mu2).unwrap();

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
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4, 4]);
        let w = ctx.param("w", vec![4, 4]);
        let root = x.matmul(&w).unwrap().relu().add(&x).unwrap();
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
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4, 4]);
        let root = x.relu().mul_scalar(2.0).relu();
        let mut plan = Plan::compile(&root, &spec()).unwrap();
        plan.inject_fault(PlanFault::OverlapSlots);
        let err = PlanExecutor::new(&plan, |_, _| None).unwrap_err();
        assert!(err.message.contains("aliases"), "{}", err.message);
    }
}
