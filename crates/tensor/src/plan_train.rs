//! Backward compilation: reverse schedules, gradient liveness, and the
//! zero-allocation training executor.
//!
//! [`Plan::compile_training`] extends the forward lowering of
//! [`crate::plan`] with a statically derived *reverse schedule*: one
//! adjoint step per tracked forward op (emitted in the exact reverse
//! topological order the dynamic engine walks), followed by fused
//! optimizer-update steps. Gradient buffers are ordinary plan values
//! (sourced [`ValueSource::Grad`]) colored by the same
//! interference/first-fit machinery as forward activations, over a single
//! combined timeline `forward ++ backward ++ update`. Forward values read
//! by an adjoint kernel (saved activations) have their live intervals
//! pinned across the reversal point, so the allocator can never recycle
//! an activation slot before its last backward consumer.
//!
//! [`TrainExecutor`] replays the combined schedule from pre-sized buffers
//! with zero per-step heap allocation, using the *same row-block
//! kernels* as the dynamic engine so parameter updates are bitwise
//! identical to dynamic [`crate::Tensor`] training. Fused attention's
//! two-pass backward (the one driver the dynamic op calls) reads the
//! softmax statistics (row max and normaliser) its forward step left in
//! the forward executor, exactly as the dynamic op's closures share the
//! statistics its forward saved.
//!
//! Adjoint accumulation order mirrors the dynamic engine exactly: every
//! backward step first materializes each operand's gradient contribution
//! in scratch (ascending element order), then applies the contributions
//! to the gradient buffers in the dynamic closure's `accumulate_grad`
//! order — the first write to a buffer is an [`GradMode::Init`] copy (the
//! dynamic `None` slot path), every later one an elementwise
//! [`GradMode::Accum`] add.

use std::collections::{HashMap, HashSet};

use crate::ops::attention::{attn_bwd_block, attn_bwd_lanes_len, AttnBwdScratch};
use crate::ops::kernels::{
    binary_bwd_block, broadcast_walk, gather_last_bwd_block, gather_rows_bwd_block, inverse_perm,
    log_softmax_bwd_block, permute_block, permute_walk, softmax_bwd_block, sum_axis_bwd_block,
    unary_bwd_block, AxisSplit, BinKind, RowWalk, UnKind,
};
use crate::ops::matmul::{
    mm_nt_row_block, mm_row_block, nt_panels_len, pack_nt_operand, pack_transpose_into,
};
use crate::plan::{
    assign_slots, lower_forward, mask_rows, Loc, MaskRows, Plan, PlanError, PlanExecutor, PlanOp,
    PlanSlot, PlanSpec, PlanValue, ValueId, ValueSource,
};
use crate::simd::{adamw_lanes, AdamWStep};
use crate::symbolic::SymbolicTensor;

/// How a backward step's write lands in a gradient buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradMode {
    /// First write: the buffer is initialized by a copy (the dynamic
    /// `accumulate_grad` empty-slot path).
    Init,
    /// Later writes add element-wise (`+=`), in schedule order.
    Accum,
}

/// One step of the reverse schedule.
#[derive(Clone, Debug)]
pub struct BwdStep {
    /// Index of the forward step this adjoint reverses; `None` for the
    /// seed step that initializes the root gradient to 1.
    pub fwd_step: Option<usize>,
    /// Incoming (upstream) gradient value; `None` for the seed.
    pub grad_in: Option<ValueId>,
    /// Forward values the adjoint kernel reads (saved activations). These
    /// pin the forward intervals across the reversal point.
    pub reads: Vec<ValueId>,
    /// Gradient buffers written, in the dynamic engine's accumulation
    /// order (operand order of the forward op, gated on `requires_grad`).
    pub writes: Vec<(ValueId, GradMode)>,
}

/// One fused optimizer update: `param ← param - f(grad)` in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateStep {
    /// The parameter value updated in place.
    pub param: ValueId,
    /// The gradient buffer read.
    pub grad: ValueId,
}

/// The fused optimizer a training plan appends after the reverse
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanOptimizer {
    /// Decoupled-weight-decay Adam, bitwise-matching `timekd_nn::AdamW`.
    AdamW {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical stabiliser.
        eps: f32,
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

/// What a training plan trains against and how.
#[derive(Clone, Debug)]
pub struct TrainSpec {
    /// Label of the constant leaf fed with the per-step target window
    /// (becomes the plan's [`ValueSource::Target`] value).
    pub target_label: String,
    /// Fused optimizer appended after the reverse schedule.
    pub optimizer: PlanOptimizer,
    /// Global gradient-norm clipping threshold applied between the
    /// reverse schedule and the optimizer sweep, bitwise-matching
    /// `timekd_nn::clip_grad_norm`.
    pub grad_clip: Option<f32>,
    /// Parameter labels in the dynamic clipping traversal order (the
    /// caller's `Module::params` order). Empty means plan update order.
    pub clip_param_order: Vec<String>,
    /// Symbolic node ids whose values must stay readable from the arena
    /// after a step (e.g. per-component loss scalars); each is pinned
    /// live through the end of the combined timeline.
    pub pinned: Vec<u64>,
}

impl TrainSpec {
    /// A spec with no clipping, default clip order, and no pinned values.
    pub fn new(target_label: impl Into<String>, optimizer: PlanOptimizer) -> TrainSpec {
        TrainSpec {
            target_label: target_label.into(),
            optimizer,
            grad_clip: None,
            clip_param_order: Vec::new(),
            pinned: Vec::new(),
        }
    }
}

/// Replicates `Tensor::backward`'s iterative topological sort over
/// gradient edges: enter skips nodes that don't require grad or were
/// visited, parents are pushed un-reversed, exits emit post-order.
fn sym_grad_topo(root: &SymbolicTensor) -> Vec<SymbolicTensor> {
    enum Walk {
        Enter(SymbolicTensor),
        Exit(SymbolicTensor),
    }
    let mut order = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack = vec![Walk::Enter(root.clone())];
    while let Some(item) = stack.pop() {
        match item {
            Walk::Enter(t) => {
                if !t.requires_grad() || visited.contains(&t.id()) {
                    continue;
                }
                visited.insert(t.id());
                stack.push(Walk::Exit(t.clone()));
                for p in t.grad_parents() {
                    stack.push(Walk::Enter(p.clone()));
                }
            }
            Walk::Exit(t) => order.push(t),
        }
    }
    order
}

/// Returns (and on first use creates) the gradient value of `parent`.
fn grad_value(
    values: &mut Vec<PlanValue>,
    grad_of: &mut HashMap<ValueId, ValueId>,
    parent: ValueId,
    bwd_idx: usize,
) -> (ValueId, GradMode) {
    if let Some(&gid) = grad_of.get(&parent) {
        (gid, GradMode::Accum)
    } else {
        let gid = values.len();
        values.push(PlanValue {
            source: ValueSource::Grad(bwd_idx),
            dims: values[parent].dims.clone(),
            label: format!("∂{}", values[parent].label),
            sym_ids: Vec::new(),
            slot: None,
            requires_grad: false,
            frozen: false,
            adjoint_of: Some(parent),
        });
        grad_of.insert(parent, gid);
        (gid, GradMode::Init)
    }
}

impl Plan {
    /// Lowers the graph reachable from the scalar loss `root` into a full
    /// training plan: forward schedule, reverse schedule, and fused
    /// optimizer updates, all sharing one arena. The constant leaf named
    /// by `train.target_label` becomes the per-step target buffer.
    pub fn compile_training(
        root: &SymbolicTensor,
        spec: &PlanSpec,
        train: &TrainSpec,
    ) -> Result<Plan, PlanError> {
        let lowering = lower_forward(root, spec, Some(&train.target_label))?;
        let mut values = lowering.values;
        let steps = lowering.steps;
        // A `concat` has no adjoint, so it may only join operands that
        // take no gradient (a constant window of the input and target).
        if let Some(step) = steps.iter().find(|s| {
            matches!(s.op, PlanOp::Concat { .. })
                && s.inputs.iter().any(|&v| values[v].requires_grad)
        }) {
            return Err(PlanError::new(format!(
                "`concat` at `{}` is forward-only: training plans do not lower it",
                values[step.output].label
            )));
        }
        let val_of = lowering.val_of;
        let root_val = lowering.root;
        let target_val = lowering.target.ok_or_else(|| {
            PlanError::new(format!(
                "training plan has no target leaf `{}`",
                train.target_label
            ))
        })?;
        if values[root_val].len() != 1 {
            return Err(PlanError::new(format!(
                "training root `{}` must be a scalar loss, got {:?}",
                values[root_val].label, values[root_val].dims
            )));
        }
        if !values[root_val].requires_grad {
            return Err(PlanError::new(
                "training root does not require grad; nothing to train",
            ));
        }

        // Reverse schedule. The seed step plays `accumulate_grad(&[1.0])`
        // on the root; then one adjoint step per tracked node, in the
        // exact reverse of the dynamic topological order.
        let order = sym_grad_topo(root);
        let mut grad_of: HashMap<ValueId, ValueId> = HashMap::new();
        let mut bwd_steps: Vec<BwdStep> = Vec::new();
        {
            let (gid, mode) = grad_value(&mut values, &mut grad_of, root_val, 0);
            bwd_steps.push(BwdStep {
                fwd_step: None,
                grad_in: None,
                reads: Vec::new(),
                writes: vec![(gid, mode)],
            });
        }
        for node in order.iter().rev() {
            if node.is_leaf() {
                // Leaves have no backward fn; their gradients are written
                // by their consumers' steps.
                continue;
            }
            let out_vid = *val_of.get(&node.id()).ok_or_else(|| {
                PlanError::new(format!("gradient node `{}` was not lowered", node.label()))
            })?;
            let grad_in = *grad_of.get(&out_vid).ok_or_else(|| {
                PlanError::new(format!(
                    "gradient of `{}` is never produced",
                    values[out_vid].label
                ))
            })?;
            let fwd_idx = match values[out_vid].source {
                ValueSource::Step(i) => i,
                _ => {
                    return Err(PlanError::new(format!(
                        "non-leaf `{}` has no forward step",
                        values[out_vid].label
                    )))
                }
            };
            let inputs = steps[fwd_idx].inputs.clone();
            // Saved activations each adjoint kernel reads, and which
            // operands receive gradient (in dynamic accumulation order).
            let op = &steps[fwd_idx].op;
            let (reads, sides): (Vec<ValueId>, &[usize]) = match (op, op.bin_kind(), op.un_kind()) {
                // Add/Sub only move the upstream gradient: they read no
                // forward data at all (operand slots may already be dead).
                (_, Some(kind), _) => {
                    let reads = if kind.reads_operands() {
                        vec![inputs[0], inputs[1]]
                    } else {
                        Vec::new()
                    };
                    (reads, &[0, 1])
                }
                (_, _, Some(kind)) => {
                    let x = kind.reads_input().then_some(inputs[0]);
                    let y = kind.reads_output().then_some(out_vid);
                    (x.into_iter().chain(y).collect(), &[0])
                }
                (
                    PlanOp::Sum | PlanOp::SumAxis { .. } | PlanOp::Reshape | PlanOp::Permute(_),
                    ..,
                ) => (Vec::new(), &[0]),
                (PlanOp::Matmul2d, ..) => (vec![inputs[0], inputs[1]], &[0, 1]),
                (PlanOp::FusedAttention { .. }, ..) => {
                    (vec![inputs[0], inputs[1], inputs[2]], &[0, 1, 2])
                }
                (PlanOp::FusedAttentionMap { .. }, ..) => (vec![inputs[0], inputs[1]], &[0, 1]),
                // The mask is read (it gates the live keys) but never takes
                // a gradient.
                (PlanOp::MaskedAttention { .. }, ..) => (inputs.clone(), &[0, 1, 2]),
                // The runtime ids pick the rows or elements the gradient
                // scatters to.
                (PlanOp::IndexSelectRows | PlanOp::GatherLast, ..) => (vec![inputs[1]], &[0]),
                (PlanOp::Slice { .. }, ..) => (Vec::new(), &[0]),
                // Both adjoints read the saved output (log-softmax
                // recomputes the probabilities from it).
                (PlanOp::SoftmaxLast | PlanOp::LogSoftmaxLast, ..) => (vec![out_vid], &[0]),
                _ => {
                    return Err(PlanError::new(format!(
                        "op `{}` has no adjoint lowering",
                        steps[fwd_idx].sym_op
                    )))
                }
            };
            let bwd_idx = bwd_steps.len();
            let mut writes: Vec<(ValueId, GradMode)> = Vec::new();
            for &side in sides {
                let pvid = inputs[side];
                if values[pvid].requires_grad {
                    writes.push(grad_value(&mut values, &mut grad_of, pvid, bwd_idx));
                }
            }
            bwd_steps.push(BwdStep {
                fwd_step: Some(fwd_idx),
                grad_in: Some(grad_in),
                reads,
                writes,
            });
        }

        // Fused optimizer updates: one per trainable, non-frozen
        // parameter that received a gradient, in value order (= the
        // executor's parameter binding order).
        let mut update_steps: Vec<UpdateStep> = Vec::new();
        for (vid, v) in values.iter().enumerate() {
            if v.source == ValueSource::Param && v.requires_grad && !v.frozen {
                if let Some(&g) = grad_of.get(&vid) {
                    update_steps.push(UpdateStep {
                        param: vid,
                        grad: g,
                    });
                }
            }
        }

        // Pinned component values (loss-term scalars the caller reads
        // back after a step).
        let mut pinned: Vec<ValueId> = Vec::new();
        for &sid in &train.pinned {
            let vid = *val_of.get(&sid).ok_or_else(|| {
                PlanError::new(format!("pinned symbolic node {sid} was not lowered"))
            })?;
            pinned.push(vid);
        }

        // Gradient-clipping schedule: the gradients of the named
        // parameters, in the caller's dynamic traversal order (every
        // update-step gradient must be covered or clipping would diverge
        // from `clip_grad_norm` over the full parameter list).
        let mut clip_grads: Vec<ValueId> = Vec::new();
        if train.grad_clip.is_some() {
            if train.clip_param_order.is_empty() {
                clip_grads = update_steps.iter().map(|u| u.grad).collect();
            } else {
                for label in &train.clip_param_order {
                    let vid = values
                        .iter()
                        .position(|v| v.source == ValueSource::Param && v.label == *label)
                        .ok_or_else(|| {
                            PlanError::new(format!("clip order names unknown parameter `{label}`"))
                        })?;
                    if let Some(&g) = grad_of.get(&vid) {
                        clip_grads.push(g);
                    }
                }
            }
            for u in &update_steps {
                if !clip_grads.contains(&u.grad) {
                    return Err(PlanError::new(format!(
                        "clip order does not cover trained parameter `{}`",
                        values[u.param].label
                    )));
                }
            }
        }

        // The clip pass reads every clipped gradient after the full
        // reverse schedule (like the dynamic engine), so those gradients
        // must survive to the end of the timeline alongside explicit pins.
        let mut pin_live: Vec<ValueId> = pinned.clone();
        pin_live.extend(clip_grads.iter().copied());

        let (slots, arena_len) = assign_slots(
            &mut values,
            &steps,
            &bwd_steps,
            &update_steps,
            root_val,
            &pin_live,
        );
        Ok(Plan {
            spec: spec.clone(),
            values,
            steps,
            slots,
            arena_len,
            input: lowering.input,
            root: root_val,
            bwd_steps,
            update_steps,
            target: Some(target_val),
            optimizer: Some(train.optimizer),
            grad_clip: train.grad_clip,
            clip_grads,
            pinned,
        })
    }
}

// ---------------------------------------------------------------------------
// Fault injection (training-plan variants of `Plan::inject_fault`)
// ---------------------------------------------------------------------------

fn grad_vid_of(plan: &Plan, parent: ValueId) -> Option<ValueId> {
    plan.values
        .iter()
        .position(|v| v.adjoint_of == Some(parent))
}

fn require_training(plan: &Plan, fault: &str) {
    assert!(
        !plan.bwd_steps.is_empty(),
        "{fault} applies only to training plans"
    );
}

/// Removes the sole gradient-write of one trainable parameter. Step
/// positions are untouched, so only adjoint completeness can notice.
pub(crate) fn inject_drop_adjoint(plan: &mut Plan) {
    require_training(plan, "DropAdjoint");
    for vid in 0..plan.values.len() {
        let v = &plan.values[vid];
        if v.source != ValueSource::Param || !v.requires_grad || v.frozen {
            continue;
        }
        let Some(gvid) = grad_vid_of(plan, vid) else {
            continue;
        };
        let events: usize = plan
            .bwd_steps
            .iter()
            .map(|s| s.writes.iter().filter(|&&(g, _)| g == gvid).count())
            .sum();
        if events != 1 {
            continue;
        }
        for step in &mut plan.bwd_steps {
            step.writes.retain(|&(g, _)| g != gvid);
        }
        return;
    }
    panic!("no trainable parameter with a single gradient write to drop");
}

/// Re-homes the latest-read saved activation into a fresh slot shared
/// with the root gradient (their combined-timeline intervals overlap by
/// construction), then repacks offsets exactly like the compiler would.
pub(crate) fn inject_clobber_saved_activation(plan: &mut Plan) {
    require_training(plan, "ClobberSavedActivation");
    let mut victim: Option<(usize, ValueId)> = None;
    for (j, bstep) in plan.bwd_steps.iter().enumerate() {
        for &r in &bstep.reads {
            if matches!(plan.values[r].source, ValueSource::Step(_)) && r != plan.root {
                victim = Some((j, r));
            }
        }
    }
    let (_, v) = victim.expect("no backward-read saved activation to clobber");
    let g = plan.bwd_steps[0].writes[0].0; // root gradient, live from the seed on
    let fresh = plan.slots.len();
    plan.values[v].slot = Some(fresh);
    plan.values[g].slot = Some(fresh);
    plan.slots.push(PlanSlot { offset: 0, size: 0 });
    // Repack every slot from the (corrupted) assignment, exactly like the
    // compiler: extent = max hosted size, arena = concatenation.
    for s in &mut plan.slots {
        s.size = 0;
    }
    for value in &plan.values {
        if let Some(s) = value.slot {
            plan.slots[s].size = plan.slots[s].size.max(value.len());
        }
    }
    let mut offset = 0usize;
    for s in &mut plan.slots {
        s.offset = offset;
        offset += s.size;
    }
    plan.arena_len = offset;
}

/// Swaps a gradient's writing backward step after a backward step that
/// reads it, breaking reverse-topological validity and nothing else
/// (the write/read multiset is unchanged).
pub(crate) fn inject_reorder_backward(plan: &mut Plan) {
    require_training(plan, "ReorderBackward");
    for i in 0..plan.bwd_steps.len() {
        for j in (i + 1)..plan.bwd_steps.len() {
            let reads_i_write = plan.bwd_steps[i]
                .writes
                .iter()
                .any(|&(g, _)| plan.bwd_steps[j].grad_in == Some(g));
            if reads_i_write {
                plan.bwd_steps.swap(i, j);
                return;
            }
        }
    }
    panic!("no writer/reader backward pair to reorder");
}

/// Freezes the last-updated parameter and strips its gradient writes and
/// update step. The plan stays self-consistent (every static pass is
/// clean), but it provably skips a parameter the dynamic engine trains —
/// only the plan-vs-dynamic diff can notice.
pub(crate) fn inject_update_frozen_param(plan: &mut Plan) {
    require_training(plan, "UpdateFrozenParam");
    let upd = plan
        .update_steps
        .pop()
        .expect("training plan has no update steps");
    plan.values[upd.param].frozen = true;
    for step in &mut plan.bwd_steps {
        step.writes.retain(|&(g, _)| g != upd.grad);
    }
}

// ---------------------------------------------------------------------------
// Training executor
// ---------------------------------------------------------------------------

/// One gradient-buffer write of a backward exec step.
#[derive(Clone, Copy, Debug)]
struct GradWrite {
    off: usize,
    len: usize,
    mode: GradMode,
    scratch_off: usize,
    /// For a slice's adjoint: the window the compact contribution in
    /// scratch covers; the rest of the buffer receives zeros.
    window: Option<SliceWindow>,
}

/// The window `start..start + len` of the middle axis of a slice's
/// operand, viewed as `[outer, mid, inner]`.
#[derive(Clone, Copy, Debug)]
struct SliceWindow {
    split: AxisSplit,
    start: usize,
    len: usize,
}

impl SliceWindow {
    /// Lands the compact window contribution `src` in the full-size `dst`
    /// exactly as the dynamic slice adjoint's zero-padded gradient would:
    /// an `Init` write zeroes everything outside the window, an `Accum`
    /// write adds the window rows and `+0.0` elsewhere (which turns a
    /// `−0.0` into `+0.0`, as the dynamic add of the padding does).
    fn apply(self, src: &[f32], dst: &mut [f32], mode: GradMode) {
        let AxisSplit { mid, inner, .. } = self.split;
        let (head, chunk) = (self.start * inner, self.len * inner);
        for (rows, s) in dst
            .chunks_exact_mut((mid * inner).max(1))
            .zip(src.chunks_exact(chunk.max(1)))
        {
            let (before, rest) = rows.split_at_mut(head);
            let (win, after) = rest.split_at_mut(chunk);
            match mode {
                GradMode::Init => {
                    before.fill(0.0);
                    win.copy_from_slice(s);
                    after.fill(0.0);
                }
                GradMode::Accum => {
                    for d in before.iter_mut().chain(after.iter_mut()) {
                        *d += 0.0;
                    }
                    for (d, &x) in win.iter_mut().zip(s) {
                        *d += x;
                    }
                }
            }
        }
    }
}

#[derive(Debug)]
enum BwdExecOp {
    /// Root gradient ← 1.
    Seed,
    Binary {
        kind: BinKind,
        walk: RowWalk<2>,
        a_len: usize,
        b_len: usize,
    },
    /// `dx = g` (reshape).
    CopyGrad,
    Unary(UnKind),
    /// `dx[i] = g[0]` (full-sum broadcast).
    SumFill,
    SumAxis(AxisSplit),
    Matmul {
        m: usize,
        k: usize,
        n: usize,
    },
    /// Strided gather realizing `grad.permute(inv)`.
    PermuteInv(RowWalk<1>),
    /// Scatter-add of gathered rows into the `[V, d]` table gradient.
    GatherRows {
        d: usize,
        table_len: usize,
    },
    Softmax {
        c: usize,
    },
    LogSoftmax {
        c: usize,
    },
    /// Scatter of the per-row gradient to each row's picked element.
    GatherLast {
        c: usize,
        x_len: usize,
    },
    /// `mask` is the aux rows of the additive mask, if any; `stats` the
    /// offset of the forward step's softmax statistics in the forward
    /// executor's `attn_saved`.
    Attention {
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        scale: f32,
        mask: Option<MaskRows>,
        stats: usize,
    },
    /// Backward of the head-averaged attention map: the upstream gradient
    /// arrives on the `[T_q, T_k]` map (`g_map`), the context output was
    /// discarded (`g_out = None`), and `v` contributes nothing.
    AttentionMap {
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        scale: f32,
        stats: usize,
    },
}

#[derive(Debug)]
struct BwdExec {
    op: BwdExecOp,
    g_off: usize,
    g_len: usize,
    srcs: [Loc; 4],
    writes: [Option<GradWrite>; 4],
}

#[derive(Debug)]
struct UpdExec {
    param_idx: usize,
    grad_off: usize,
    grad_len: usize,
    state_off: usize,
}

/// Fused AdamW state: hyper-parameters plus the moment buffers of every
/// trained parameter, packed at each update's `state_off`.
#[derive(Debug)]
struct OptExec {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    step_count: u64,
}

#[inline]
fn resolve<'a>(
    loc: Loc,
    arena: &'a [f32],
    params: &'a [Vec<f32>],
    input: &'a [f32],
    target: &'a [f32],
    aux: &'a [Vec<f32>],
) -> &'a [f32] {
    match loc {
        Loc::Arena { off, len } => &arena[off..off + len],
        Loc::Param { idx } => &params[idx],
        Loc::Input => input,
        Loc::Target => target,
        Loc::Aux(k) => &aux[k],
    }
}

/// Replays a compiled training [`Plan`] — forward, reverse schedule, and
/// fused optimizer — with zero per-step heap allocation. Every buffer
/// (arena, parameter copies, adjoint scratch, attention backward scratch,
/// optimizer moments) is sized at construction; the step loops only index
/// into them and call the dynamic engine's row-block kernels, so parameter
/// updates are bitwise identical to dynamic training.
#[derive(Debug)]
pub struct TrainExecutor {
    fwd: PlanExecutor,
    bwd: Vec<BwdExec>,
    upd: Vec<UpdExec>,
    opt: OptExec,
    /// Gradient arena regions in the pinned clipping traversal order.
    clip: Vec<(usize, usize)>,
    /// Clipping threshold, when the plan compiled one in.
    clip_max: Option<f32>,
    /// Per-step adjoint scratch: each backward step's operand-gradient
    /// contributions, packed side by side.
    scratch: Vec<f32>,
    /// Transposed-A packing buffer for the matmul dB kernel.
    at_buf: Vec<f32>,
    /// Packed panels of B for the matmul dA (NT) kernel.
    bt_buf: Vec<f32>,
    /// Fused-attention backward scratch (see `attn_bwd_block`).
    attn: AttnBwdScratch,
    input_len: usize,
    target_len: usize,
}

impl TrainExecutor {
    /// Builds a training executor for `plan`, resolving parameters
    /// through `param_source` exactly like [`PlanExecutor::new`]. Fails
    /// on forward-only plans and on structurally inconsistent schedules.
    pub fn new(
        plan: &Plan,
        param_source: impl FnMut(&str, &[usize]) -> Option<Vec<f32>>,
    ) -> Result<TrainExecutor, PlanError> {
        if !plan.is_training() {
            return Err(PlanError::new(
                "plan has no reverse schedule; use Plan::compile_training",
            ));
        }
        let optimizer = *plan
            .optimizer()
            .ok_or_else(|| PlanError::new("training plan has no optimizer"))?;
        let fwd = PlanExecutor::new(plan, param_source)?;

        // Parameter binding order mirrors `PlanExecutor::new`: values in
        // id order, params only.
        let mut param_pos: HashMap<ValueId, usize> = HashMap::new();
        for (vid, v) in plan.values().iter().enumerate() {
            if v.source == ValueSource::Param {
                let next = param_pos.len();
                param_pos.insert(vid, next);
            }
        }
        let loc = |vid: ValueId| -> Result<Loc, PlanError> {
            let value = &plan.values()[vid];
            match value.source {
                ValueSource::Input => Ok(Loc::Input),
                ValueSource::Target => Ok(Loc::Target),
                ValueSource::Aux(k) => Ok(Loc::Aux(k)),
                ValueSource::Param => Ok(Loc::Param {
                    idx: param_pos[&vid],
                }),
                ValueSource::Step(_) | ValueSource::Grad(_) => {
                    let slot = value.slot.ok_or_else(|| {
                        PlanError::new(format!("value `{}` has no slot", value.label))
                    })?;
                    Ok(Loc::Arena {
                        off: plan.slots()[slot].offset,
                        len: value.len(),
                    })
                }
            }
        };
        let arena_loc = |vid: ValueId| -> Result<(usize, usize), PlanError> {
            match loc(vid)? {
                Loc::Arena { off, len } => Ok((off, len)),
                _ => Err(PlanError::new(format!(
                    "gradient `{}` does not live in the arena",
                    plan.values()[vid].label
                ))),
            }
        };

        let mut bwd: Vec<BwdExec> = Vec::new();
        let mut scratch_len = 1usize;
        let (mut at_len, mut bt_len) = (0usize, 0usize);
        let (mut p_len, mut kt_len, mut lanes_len) = (0usize, 0usize, 0usize);
        // The backward reads the softmax stats its forward step saved.
        let saved_stats = |fi: usize| {
            fwd.stats_offset(fi).ok_or_else(|| {
                PlanError::new(format!("attention step {fi} saves no softmax stats"))
            })
        };
        for bstep in plan.bwd_steps() {
            let (g_off, g_len) = match bstep.grad_in {
                Some(g) => arena_loc(g)?,
                None => (0, 0),
            };
            let mut srcs = [Loc::Input; 4];
            let mut window: Option<SliceWindow> = None;
            let (op, side_layout): (BwdExecOp, Vec<(usize, usize)>) = match bstep.fwd_step {
                None => (BwdExecOp::Seed, vec![(0, 1)]),
                Some(fi) => {
                    let fstep = &plan.steps()[fi];
                    let in_len = |i: usize| -> usize { plan.values()[fstep.inputs[i]].len() };
                    let in_dims = |i: usize| -> &[usize] { &plan.values()[fstep.inputs[i]].dims };
                    let out_dims = &plan.values()[fstep.output].dims;
                    for (i, &vid) in fstep.inputs.iter().enumerate() {
                        srcs[i] = loc(vid)?;
                    }
                    match (&fstep.op, fstep.op.bin_kind(), fstep.op.un_kind()) {
                        (_, Some(kind), _) => {
                            let (al, bl) = (in_len(0), in_len(1));
                            (
                                BwdExecOp::Binary {
                                    kind,
                                    walk: broadcast_walk(in_dims(0), in_dims(1), out_dims),
                                    a_len: al,
                                    b_len: bl,
                                },
                                vec![(0, al), (al, bl)],
                            )
                        }
                        (_, _, Some(kind)) => {
                            if kind.reads_output() {
                                srcs[1] = loc(fstep.output)?;
                            }
                            (BwdExecOp::Unary(kind), vec![(0, in_len(0))])
                        }
                        (PlanOp::Reshape, ..) => (BwdExecOp::CopyGrad, vec![(0, in_len(0))]),
                        (PlanOp::Sum, ..) => (BwdExecOp::SumFill, vec![(0, in_len(0))]),
                        (PlanOp::SumAxis { axis }, ..) => (
                            BwdExecOp::SumAxis(AxisSplit::new(in_dims(0), *axis)),
                            vec![(0, in_len(0))],
                        ),
                        (PlanOp::Matmul2d, ..) => {
                            let (m, k) = (in_dims(0)[0], in_dims(0)[1]);
                            let n = in_dims(1)[1];
                            at_len = at_len.max(m * k);
                            bt_len = bt_len.max(nt_panels_len(n, k));
                            (
                                BwdExecOp::Matmul { m, k, n },
                                vec![(0, m * k), (m * k, k * n)],
                            )
                        }
                        // Realizes the dynamic `grad.permute(inv)`: the
                        // input shape in row-major order, gathered from the
                        // gradient.
                        (PlanOp::Permute(p), ..) => (
                            BwdExecOp::PermuteInv(permute_walk(out_dims, &inverse_perm(p))),
                            vec![(0, in_len(0))],
                        ),
                        (PlanOp::IndexSelectRows, ..) => (
                            BwdExecOp::GatherRows {
                                d: in_dims(0)[1],
                                table_len: in_len(0),
                            },
                            vec![(0, in_len(0))],
                        ),
                        (PlanOp::GatherLast, ..) => (
                            BwdExecOp::GatherLast {
                                c: in_dims(0).last().copied().unwrap_or(1),
                                x_len: in_len(0),
                            },
                            vec![(0, in_len(0))],
                        ),
                        (PlanOp::SoftmaxLast | PlanOp::LogSoftmaxLast, ..) => {
                            srcs[1] = loc(fstep.output)?;
                            let c = out_dims.last().copied().unwrap_or(1);
                            let op = if fstep.op == PlanOp::SoftmaxLast {
                                BwdExecOp::Softmax { c }
                            } else {
                                BwdExecOp::LogSoftmax { c }
                            };
                            (op, vec![(0, in_len(0))])
                        }
                        // The window's rows are copied compact into scratch
                        // and padded as they land (`SliceWindow::apply`).
                        (PlanOp::Slice { axis, start, len }, ..) => {
                            window = Some(SliceWindow {
                                split: AxisSplit::new(in_dims(0), *axis),
                                start: *start,
                                len: *len,
                            });
                            let g_len = plan.values()[fstep.output].len();
                            (BwdExecOp::CopyGrad, vec![(0, g_len)])
                        }
                        (
                            PlanOp::FusedAttention { heads, tq, tk, dh }
                            | PlanOp::MaskedAttention { heads, tq, tk, dh },
                            ..,
                        ) => {
                            let mask = match fstep.op {
                                PlanOp::MaskedAttention { .. } => {
                                    Some(mask_rows(plan, fstep.inputs[3], srcs[3], *tq, *tk)?)
                                }
                                _ => None,
                            };
                            let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                            p_len = p_len.max(heads * tq * tk);
                            kt_len = kt_len.max(tk * dh);
                            lanes_len = lanes_len.max(attn_bwd_lanes_len(*tk, *dh));
                            (
                                BwdExecOp::Attention {
                                    heads: *heads,
                                    tq: *tq,
                                    tk: *tk,
                                    dh: *dh,
                                    scale: 1.0 / (*dh as f32).sqrt(),
                                    mask,
                                    stats: saved_stats(fi)?,
                                },
                                vec![(0, hq), (hq, hk), (hq + hk, hk)],
                            )
                        }
                        (PlanOp::FusedAttentionMap { heads, tq, tk, dh }, ..) => {
                            let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                            p_len = p_len.max(heads * tq * tk);
                            kt_len = kt_len.max(tk * dh);
                            lanes_len = lanes_len.max(attn_bwd_lanes_len(*tk, *dh));
                            (
                                BwdExecOp::AttentionMap {
                                    heads: *heads,
                                    tq: *tq,
                                    tk: *tk,
                                    dh: *dh,
                                    scale: 1.0 / (*dh as f32).sqrt(),
                                    stats: saved_stats(fi)?,
                                },
                                vec![(0, hq), (hq, hk)],
                            )
                        }
                        _ => {
                            return Err(PlanError::new(format!(
                                "op `{}` has no adjoint lowering",
                                fstep.sym_op
                            )))
                        }
                    }
                }
            };
            scratch_len = scratch_len.max(side_layout.last().map_or(0, |&(o, l)| o + l));
            // Map declared writes onto operand sides via their adjoint
            // owner; repeated operands fill the first free matching side.
            let mut writes: [Option<GradWrite>; 4] = [None; 4];
            for &(gvid, mode) in &bstep.writes {
                let owner = plan.values()[gvid].adjoint_of.ok_or_else(|| {
                    PlanError::new(format!(
                        "backward write target `{}` is not an adjoint",
                        plan.values()[gvid].label
                    ))
                })?;
                let side = match bstep.fwd_step {
                    None => 0,
                    Some(fi) => {
                        let fstep = &plan.steps()[fi];
                        fstep
                            .inputs
                            .iter()
                            .enumerate()
                            .position(|(i, &op_vid)| op_vid == owner && writes[i].is_none())
                            .ok_or_else(|| {
                                PlanError::new(format!(
                                    "backward write `{}` matches no operand",
                                    plan.values()[gvid].label
                                ))
                            })?
                    }
                };
                let (off, len) = arena_loc(gvid)?;
                let (scratch_off, side_len) = side_layout[side];
                let full_len =
                    window.map_or(side_len, |w| w.split.outer * w.split.mid * w.split.inner);
                if len != full_len {
                    return Err(PlanError::new(format!(
                        "backward write `{}` length mismatch",
                        plan.values()[gvid].label
                    )));
                }
                writes[side] = Some(GradWrite {
                    off,
                    len,
                    mode,
                    scratch_off,
                    window,
                });
            }
            bwd.push(BwdExec {
                op,
                g_off,
                g_len,
                srcs,
                writes,
            });
        }

        let mut upd: Vec<UpdExec> = Vec::new();
        let mut state_total = 0usize;
        for u in plan.update_steps() {
            let param_idx = *param_pos.get(&u.param).ok_or_else(|| {
                PlanError::new(format!(
                    "update target `{}` is not a parameter",
                    plan.values()[u.param].label
                ))
            })?;
            let (grad_off, grad_len) = arena_loc(u.grad)?;
            if grad_len != plan.values()[u.param].len() {
                return Err(PlanError::new(format!(
                    "update gradient for `{}` has the wrong length",
                    plan.values()[u.param].label
                )));
            }
            upd.push(UpdExec {
                param_idx,
                grad_off,
                grad_len,
                state_off: state_total,
            });
            state_total += grad_len;
        }
        let PlanOptimizer::AdamW {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
        } = optimizer;
        let opt = OptExec {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            m: vec![0.0; state_total],
            v: vec![0.0; state_total],
            step_count: 0,
        };

        // Clipping schedule: arena regions in the plan's pinned traversal
        // order.
        let mut clip: Vec<(usize, usize)> = Vec::with_capacity(plan.clip_grads().len());
        for &g in plan.clip_grads() {
            clip.push(arena_loc(g)?);
        }

        let input_len = plan.values()[plan.input()].len();
        let target_len = plan.target().map_or(0, |vid| plan.values()[vid].len());
        Ok(TrainExecutor {
            fwd,
            bwd,
            upd,
            opt,
            clip,
            clip_max: plan.grad_clip(),
            scratch: vec![0.0; scratch_len],
            at_buf: vec![0.0; at_len],
            bt_buf: vec![0.0; bt_len],
            attn: AttnBwdScratch::new(p_len, kt_len, lanes_len),
            input_len,
            target_len,
        })
    }

    /// Expected input (lookback window) length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Expected target (horizon window) length.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Current data of parameter `idx` in binding order.
    pub fn param_data(&self, idx: usize) -> &[f32] {
        &self.fwd.params[idx]
    }

    /// Overwrites parameter `idx` (binding order) with `data`, e.g. values
    /// loaded into the live model since binding.
    pub fn set_param_data(&mut self, idx: usize, data: &[f32]) {
        self.fwd.params[idx].copy_from_slice(data);
    }

    /// Overrides the AdamW step counter — shared-counter semantics when
    /// the surrounding trainer also steps other parameter groups through
    /// the same dynamic optimizer.
    pub fn set_step_count(&mut self, n: u64) {
        self.opt.step_count = n;
    }

    /// Overrides the fused optimizer's learning rate (lr schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.opt.lr = lr;
    }

    /// Feeds auxiliary constant `k` for subsequent replays.
    pub fn set_aux(&mut self, k: usize, data: &[f32]) {
        self.fwd.set_aux(k, data);
    }

    /// Expected length of auxiliary feed slot `k`.
    pub fn aux_len(&self, k: usize) -> usize {
        self.fwd.aux_len(k)
    }

    /// Loss scalar left in the arena by the last forward pass.
    pub fn loss(&self) -> f32 {
        self.fwd.arena[self.fwd.root_off]
    }

    /// Reads `len` arena elements at `off` — for pinned component values
    /// whose ranges come from [`Plan::arena_range`].
    pub fn arena_value(&self, off: usize, len: usize) -> &[f32] {
        &self.fwd.arena[off..off + len]
    }

    /// Runs one full training step — forward, reverse schedule, gradient
    /// clipping (when compiled in), fused optimizer — and returns the
    /// loss. Performs no heap allocation.
    pub fn run_train_step(&mut self, input: &[f32], target: &[f32]) -> f32 {
        assert_eq!(input.len(), self.input_len, "train input length mismatch");
        assert_eq!(
            target.len(),
            self.target_len,
            "train target length mismatch"
        );
        self.fwd.target.copy_from_slice(target);
        self.fwd.execute_plan_loop(input);
        self.backward_plan_loop(input);
        self.clip_plan_loop();
        self.optimizer_plan_loop();
        self.fwd.arena[self.fwd.root_off]
    }

    /// Applies global gradient-norm clipping over the compiled clip
    /// schedule, bitwise-matching `timekd_nn::clip_grad_norm`: one serial
    /// ascending sum of squares per region (the dynamic per-parameter
    /// `iter().sum()`), folded into the total in traversal order, then a
    /// uniform scale of every region.
    fn clip_plan_loop(&mut self) {
        let TrainExecutor {
            fwd,
            clip,
            clip_max,
            ..
        } = self;
        let Some(max_norm) = *clip_max else { return };
        let arena = &mut fwd.arena;
        let mut total = 0.0f32;
        for &(off, len) in clip.iter() {
            let mut region = 0.0f32;
            for &g in &arena[off..off + len] {
                region += g * g;
            }
            total += region;
        }
        let norm = total.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for &(off, len) in clip.iter() {
                for g in &mut arena[off..off + len] {
                    *g *= scale;
                }
            }
        }
    }

    /// Replays the reverse schedule. Compute phase: read the arena, write
    /// per-operand contributions into scratch (ascending element order,
    /// exactly like the dynamic closures). Apply phase: land each
    /// contribution on its gradient buffer in declared order.
    fn backward_plan_loop(&mut self, input: &[f32]) {
        let TrainExecutor {
            fwd,
            bwd,
            scratch,
            at_buf,
            bt_buf,
            attn,
            ..
        } = self;
        let params = &fwd.params;
        let target = &fwd.target;
        let aux = &fwd.aux;
        let mask_live = &fwd.mask_live;
        let attn_saved = &fwd.attn_saved;
        let arena = &mut fwd.arena;
        for step in bwd.iter() {
            {
                let arena_r: &[f32] = arena;
                let g = &arena_r[step.g_off..step.g_off + step.g_len];
                let wa = step.writes[0].is_some();
                let wb = step.writes[1].is_some();
                match &step.op {
                    BwdExecOp::Seed => {
                        scratch[0] = 1.0;
                    }
                    BwdExecOp::Binary {
                        kind,
                        walk,
                        a_len,
                        b_len,
                    } => {
                        let (sa, rest) = scratch.split_at_mut(*a_len);
                        let sb = &mut rest[..*b_len];
                        // Add/Sub read no operand data (their slots may
                        // already be recycled), so they get `g` in its place.
                        let (a, b) = if kind.reads_operands() {
                            (
                                resolve(step.srcs[0], arena_r, params, input, target, aux),
                                resolve(step.srcs[1], arena_r, params, input, target, aux),
                            )
                        } else {
                            (g, g)
                        };
                        binary_bwd_block(*kind, walk, a, b, g, wa.then_some(sa), wb.then_some(sb));
                    }
                    BwdExecOp::CopyGrad => {
                        scratch[..g.len()].copy_from_slice(g);
                    }
                    BwdExecOp::Unary(kind) => {
                        // Scalar adds and scales read no input data either.
                        let x = if kind.reads_input() {
                            resolve(step.srcs[0], arena_r, params, input, target, aux)
                        } else {
                            g
                        };
                        let y = if kind.reads_output() {
                            resolve(step.srcs[1], arena_r, params, input, target, aux)
                        } else {
                            &[]
                        };
                        unary_bwd_block(*kind, x, y, g, &mut scratch[..g.len()]);
                    }
                    BwdExecOp::SumFill => {
                        let n = step.writes[0].map_or(0, |w| w.len);
                        scratch[..n].fill(g[0]);
                    }
                    BwdExecOp::SumAxis(split) => {
                        let n = split.outer * split.mid * split.inner;
                        sum_axis_bwd_block(g, &mut scratch[..n], *split);
                    }
                    BwdExecOp::Matmul { m, k, n } => {
                        let (sa, rest) = scratch.split_at_mut(m * k);
                        let sb = &mut rest[..k * n];
                        if wa {
                            // dA = g · Bᵀ, the dynamic `mm_nt_accumulate`
                            // kernel, packing B into the arena's panel.
                            let b = resolve(step.srcs[1], arena_r, params, input, target, aux);
                            let panels = &mut bt_buf[..nt_panels_len(*n, *k)];
                            pack_nt_operand(b, panels, *n, *k);
                            sa.fill(0.0);
                            mm_nt_row_block(g, b, panels, sa, *m, *n, *k);
                        }
                        if wb {
                            // dB = Aᵀ · g via the same packed-transpose +
                            // row-block kernel as `mm_tn_accumulate`.
                            let a = resolve(step.srcs[0], arena_r, params, input, target, aux);
                            let at = &mut at_buf[..m * k];
                            pack_transpose_into(a, at, *m, *k);
                            sb.fill(0.0);
                            mm_row_block(at, g, sb, *k, *m, *n);
                        }
                    }
                    BwdExecOp::PermuteInv(walk) => {
                        permute_block(walk, g, &mut scratch[..g.len()]);
                    }
                    BwdExecOp::GatherRows { d, table_len } => {
                        let ids = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        gather_rows_bwd_block(ids, *d, g, &mut scratch[..*table_len]);
                    }
                    BwdExecOp::Softmax { c } => {
                        let y = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        softmax_bwd_block(y, g, &mut scratch[..y.len()], *c);
                    }
                    BwdExecOp::LogSoftmax { c } => {
                        let y = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        log_softmax_bwd_block(y, g, &mut scratch[..y.len()], *c);
                    }
                    BwdExecOp::GatherLast { c, x_len } => {
                        let ids = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        gather_last_bwd_block(ids, *c, g, &mut scratch[..*x_len]);
                    }
                    BwdExecOp::Attention {
                        heads,
                        tq,
                        tk,
                        dh,
                        scale,
                        mask,
                        stats,
                    } => {
                        let q = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        let k = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        let v = resolve(step.srcs[2], arena_r, params, input, target, aux);
                        let key_mask = mask.map(|m| m.view(aux, mask_live, *tq, *tk));
                        let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                        let (dq, rest) = scratch.split_at_mut(hq);
                        let (dk, rest2) = rest.split_at_mut(hk);
                        // The softmax stats the forward step saved.
                        let (m_sink, l_sink) =
                            attn_saved[*stats..*stats + 2 * tq * heads].split_at(tq * heads);
                        attn_bwd_block(
                            q,
                            k,
                            v,
                            key_mask,
                            Some(g),
                            None,
                            m_sink,
                            l_sink,
                            dq,
                            dk,
                            &mut rest2[..hk],
                            attn,
                            *heads,
                            *tq,
                            *tk,
                            *dh,
                            *scale,
                        );
                    }
                    BwdExecOp::AttentionMap {
                        heads,
                        tq,
                        tk,
                        dh,
                        scale,
                        stats,
                    } => {
                        // The upstream gradient lands on the head-averaged
                        // map; the context output was discarded, so
                        // `g_out = None` and `v`/`dv` drop out — exactly
                        // the dynamic map-node closure.
                        let q = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        let k = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                        let (dq, rest) = scratch.split_at_mut(hq);
                        // The softmax stats the forward step saved.
                        let (m_sink, l_sink) =
                            attn_saved[*stats..*stats + 2 * tq * heads].split_at(tq * heads);
                        attn_bwd_block(
                            q,
                            k,
                            &[],
                            None,
                            None,
                            Some(g),
                            m_sink,
                            l_sink,
                            dq,
                            &mut rest[..hk],
                            &mut [],
                            attn,
                            *heads,
                            *tq,
                            *tk,
                            *dh,
                            *scale,
                        );
                    }
                }
            }
            // Apply phase: land contributions in declared (dynamic
            // accumulation) order.
            for w in step.writes.iter().flatten() {
                let dst = &mut arena[w.off..w.off + w.len];
                if let Some(window) = w.window {
                    window.apply(&scratch[w.scratch_off..], dst, w.mode);
                    continue;
                }
                let src = &scratch[w.scratch_off..w.scratch_off + w.len];
                match w.mode {
                    GradMode::Init => dst.copy_from_slice(src),
                    GradMode::Accum => {
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += *s;
                        }
                    }
                }
            }
        }
    }

    /// Applies the fused AdamW updates in place, bitwise-matching the
    /// dynamic `timekd_nn::AdamW`.
    fn optimizer_plan_loop(&mut self) {
        let TrainExecutor { fwd, upd, opt, .. } = self;
        let arena = &fwd.arena;
        let params = &mut fwd.params;
        let OptExec {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            m,
            v,
            step_count,
        } = opt;
        *step_count += 1;
        let step = AdamWStep::new(*lr, *beta1, *beta2, *eps, *weight_decay, *step_count);
        for u in upd.iter() {
            let grad = &arena[u.grad_off..u.grad_off + u.grad_len];
            let ms = &mut m[u.state_off..u.state_off + u.grad_len];
            let vs = &mut v[u.state_off..u.state_off + u.grad_len];
            adamw_lanes(&mut params[u.param_idx][..u.grad_len], grad, ms, vs, &step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MAX_PLAN_RANK;
    use crate::recorder::{replay_labelled, Recorder};
    use crate::{record, seeded_rng, Tensor};

    fn spec() -> PlanSpec {
        PlanSpec {
            input_label: "x".to_string(),
            col_mean_leaves: Vec::new(),
            col_std_leaves: Vec::new(),
            aux_labels: Vec::new(),
        }
    }

    /// The recorded graph of the dynamic references below:
    /// loss = mean(smooth_l1(relu(x·w + bias), y)).
    fn mlp_loss() -> SymbolicTensor {
        let x = Tensor::zeros([4, 3]);
        let y = Tensor::zeros([4, 2]);
        let w = Tensor::zeros_param([3, 2]);
        let b = Tensor::zeros_param([2]);
        let labelled = [("x", &x), ("y", &y), ("w", &w), ("bias", &b)];
        replay_labelled(&labelled, || {
            x.matmul(&w).add(&b).relu().smooth_l1(&y).mean()
        })
    }

    fn param_bank() -> (Vec<f32>, Vec<f32>) {
        let mut rng = seeded_rng(0x5EED);
        let w = Tensor::randn([3, 2], 1.0, &mut rng).to_vec();
        let b = Tensor::randn([2], 1.0, &mut rng).to_vec();
        (w, b)
    }

    fn dynamic_train(
        w0: &[f32],
        b0: &[f32],
        xs: &[Vec<f32>],
        ys: &[Vec<f32>],
    ) -> (Vec<f32>, Vec<f32>, f32) {
        let w = Tensor::param(w0.to_vec(), [3, 2]);
        let b = Tensor::param(b0.to_vec(), [2]);
        let mut opt = dyn_adamw();
        let mut last = 0.0;
        for (xv, yv) in xs.iter().zip(ys) {
            let x = Tensor::from_vec(xv.clone(), [4, 3]);
            let y = Tensor::from_vec(yv.clone(), [4, 2]);
            w.zero_grad();
            b.zero_grad();
            let h = x.matmul(&w).add(&b).relu();
            let loss = h.smooth_l1(&y).mean();
            last = loss.item();
            loss.backward();
            opt.step(&[w.clone(), b.clone()]);
        }
        (w.to_vec(), b.to_vec(), last)
    }

    /// Mirror of `timekd_nn::AdamW` (the nn crate is downstream of this
    /// one, so the dynamic reference is restated here verbatim).
    struct DynAdamW {
        lr: f32,
        step_count: u64,
        state: std::collections::HashMap<u64, (Vec<f32>, Vec<f32>)>,
    }

    fn dyn_adamw() -> DynAdamW {
        DynAdamW {
            lr: 0.05,
            step_count: 0,
            state: std::collections::HashMap::new(),
        }
    }

    impl DynAdamW {
        fn step(&mut self, params: &[Tensor]) {
            let (beta1, beta2, eps, weight_decay) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
            self.step_count += 1;
            let t = self.step_count as f32;
            let bias1 = 1.0 - beta1.powf(t);
            let bias2 = 1.0 - beta2.powf(t);
            for p in params {
                let Some(grad) = p.grad() else { continue };
                let n = p.num_elements();
                let (m, v) = self
                    .state
                    .entry(p.id())
                    .or_insert_with(|| (vec![0.0; n], vec![0.0; n]));
                let lr = self.lr;
                p.update_data(|data| {
                    for i in 0..n {
                        let g = grad[i];
                        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                        let m_hat = m[i] / bias1;
                        let v_hat = v[i] / bias2;
                        data[i] -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * data[i]);
                    }
                });
            }
        }
    }

    fn planned_train(
        optimizer: PlanOptimizer,
        w0: &[f32],
        b0: &[f32],
        xs: &[Vec<f32>],
        ys: &[Vec<f32>],
    ) -> (Vec<f32>, Vec<f32>, f32) {
        let plan = Plan::compile_training(&mlp_loss(), &spec(), &TrainSpec::new("y", optimizer))
            .expect("training plan compiles");
        let mut exec = TrainExecutor::new(&plan, |label, _| match label {
            "w" => Some(w0.to_vec()),
            "bias" => Some(b0.to_vec()),
            _ => None,
        })
        .expect("executor binds");
        let mut last = 0.0;
        for (xv, yv) in xs.iter().zip(ys) {
            last = exec.run_train_step(xv, yv);
        }
        // Binding order is plan value order; map back through labels.
        let labels: Vec<String> = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.clone())
            .collect();
        let wi = labels.iter().position(|l| l == "w").unwrap();
        let bi = labels.iter().position(|l| l == "bias").unwrap();
        (
            exec.param_data(wi).to_vec(),
            exec.param_data(bi).to_vec(),
            last,
        )
    }

    fn windows(n: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = seeded_rng(0xBEEF);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            xs.push(Tensor::randn([12], 1.0, &mut rng).to_vec());
            ys.push(Tensor::randn([8], 1.0, &mut rng).to_vec());
        }
        (xs, ys)
    }

    /// The fused optimizer matching [`dyn_adamw`].
    fn adamw() -> PlanOptimizer {
        PlanOptimizer::AdamW {
            lr: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
        }
    }

    #[test]
    fn planned_adamw_training_is_bitwise_dynamic() {
        let (w0, b0) = param_bank();
        let (xs, ys) = windows(7);
        let (dw, db, dloss) = dynamic_train(&w0, &b0, &xs, &ys);
        let (pw, pb, ploss) = planned_train(adamw(), &w0, &b0, &xs, &ys);
        assert_eq!(dw, pw, "weights diverge under AdamW");
        assert_eq!(db, pb, "bias diverges under AdamW");
        assert_eq!(dloss.to_bits(), ploss.to_bits(), "loss diverges");
    }

    /// The element-wise, reduction or permute op a property case tests.
    #[derive(Clone, Debug)]
    enum CoreOp {
        Binary(&'static str),
        Permute(Vec<usize>),
        SumAxis(usize, bool),
    }

    /// The unary op applied after the core op (`Rsqrt` runs on
    /// `square + 1` so its input stays positive).
    const UNARIES: [&str; 7] = ["none", "relu", "gelu", "square", "add", "scale", "rsqrt"];

    fn random_dims(rng: &mut crate::SeededRng, rank: usize) -> Vec<usize> {
        (0..rank).map(|_| rng.gen_range(1..=3usize)).collect()
    }

    /// The trailing axes of `out` (any count, down to a scalar), each kept
    /// or broadcast (size 1).
    fn broadcast_operand(rng: &mut crate::SeededRng, out: &[usize]) -> Vec<usize> {
        let rank = rng.gen_range(0..=out.len());
        out[out.len() - rank..]
            .iter()
            .map(|&d| if rng.gen_range(0..3usize) == 0 { 1 } else { d })
            .collect()
    }

    fn random_values(rng: &mut crate::SeededRng, dims: &[usize], positive: bool) -> Vec<f32> {
        let n: usize = dims.iter().product();
        (0..n)
            .map(|_| {
                let v = rng.gen::<f32>();
                if positive {
                    0.5 + v
                } else {
                    2.0 * v - 1.0
                }
            })
            .collect()
    }

    /// `loss = sum(smooth_l1(unary(core(a, b)) * x, y))`, run on the
    /// dynamic engine and recorded for the plans.
    struct PropCase {
        core: CoreOp,
        unary: &'static str,
        params: Vec<(&'static str, Vec<usize>, Vec<f32>)>,
    }

    impl PropCase {
        fn dynamic(&self, params: &[Tensor]) -> Tensor {
            let out = match &self.core {
                CoreOp::Binary(op) => match *op {
                    "add" => params[0].add(&params[1]),
                    "sub" => params[0].sub(&params[1]),
                    "mul" => params[0].mul(&params[1]),
                    _ => params[0].div(&params[1]),
                },
                CoreOp::Permute(perm) => params[0].permute(perm),
                CoreOp::SumAxis(axis, keepdim) => params[0].sum_axis(*axis, *keepdim),
            };
            match self.unary {
                "relu" => out.relu(),
                "gelu" => out.gelu(),
                "square" => out.square(),
                "add" => out.add_scalar(0.75),
                "scale" => out.mul_scalar(-1.5),
                "rsqrt" => out.square().add_scalar(1.0).rsqrt(),
                _ => out,
            }
        }

        fn bind(&self) -> impl FnMut(&str, &[usize]) -> Option<Vec<f32>> + '_ {
            |label, _| {
                self.params
                    .iter()
                    .find(|(l, ..)| *l == label)
                    .map(|(.., v)| v.clone())
            }
        }
    }

    fn random_case(rng: &mut crate::SeededRng, i: usize) -> PropCase {
        // Case `i` has kind `i % 3`; each kind cycles through every rank,
        // and sum_axis through every axis of each rank.
        let j = i / 3;
        let rank = 1 + j % MAX_PLAN_RANK;
        let unary = UNARIES[rng.gen_range(0..UNARIES.len())];
        let (core, params) = match i % 3 {
            0 => {
                let out = random_dims(rng, rank);
                let a = broadcast_operand(rng, &out);
                let b = broadcast_operand(rng, &out);
                let op = ["add", "sub", "mul", "div"][rng.gen_range(0..4usize)];
                let (va, vb) = (
                    random_values(rng, &a, false),
                    random_values(rng, &b, op == "div"),
                );
                (CoreOp::Binary(op), vec![("a", a, va), ("b", b, vb)])
            }
            1 => {
                let dims = random_dims(rng, rank);
                let mut perm: Vec<usize> = (0..rank).collect();
                for k in (1..rank).rev() {
                    perm.swap(k, rng.gen_range(0..=k));
                }
                let va = random_values(rng, &dims, false);
                (CoreOp::Permute(perm), vec![("a", dims, va)])
            }
            _ => {
                let dims = random_dims(rng, rank);
                let axis = (j / MAX_PLAN_RANK) % rank;
                let keepdim = rng.gen_range(0..2usize) == 0;
                let va = random_values(rng, &dims, false);
                (CoreOp::SumAxis(axis, keepdim), vec![("a", dims, va)])
            }
        };
        PropCase {
            core,
            unary,
            params,
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn planned_kernels_are_bitwise_dynamic_over_random_geometries() {
        let mut rng = seeded_rng(0x6E0_4E7);
        let (mut scalar, mut both_broadcast, mut unit_axis) = (0, 0, 0);
        let mut sum_axes = std::collections::HashSet::new();
        for i in 0..360 {
            let case = random_case(&mut rng, i);
            let tag = format!("case {i}: {:?} then {}", case.core, case.unary);
            let params: Vec<Tensor> = case
                .params
                .iter()
                .map(|(_, dims, v)| Tensor::param(v.clone(), dims.clone()))
                .collect();
            let out_dims = case.dynamic(&params).dims().to_vec();
            let dims = |k: usize| case.params[k].1.as_slice();
            match &case.core {
                CoreOp::Binary(_) => {
                    let (a, b) = (dims(0), dims(1));
                    scalar += usize::from(a.is_empty() || b.is_empty());
                    let out = &out_dims;
                    let stretched = |d: &[usize]| {
                        let tail = &out[out.len() - d.len()..];
                        d.len() < out.len() || d.iter().zip(tail).any(|(&x, &o)| x < o)
                    };
                    both_broadcast += usize::from(stretched(a) && stretched(b));
                }
                CoreOp::SumAxis(axis, _) => {
                    sum_axes.insert((dims(0).len(), *axis));
                }
                CoreOp::Permute(_) => {}
            }
            unit_axis += usize::from(case.params.iter().any(|(_, d, _)| d.contains(&1)));
            let x = random_values(&mut rng, &out_dims, false);
            let y = random_values(&mut rng, &out_dims, false);

            // Dynamic reference: forward output, loss, operand gradients —
            // recorded, so the plans are lowered from this very run.
            let xt = Tensor::from_vec(x.clone(), out_dims.clone());
            let yt = Tensor::from_vec(y.clone(), out_dims.clone());
            let (fwd, loss) = record(|| {
                let fwd = case.dynamic(&params).mul(&xt);
                let loss = fwd.smooth_l1(&yt).sum();
                (fwd, loss)
            });
            loss.backward();
            let mut rec = Recorder::new();
            for ((label, ..), p) in case.params.iter().zip(&params) {
                rec.param(label, p, false);
            }
            rec.name("x", &xt);
            rec.name("y", &yt);
            let syms = rec.replay(&[&fwd, &loss]).expect("recorded case replays");

            // Forward-only plan: the output, element for element.
            let plan = Plan::compile(&syms[0], &spec()).expect("forward plan compiles");
            let mut exec = PlanExecutor::new(&plan, case.bind()).expect("forward binds");
            let mut out = vec![0.0f32; exec.output_len()];
            exec.run(&x, &mut out);
            assert_eq!(bits(&out), bits(&fwd.to_vec()), "{tag}: forward");

            // Training plan: the loss and every operand gradient.
            let plan = Plan::compile_training(&syms[1], &spec(), &TrainSpec::new("y", adamw()))
                .expect("training plan compiles");
            let mut exec = TrainExecutor::new(&plan, case.bind()).expect("trainer binds");
            let planned_loss = exec.run_train_step(&x, &y);
            assert_eq!(planned_loss.to_bits(), loss.item().to_bits(), "{tag}: loss");
            for ((label, ..), p) in case.params.iter().zip(&params) {
                let vid = plan
                    .values()
                    .iter()
                    .position(|v| v.source == ValueSource::Param && v.label == *label)
                    .expect("param value");
                let gvid = plan
                    .values()
                    .iter()
                    .position(|v| v.adjoint_of == Some(vid))
                    .expect("param gradient");
                let (off, len) = plan.arena_range(gvid).expect("gradient in the arena");
                let want = p.grad().expect("dynamic gradient");
                assert_eq!(
                    bits(exec.arena_value(off, len)),
                    bits(&want),
                    "{tag}: d{label}"
                );
            }
        }
        // The sweep must reach the row-walk edge cases it exists for.
        assert!(scalar > 0, "no scalar operand");
        assert!(
            both_broadcast > 0,
            "no case with both operands broadcasting"
        );
        assert!(unit_axis > 0, "no size-1 axis");
        for rank in 1..=MAX_PLAN_RANK {
            for axis in 0..rank {
                assert!(
                    sum_axes.contains(&(rank, axis)),
                    "sum_axis {axis} of rank {rank}"
                );
            }
        }
    }

    /// A small causal-LM-shaped loss over the runtime-operand ops: a row
    /// gather by input ids plus a sliced positional table, masked
    /// attention, a tied head whose shifted logits feed a cross-entropy
    /// over aux targets, two slices of one hidden state (last row and a
    /// column window), so slice adjoints land both first and added, and a
    /// standalone softmax mixing the embedded rows.
    fn lm_ops_loss(table: &Tensor, pos: &Tensor, w: &Tensor, feeds: [&Tensor; 4]) -> Tensor {
        let [ids, mask, next, y] = feeds;
        let s = ids.num_elements();
        let x = table.index_select_rows(ids).add(&pos.slice(0, 0, s));
        let heads = x.mul(w).reshape([s, 2, 3]).permute(&[1, 0, 2]);
        let h = Tensor::fused_attention(&heads, &heads, &heads, Some(mask))
            .0
            .add(&x);
        let lm = h
            .matmul(&table.transpose_last())
            .slice(0, 0, s - 1)
            .cross_entropy(next);
        let value = h.slice(0, s - 1, 1).sub(y).square().mean();
        let window = h.slice(1, 1, 3).square().mean();
        // A standalone softmax over a `[S, S]` similarity, as SCA's `M_c`.
        let mixed = h
            .matmul(&x.transpose_last())
            .softmax_last()
            .matmul(&x)
            .square()
            .mean();
        lm.add(&value.mul_scalar(3.0)).add(&window).add(&mixed)
    }

    #[test]
    fn planned_runtime_operand_ops_train_bitwise_dynamic() {
        let (v, d, s) = (11, 6, 9);
        let mut rng = seeded_rng(0x1D5);
        let init = [
            Tensor::randn([v, d], 0.5, &mut rng).to_vec(),
            Tensor::randn([16, d], 0.5, &mut rng).to_vec(),
            Tensor::randn([d], 0.5, &mut rng).to_vec(),
        ];
        let shapes: [&[usize]; 3] = [&[v, d], &[16, d], &[d]];
        let labels = ["emb.table", "emb.pos", "attn.w"];
        let params = |data: &[Vec<f32>; 3]| -> Vec<Tensor> {
            data.iter()
                .zip(shapes)
                .map(|(x, dims)| Tensor::param(x.clone(), dims.to_vec()))
                .collect()
        };
        // Per step: ids, a causal mask with a cut-off prefix, next ids and
        // a value target.
        let feeds = |step: usize| -> [Tensor; 4] {
            let ids: Vec<usize> = (0..s).map(|i| (i * 7 + step * 3) % v).collect();
            let mut bias = vec![0.0f32; s * s];
            for i in 0..s {
                for j in 0..s {
                    if j > i || (step == 1 && j + 3 < i) {
                        bias[i * s + j] = crate::NEG_INF;
                    }
                }
            }
            let next: Vec<usize> = ids[1..].to_vec();
            let y: Vec<f32> = (0..d).map(|j| (j + step) as f32 * 0.1).collect();
            [
                Tensor::indices(&ids),
                Tensor::from_vec(bias, [s, s]),
                Tensor::indices(&next),
                Tensor::from_vec(y, [1, d]),
            ]
        };

        let dyn_params = params(&init);
        let mut opt = dyn_adamw();
        let mut want_losses = Vec::new();
        for step in 0..3 {
            let f = feeds(step);
            for p in &dyn_params {
                p.zero_grad();
            }
            let loss = lm_ops_loss(
                &dyn_params[0],
                &dyn_params[1],
                &dyn_params[2],
                [&f[0], &f[1], &f[2], &f[3]],
            );
            want_losses.push(loss.item());
            loss.backward();
            opt.step(&dyn_params);
        }

        let rec_params = params(&init);
        let f = feeds(0);
        let mut rec = Recorder::new();
        for (label, p) in labels.iter().zip(&rec_params) {
            rec.param(label, p, false);
        }
        for (label, t) in ["ids", "mask", "next", "y"].iter().zip(&f) {
            rec.name(label, t);
        }
        let loss = record(|| {
            lm_ops_loss(
                &rec_params[0],
                &rec_params[1],
                &rec_params[2],
                [&f[0], &f[1], &f[2], &f[3]],
            )
        });
        let root = rec.replay(&[&loss]).expect("replays").remove(0);
        let spec = PlanSpec {
            input_label: "ids".to_string(),
            aux_labels: vec!["mask".to_string(), "next".to_string()],
            ..spec()
        };
        let plan = Plan::compile_training(&root, &spec, &TrainSpec::new("y", adamw()))
            .expect("training plan compiles");
        let accum_windows = plan
            .bwd_steps()
            .iter()
            .filter(|b| {
                b.fwd_step
                    .is_some_and(|t| matches!(plan.steps()[t].op, PlanOp::Slice { .. }))
                    && b.writes.iter().any(|&(_, m)| m == GradMode::Accum)
            })
            .count();
        assert!(
            accum_windows > 0,
            "no slice adjoint lands as an Accum write"
        );
        let mut exec = TrainExecutor::new(&plan, |label, _| {
            labels
                .iter()
                .position(|l| *l == label)
                .map(|i| init[i].clone())
        })
        .expect("binds");
        for (step, want) in want_losses.iter().enumerate() {
            let f = feeds(step);
            exec.set_aux(0, &f[1].to_vec());
            exec.set_aux(1, &f[2].to_vec());
            let got = exec.run_train_step(&f[0].to_vec(), &f[3].to_vec());
            assert_eq!(got.to_bits(), want.to_bits(), "step {step}: loss");
        }
        let bound: Vec<&str> = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.as_str())
            .collect();
        for (i, label) in bound.iter().enumerate() {
            let k = labels.iter().position(|l| l == label).expect("known param");
            assert_eq!(
                bits(exec.param_data(i)),
                bits(&dyn_params[k].to_vec()),
                "{label}"
            );
        }
    }

    #[test]
    fn concat_of_untracked_operands_trains_and_a_tracked_one_is_refused() {
        // loss = sum(smooth_l1(concat(xᵀ, yᵀ)·w, 0)): the joined operands
        // are the input and the target, which take no gradient, so the
        // concat lowers and the step matches the dynamic one bit for bit.
        let (n, h, m) = (3, 4, 2);
        let join = |x: &Tensor, y: &Tensor, w: &Tensor| {
            let joint = Tensor::concat(&[x.transpose_last(), y.transpose_last()], 1);
            joint.matmul(w).square().sum()
        };
        let w0: Vec<f32> = (0..(h + m) * 2).map(|i| 0.1 * i as f32 - 0.4).collect();
        let x = Tensor::zeros([h, n]);
        let y = Tensor::zeros([m, n]);
        let w = Tensor::param(w0.clone(), [h + m, 2]);
        let root = replay_labelled(&[("x", &x), ("y", &y), ("proj.w", &w)], || join(&x, &y, &w));
        let plan = Plan::compile_training(&root, &spec(), &TrainSpec::new("y", adamw()))
            .expect("a concat of constants lowers");
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s.op, PlanOp::Concat { .. })));
        let mut exec =
            TrainExecutor::new(&plan, |label, _| (label == "proj.w").then(|| w0.clone())).unwrap();
        let w = Tensor::param(w0.clone(), [h + m, 2]);
        let mut opt = dyn_adamw();
        let mut rng = seeded_rng(0xC0CA7);
        for step in 0..3 {
            let xv = Tensor::randn([h, n], 1.0, &mut rng);
            let yv = Tensor::randn([m, n], 1.0, &mut rng);
            w.zero_grad();
            let loss = join(&xv, &yv, &w);
            let want = loss.item();
            loss.backward();
            opt.step(std::slice::from_ref(&w));
            let got = exec.run_train_step(&xv.to_vec(), &yv.to_vec());
            assert_eq!(got.to_bits(), want.to_bits(), "step {step}: loss");
        }
        assert_eq!(bits(exec.param_data(0)), bits(&w.to_vec()), "proj.w");

        // A parameter among the operands needs the missing adjoint.
        let x = Tensor::zeros([2, 2]);
        let y = Tensor::zeros([2 + h + m, 2]);
        let root = replay_labelled(&[("x", &x), ("y", &y), ("proj.w", &w)], || {
            Tensor::concat(&[x.clone(), w.clone()], 0)
                .sub(&y)
                .square()
                .sum()
        });
        let err = Plan::compile_training(&root, &spec(), &TrainSpec::new("y", adamw()))
            .expect_err("a tracked operand is refused");
        assert!(
            err.message.contains("`concat` at `proj` is forward-only"),
            "{}",
            err.message
        );
    }

    #[test]
    fn repeated_operand_accumulates_like_dynamic() {
        // loss = sum(smooth_l1(p·p + x, y)): both adjoint sides of `p·p`
        // land on the same buffer (Init then Accum), exactly like the
        // dynamic double `accumulate_grad`.
        let xv = [0.1f32, -0.2, 0.3];
        let yv = [0.25f32, 0.5, -0.5];
        let p = Tensor::param(vec![1.5, -2.0, 0.5], [3]);
        let x = Tensor::from_vec(xv.to_vec(), [3]);
        let y = Tensor::from_vec(yv.to_vec(), [3]);
        let mut loss = None;
        let sym_loss = replay_labelled(&[("x", &x), ("y", &y), ("p", &p)], || {
            loss.insert(p.mul(&p).add(&x).smooth_l1(&y).sum()).clone()
        });
        let plan =
            Plan::compile_training(&sym_loss, &spec(), &TrainSpec::new("y", adamw())).unwrap();
        let mut exec = TrainExecutor::new(&plan, |label, _| {
            (label == "p").then(|| vec![1.5, -2.0, 0.5])
        })
        .unwrap();
        let planned_loss = exec.run_train_step(&xv, &yv);

        let loss = loss.expect("recorded");
        let dloss = loss.item();
        loss.backward();
        dyn_adamw().step(std::slice::from_ref(&p));
        assert_eq!(planned_loss.to_bits(), dloss.to_bits());
        assert_eq!(exec.param_data(0), &p.to_vec()[..]);
    }

    #[test]
    fn frozen_params_receive_no_updates() {
        let x = Tensor::zeros([4, 3]);
        let y = Tensor::zeros([4, 2]);
        let w = Tensor::zeros_param([3, 2]);
        let b = Tensor::zeros_param([2]);
        let mut rec = Recorder::new();
        rec.name("x", &x);
        rec.name("y", &y);
        rec.param("w_frozen", &w, true);
        rec.param("bias", &b, false);
        let loss = record(|| x.matmul(&w).add(&b).smooth_l1(&y).mean());
        let loss = rec.replay(&[&loss]).unwrap().remove(0);
        let plan = Plan::compile_training(&loss, &spec(), &TrainSpec::new("y", adamw())).unwrap();
        // The frozen param still receives a gradient buffer (the dynamic
        // engine also accumulates into it) but no update step.
        assert_eq!(plan.update_steps().len(), 1);
        let target = plan.update_steps()[0].param;
        assert_eq!(plan.values()[target].label, "bias");

        let w0 = vec![0.3f32; 6];
        let mut exec = TrainExecutor::new(&plan, |label, _| match label {
            "w_frozen" => Some(w0.clone()),
            "bias" => Some(vec![0.1, -0.1]),
            _ => None,
        })
        .unwrap();
        let (xs, ys) = windows(3);
        for (xv, yv) in xs.iter().zip(&ys) {
            exec.run_train_step(xv, yv);
        }
        assert_eq!(exec.param_data(0), &w0[..], "frozen param moved");
        assert_ne!(exec.param_data(1), &[0.1, -0.1][..], "bias never moved");
    }

    #[test]
    fn forward_only_plans_reject_training_execution() {
        let x = Tensor::zeros([4]);
        let w = Tensor::zeros_param([4]);
        let out = replay_labelled(&[("x", &x), ("w", &w)], || x.mul(&w));
        let plan = Plan::compile(&out, &spec()).unwrap();
        assert!(!plan.is_training());
        let err = TrainExecutor::new(&plan, |_, dims| Some(vec![1.0; dims.iter().product()]))
            .expect_err("forward-only plan must not bind a trainer");
        assert!(err.message.contains("reverse schedule"), "{}", err.message);
    }

    #[test]
    fn training_root_must_be_scalar() {
        let x = Tensor::zeros([4]);
        let y = Tensor::zeros([4]);
        let w = Tensor::zeros_param([4]);
        let loss = replay_labelled(&[("x", &x), ("y", &y), ("w", &w)], || {
            x.mul(&w).smooth_l1(&y)
        });
        let err = Plan::compile_training(&loss, &spec(), &TrainSpec::new("y", adamw()))
            .expect_err("vector loss must be rejected");
        assert!(err.message.contains("scalar loss"), "{}", err.message);
    }
}
