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
//! with zero per-step heap allocation, using the *same serial row-block
//! kernels* as the dynamic engine so parameter updates are bitwise
//! identical to dynamic [`crate::Tensor`] training at any
//! `TIMEKD_THREADS`. Fused attention's two-pass backward recomputes the
//! softmax stats with the deterministic forward kernel instead of saving
//! them, which is bitwise-equal because the forward row pass is itself
//! deterministic.
//!
//! Adjoint accumulation order mirrors the dynamic engine exactly: every
//! backward step first materializes each operand's gradient contribution
//! in scratch (ascending element order), then applies the contributions
//! to the gradient buffers in the dynamic closure's `accumulate_grad`
//! order — the first write to a buffer is an [`GradMode::Init`] copy (the
//! dynamic `None` slot path), every later one an elementwise
//! [`GradMode::Accum`] add.

use std::collections::{HashMap, HashSet};

use crate::ops::attention::{attn_bwd_dkv_block, attn_bwd_dq_block, attn_fwd_row_block};
use crate::ops::matmul::{mm_nt_row_block, mm_row_block, pack_transpose_into};
use crate::plan::{
    assign_slots, lower_forward, BinKind, Loc, Plan, PlanError, PlanExecutor, PlanOp, PlanSlot,
    PlanSpec, PlanValue, ValueId, ValueSource, MAX_PLAN_RANK,
};
use crate::shape::eff_strides;
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
            let (reads, sides): (Vec<ValueId>, &[usize]) = match &steps[fwd_idx].op {
                // Pure data movement of the upstream gradient: reads no
                // forward data at all (operand slots may already be dead).
                PlanOp::Add | PlanOp::Sub => (Vec::new(), &[0, 1]),
                // d/da and d/db both need operand data.
                PlanOp::Mul | PlanOp::Div | PlanOp::SmoothL1 => {
                    (vec![inputs[0], inputs[1]], &[0, 1])
                }
                PlanOp::AddScalar(_) | PlanOp::MulScalar(_) => (Vec::new(), &[0]),
                // d rsqrt reads both the input and its own output.
                PlanOp::Rsqrt => (vec![inputs[0], out_vid], &[0]),
                PlanOp::Square | PlanOp::Relu | PlanOp::Gelu => (vec![inputs[0]], &[0]),
                PlanOp::Sum | PlanOp::SumAxis { .. } | PlanOp::Reshape | PlanOp::Permute(_) => {
                    (Vec::new(), &[0])
                }
                PlanOp::Matmul2d => (vec![inputs[0], inputs[1]], &[0, 1]),
                PlanOp::FusedAttention { .. } => {
                    (vec![inputs[0], inputs[1], inputs[2]], &[0, 1, 2])
                }
                PlanOp::FusedAttentionMap { .. } => (vec![inputs[0], inputs[1]], &[0, 1]),
                PlanOp::ColMean | PlanOp::ColStd { .. } => {
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
            batch: 0,
            lane_stride: 0,
            reduce_steps: Vec::new(),
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
}

#[derive(Debug)]
enum BwdExecOp {
    /// Root gradient ← 1.
    Seed,
    Binary {
        kind: BinKind,
        dims: Vec<usize>,
        a_str: Vec<usize>,
        b_str: Vec<usize>,
        a_len: usize,
        b_len: usize,
    },
    /// `dx = g` (add-scalar, reshape).
    CopyGrad,
    /// `dx = g * c` (mul-scalar).
    ScaleGrad(f32),
    Rsqrt,
    Square,
    Relu,
    Gelu,
    /// `dx[i] = g[0]` (full-sum broadcast).
    SumFill,
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
    /// Strided gather realizing `grad.permute(inv)`.
    PermuteInv {
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
    /// Backward of the head-averaged attention map: the upstream gradient
    /// arrives on the `[T_q, T_k]` map (`g_map`), the context output was
    /// discarded (`g_out = None`), and `v` contributes nothing.
    AttentionMap {
        heads: usize,
        tq: usize,
        tk: usize,
        dh: usize,
        scale: f32,
    },
}

#[derive(Debug)]
struct BwdExec {
    op: BwdExecOp,
    g_off: usize,
    g_len: usize,
    srcs: [Loc; 3],
    writes: [Option<GradWrite>; 3],
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
/// into them and call the serial row-block kernels, so parameter updates
/// are bitwise identical to dynamic training at any `TIMEKD_THREADS`.
#[derive(Debug)]
pub struct TrainExecutor {
    pub(crate) fwd: PlanExecutor,
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
    // Fused-attention backward scratch (see `fused_attention_backward`).
    attn_p: Vec<f32>,
    attn_ds: Vec<f32>,
    attn_kt: Vec<f32>,
    attn_vt: Vec<f32>,
    attn_dkt: Vec<f32>,
    attn_dvt: Vec<f32>,
    attn_stats: Vec<f32>,
    attn_scores: Vec<f32>,
    attn_out_sink: Vec<f32>,
    attn_map_sink: Vec<f32>,
    /// All-zero `v` operand for map-only attention backward recomputes.
    attn_zero_v: Vec<f32>,
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
        let mut at_len = 0usize;
        let (mut p_len, mut kt_len, mut stat_len) = (0usize, 0usize, 0usize);
        let (mut out_sink_len, mut map_sink_len, mut score_len) = (0usize, 0usize, 0usize);
        let mut zero_v_len = 0usize;
        for bstep in plan.bwd_steps() {
            let (g_off, g_len) = match bstep.grad_in {
                Some(g) => arena_loc(g)?,
                None => (0, 0),
            };
            let mut srcs = [Loc::Input; 3];
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
                    match &fstep.op {
                        PlanOp::Add
                        | PlanOp::Sub
                        | PlanOp::Mul
                        | PlanOp::Div
                        | PlanOp::SmoothL1 => {
                            let kind = match fstep.op {
                                PlanOp::Add => BinKind::Add,
                                PlanOp::Sub => BinKind::Sub,
                                PlanOp::Mul => BinKind::Mul,
                                PlanOp::Div => BinKind::Div,
                                _ => BinKind::SmoothL1,
                            };
                            let (al, bl) = (in_len(0), in_len(1));
                            (
                                BwdExecOp::Binary {
                                    kind,
                                    dims: out_dims.clone(),
                                    a_str: eff_strides(in_dims(0), out_dims),
                                    b_str: eff_strides(in_dims(1), out_dims),
                                    a_len: al,
                                    b_len: bl,
                                },
                                vec![(0, al), (al, bl)],
                            )
                        }
                        PlanOp::AddScalar(_) | PlanOp::Reshape => {
                            (BwdExecOp::CopyGrad, vec![(0, in_len(0))])
                        }
                        PlanOp::MulScalar(c) => (BwdExecOp::ScaleGrad(*c), vec![(0, in_len(0))]),
                        PlanOp::Rsqrt => {
                            // Reads x and its own forward output y.
                            srcs[1] = loc(fstep.output)?;
                            (BwdExecOp::Rsqrt, vec![(0, in_len(0))])
                        }
                        PlanOp::Square => (BwdExecOp::Square, vec![(0, in_len(0))]),
                        PlanOp::Relu => (BwdExecOp::Relu, vec![(0, in_len(0))]),
                        PlanOp::Gelu => (BwdExecOp::Gelu, vec![(0, in_len(0))]),
                        PlanOp::Sum => (BwdExecOp::SumFill, vec![(0, in_len(0))]),
                        PlanOp::SumAxis { axis } => {
                            let dims = in_dims(0);
                            let outer: usize = dims[..*axis].iter().product();
                            let mid = dims[*axis];
                            let inner: usize = dims[*axis + 1..].iter().product();
                            (
                                BwdExecOp::SumAxis { outer, mid, inner },
                                vec![(0, in_len(0))],
                            )
                        }
                        PlanOp::Matmul2d => {
                            let (m, k) = (in_dims(0)[0], in_dims(0)[1]);
                            let n = in_dims(1)[1];
                            at_len = at_len.max(m * k);
                            (
                                BwdExecOp::Matmul { m, k, n },
                                vec![(0, m * k), (m * k, k * n)],
                            )
                        }
                        PlanOp::Permute(p) => {
                            // Realizes the dynamic `grad.permute(inv)`:
                            // walk the input shape row-major, gathering
                            // from the gradient with inverse-permuted
                            // strides.
                            let mut inv = vec![0usize; p.len()];
                            for (i, &ax) in p.iter().enumerate() {
                                inv[ax] = i;
                            }
                            let g_dims = out_dims;
                            let mut g_strides = vec![0usize; g_dims.len()];
                            let mut acc = 1usize;
                            for i in (0..g_dims.len()).rev() {
                                g_strides[i] = acc;
                                acc *= g_dims[i];
                            }
                            let strides: Vec<usize> = inv.iter().map(|&i| g_strides[i]).collect();
                            (
                                BwdExecOp::PermuteInv {
                                    strides,
                                    dims: in_dims(0).to_vec(),
                                },
                                vec![(0, in_len(0))],
                            )
                        }
                        PlanOp::FusedAttention { heads, tq, tk, dh } => {
                            let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                            p_len = p_len.max(heads * tq * tk);
                            kt_len = kt_len.max(tk * dh);
                            stat_len = stat_len.max(tq * heads);
                            out_sink_len = out_sink_len.max(tq * heads * dh);
                            map_sink_len = map_sink_len.max(tq * tk);
                            score_len = score_len.max(*tk);
                            (
                                BwdExecOp::Attention {
                                    heads: *heads,
                                    tq: *tq,
                                    tk: *tk,
                                    dh: *dh,
                                    scale: 1.0 / (*dh as f32).sqrt(),
                                },
                                vec![(0, hq), (hq, hk), (hq + hk, hk)],
                            )
                        }
                        PlanOp::FusedAttentionMap { heads, tq, tk, dh } => {
                            let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                            p_len = p_len.max(heads * tq * tk);
                            kt_len = kt_len.max(tk * dh);
                            stat_len = stat_len.max(tq * heads);
                            out_sink_len = out_sink_len.max(tq * heads * dh);
                            map_sink_len = map_sink_len.max(tq * tk);
                            score_len = score_len.max(*tk);
                            zero_v_len = zero_v_len.max(heads * tk * dh);
                            (
                                BwdExecOp::AttentionMap {
                                    heads: *heads,
                                    tq: *tq,
                                    tk: *tk,
                                    dh: *dh,
                                    scale: 1.0 / (*dh as f32).sqrt(),
                                },
                                vec![(0, hq), (hq, hk)],
                            )
                        }
                        PlanOp::ColMean | PlanOp::ColStd { .. } => {
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
            let mut writes: [Option<GradWrite>; 3] = [None, None, None];
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
                if len != side_len {
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
            attn_p: vec![0.0; p_len],
            attn_ds: vec![0.0; p_len],
            attn_kt: vec![0.0; kt_len],
            attn_vt: vec![0.0; kt_len],
            attn_dkt: vec![0.0; kt_len],
            attn_dvt: vec![0.0; kt_len],
            attn_stats: vec![0.0; 2 * stat_len],
            attn_scores: vec![0.0; score_len],
            attn_out_sink: vec![0.0; out_sink_len],
            attn_map_sink: vec![0.0; map_sink_len],
            attn_zero_v: vec![0.0; zero_v_len],
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

    /// Number of bound parameters (plan value order).
    pub fn num_params(&self) -> usize {
        self.fwd.params.len()
    }

    /// Current data of parameter `idx` in binding order.
    pub fn param_data(&self, idx: usize) -> &[f32] {
        &self.fwd.params[idx]
    }

    /// Current step count of the fused optimizer.
    pub fn step_count(&self) -> u64 {
        self.opt.step_count
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

    /// Stages the target window for subsequent replays.
    pub fn set_target(&mut self, target: &[f32]) {
        assert_eq!(
            target.len(),
            self.target_len,
            "train target length mismatch"
        );
        self.fwd.target.copy_from_slice(target);
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

    /// Forward + reverse schedules only — no clipping, no optimizer. The
    /// per-lane replay of the batched executor.
    pub(crate) fn run_forward_backward(&mut self, input: &[f32]) {
        self.fwd.execute_plan_loop(input);
        self.backward_plan_loop(input);
    }

    /// The fused optimizer sweep alone.
    pub(crate) fn run_optimizer(&mut self) {
        self.optimizer_plan_loop();
    }

    /// The gradient-clipping pass alone (no-op unless compiled in).
    pub(crate) fn run_grad_clip(&mut self) {
        self.clip_plan_loop();
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
            attn_p,
            attn_ds,
            attn_kt,
            attn_vt,
            attn_dkt,
            attn_dvt,
            attn_stats,
            attn_scores,
            attn_out_sink,
            attn_map_sink,
            attn_zero_v,
            ..
        } = self;
        let params = &fwd.params;
        let target = &fwd.target;
        let aux = &fwd.aux;
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
                        dims,
                        a_str,
                        b_str,
                        a_len,
                        b_len,
                    } => {
                        let (sa, rest) = scratch.split_at_mut(*a_len);
                        let sb = &mut rest[..*b_len];
                        if wa {
                            sa.fill(0.0);
                        }
                        if wb {
                            sb.fill(0.0);
                        }
                        let rank = dims.len();
                        let mut idx = [0usize; MAX_PLAN_RANK];
                        let (mut a_off, mut b_off) = (0usize, 0usize);
                        let values_read =
                            matches!(kind, BinKind::Mul | BinKind::Div | BinKind::SmoothL1);
                        let (a, b) = if values_read {
                            (
                                resolve(step.srcs[0], arena_r, params, input, target, aux),
                                resolve(step.srcs[1], arena_r, params, input, target, aux),
                            )
                        } else {
                            // Add/Sub never touch operand data (the
                            // operand slots may already be recycled).
                            (g, g)
                        };
                        for &gi in g {
                            let (da, db) = match kind {
                                BinKind::Add => (gi, gi),
                                BinKind::Sub => (gi, -gi),
                                BinKind::Mul => (gi * b[b_off], gi * a[a_off]),
                                BinKind::Div => {
                                    let bv = b[b_off];
                                    (gi / bv, -gi * a[a_off] / (bv * bv))
                                }
                                BinKind::SmoothL1 => {
                                    let d = (a[a_off] - b[b_off]).clamp(-1.0, 1.0);
                                    (gi * d, -gi * d)
                                }
                            };
                            if wa {
                                sa[a_off] += da;
                            }
                            if wb {
                                sb[b_off] += db;
                            }
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
                    BwdExecOp::CopyGrad => {
                        scratch[..g.len()].copy_from_slice(g);
                    }
                    BwdExecOp::ScaleGrad(c) => {
                        for (s, &gi) in scratch.iter_mut().zip(g) {
                            *s = gi * c;
                        }
                    }
                    BwdExecOp::Rsqrt => {
                        let x = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        let y = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        for i in 0..g.len() {
                            scratch[i] = g[i] * (-0.5) * y[i] / x[i];
                        }
                    }
                    BwdExecOp::Square => {
                        let x = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        for i in 0..g.len() {
                            scratch[i] = g[i] * 2.0 * x[i];
                        }
                    }
                    BwdExecOp::Relu => {
                        let x = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        for i in 0..g.len() {
                            scratch[i] = if x[i] > 0.0 { g[i] } else { 0.0 };
                        }
                    }
                    BwdExecOp::Gelu => {
                        // Same constants as the dynamic kernel.
                        const C: f32 = 0.797_884_6; // sqrt(2/π)
                        let x = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        for i in 0..g.len() {
                            let xi = x[i];
                            let x3 = 0.044715 * xi * xi * xi;
                            let inner = C * (xi + x3);
                            let t = inner.tanh();
                            let sech2 = 1.0 - t * t;
                            let d_inner = C * (1.0 + 3.0 * 0.044715 * xi * xi);
                            scratch[i] = g[i] * (0.5 * (1.0 + t) + 0.5 * xi * sech2 * d_inner);
                        }
                    }
                    BwdExecOp::SumFill => {
                        let n = step.writes[0].map_or(0, |w| w.len);
                        scratch[..n].fill(g[0]);
                    }
                    BwdExecOp::SumAxis { outer, mid, inner } => {
                        let n = outer * mid * inner;
                        scratch[..n].fill(0.0);
                        for o in 0..*outer {
                            for m in 0..*mid {
                                let base = (o * mid + m) * inner;
                                let g_base = o * inner;
                                for i in 0..*inner {
                                    scratch[base + i] += g[g_base + i];
                                }
                            }
                        }
                    }
                    BwdExecOp::Matmul { m, k, n } => {
                        let (sa, rest) = scratch.split_at_mut(m * k);
                        let sb = &mut rest[..k * n];
                        if wa {
                            // dA = g · Bᵀ, the dynamic `mm_nt_accumulate`
                            // serial path.
                            let b = resolve(step.srcs[1], arena_r, params, input, target, aux);
                            sa.fill(0.0);
                            mm_nt_row_block(g, b, sa, 0, *m, *n, *k);
                        }
                        if wb {
                            // dB = Aᵀ · g via the same packed-transpose +
                            // row-block kernel as `mm_tn_accumulate`.
                            let a = resolve(step.srcs[0], arena_r, params, input, target, aux);
                            let at = &mut at_buf[..m * k];
                            pack_transpose_into(a, at, *m, *k);
                            sb.fill(0.0);
                            mm_row_block(at, g, sb, 0, *k, *m, *n);
                        }
                    }
                    BwdExecOp::PermuteInv { strides, dims } => {
                        let rank = dims.len();
                        let mut idx = [0usize; MAX_PLAN_RANK];
                        let mut src_off = 0usize;
                        let total: usize = dims.iter().product();
                        for s in scratch[..total].iter_mut() {
                            *s = g[src_off];
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
                    BwdExecOp::Attention {
                        heads,
                        tq,
                        tk,
                        dh,
                        scale,
                    } => {
                        let q = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        let k = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        let v = resolve(step.srcs[2], arena_r, params, input, target, aux);
                        let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                        let (dq, rest) = scratch.split_at_mut(hq);
                        let (dk, rest2) = rest.split_at_mut(hk);
                        let dv = &mut rest2[..hk];
                        dq.fill(0.0);
                        dk.fill(0.0);
                        dv.fill(0.0);
                        // Recompute the softmax stats with the forward
                        // row kernel — deterministic, hence bitwise equal
                        // to the stats the dynamic engine saved.
                        let half = attn_stats.len() / 2;
                        let (m_sink, l_sink) = attn_stats.split_at_mut(half);
                        attn_map_sink[..tq * tk].fill(0.0);
                        attn_fwd_row_block(
                            q,
                            k,
                            v,
                            None,
                            &mut attn_out_sink[..tq * heads * dh],
                            &mut attn_map_sink[..tq * tk],
                            &mut m_sink[..tq * heads],
                            &mut l_sink[..tq * heads],
                            &mut attn_kt[..dh * tk],
                            &mut attn_vt[..dh * tk],
                            &mut attn_scores[..*tk],
                            0,
                            *tq,
                            *heads,
                            *tq,
                            *tk,
                            *dh,
                            *scale,
                        );
                        // Pass A: dQ plus the saved P/dS row maps, one
                        // full-range block per head (bitwise equal to any
                        // partition of the dynamic pool dispatch).
                        for h in 0..*heads {
                            attn_bwd_dq_block(
                                q,
                                k,
                                v,
                                None,
                                Some(g),
                                None,
                                &m_sink[..tq * heads],
                                &l_sink[..tq * heads],
                                &mut dq[h * tq * dh..(h + 1) * tq * dh],
                                &mut attn_p[h * tq * tk..(h + 1) * tq * tk],
                                &mut attn_ds[h * tq * tk..(h + 1) * tq * tk],
                                &mut attn_kt[..tk * dh],
                                &mut attn_vt[..tk * dh],
                                h,
                                0,
                                *tq,
                                *heads,
                                *tq,
                                *tk,
                                *dh,
                                *scale,
                            );
                        }
                        // Pass B: dK/dV from the saved row maps.
                        for h in 0..*heads {
                            attn_bwd_dkv_block(
                                q,
                                None,
                                Some(g),
                                &attn_p[..heads * tq * tk],
                                &attn_ds[..heads * tq * tk],
                                &mut dk[h * tk * dh..(h + 1) * tk * dh],
                                &mut dv[h * tk * dh..(h + 1) * tk * dh],
                                &mut attn_dkt[..tk * dh],
                                &mut attn_dvt[..tk * dh],
                                h,
                                0,
                                *tk,
                                *heads,
                                *tq,
                                *tk,
                                *dh,
                            );
                        }
                    }
                    BwdExecOp::AttentionMap {
                        heads,
                        tq,
                        tk,
                        dh,
                        scale,
                    } => {
                        // The upstream gradient lands on the head-averaged
                        // map; the context output was discarded, so
                        // `g_out = None` and `v`/`dv` drop out — exactly
                        // the dynamic map-node closure.
                        let q = resolve(step.srcs[0], arena_r, params, input, target, aux);
                        let k = resolve(step.srcs[1], arena_r, params, input, target, aux);
                        let (hq, hk) = (heads * tq * dh, heads * tk * dh);
                        let (dq, rest) = scratch.split_at_mut(hq);
                        let dk = &mut rest[..hk];
                        dq.fill(0.0);
                        dk.fill(0.0);
                        // Recompute the softmax stats deterministically —
                        // the map kernel packs `v` unconditionally, so it
                        // gets the pre-zeroed sink the map never reads.
                        let half = attn_stats.len() / 2;
                        let (m_sink, l_sink) = attn_stats.split_at_mut(half);
                        attn_map_sink[..tq * tk].fill(0.0);
                        attn_fwd_row_block(
                            q,
                            k,
                            &attn_zero_v[..heads * tk * dh],
                            None,
                            &mut attn_out_sink[..tq * heads * dh],
                            &mut attn_map_sink[..tq * tk],
                            &mut m_sink[..tq * heads],
                            &mut l_sink[..tq * heads],
                            &mut attn_kt[..dh * tk],
                            &mut attn_vt[..dh * tk],
                            &mut attn_scores[..*tk],
                            0,
                            *tq,
                            *heads,
                            *tq,
                            *tk,
                            *dh,
                            *scale,
                        );
                        for h in 0..*heads {
                            attn_bwd_dq_block(
                                q,
                                k,
                                &[],
                                None,
                                None,
                                Some(g),
                                &m_sink[..tq * heads],
                                &l_sink[..tq * heads],
                                &mut dq[h * tq * dh..(h + 1) * tq * dh],
                                &mut attn_p[h * tq * tk..(h + 1) * tq * tk],
                                &mut attn_ds[h * tq * tk..(h + 1) * tq * tk],
                                &mut attn_kt[..tk * dh],
                                &mut attn_vt[..tk * dh],
                                h,
                                0,
                                *tq,
                                *heads,
                                *tq,
                                *tk,
                                *dh,
                                *scale,
                            );
                        }
                        for h in 0..*heads {
                            attn_bwd_dkv_block(
                                q,
                                None,
                                None,
                                &attn_p[..heads * tq * tk],
                                &attn_ds[..heads * tq * tk],
                                &mut dk[h * tk * dh..(h + 1) * tk * dh],
                                &mut [],
                                &mut attn_dkt[..tk * dh],
                                &mut attn_dvt[..tk * dh],
                                h,
                                0,
                                *tk,
                                *heads,
                                *tq,
                                *tk,
                                *dh,
                            );
                        }
                    }
                }
            }
            // Apply phase: land contributions in declared (dynamic
            // accumulation) order.
            for w in step.writes.iter().flatten() {
                let src = &scratch[w.scratch_off..w.scratch_off + w.len];
                let dst = &mut arena[w.off..w.off + w.len];
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
        let t = *step_count as f32;
        let bias1 = 1.0 - beta1.powf(t);
        let bias2 = 1.0 - beta2.powf(t);
        for u in upd.iter() {
            let grad = &arena[u.grad_off..u.grad_off + u.grad_len];
            let p = &mut params[u.param_idx];
            let ms = &mut m[u.state_off..u.state_off + u.grad_len];
            let vs = &mut v[u.state_off..u.state_off + u.grad_len];
            for i in 0..grad.len() {
                let gi = grad[i];
                ms[i] = *beta1 * ms[i] + (1.0 - *beta1) * gi;
                vs[i] = *beta2 * vs[i] + (1.0 - *beta2) * gi * gi;
                let m_hat = ms[i] / bias1;
                let v_hat = vs[i] / bias2;
                p[i] -= *lr * (m_hat / (v_hat.sqrt() + *eps) + *weight_decay * p[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymCtx;
    use crate::{seeded_rng, Tensor};

    fn spec() -> PlanSpec {
        PlanSpec {
            input_label: "x".to_string(),
            col_mean_leaves: Vec::new(),
            col_std_leaves: Vec::new(),
            aux_labels: Vec::new(),
        }
    }

    /// Symbolic mirror of the dynamic graph in the tests below:
    /// loss = mean(smooth_l1(relu(x·w + bias), y)).
    fn mlp_loss(ctx: &SymCtx) -> SymbolicTensor {
        let x = ctx.constant("x", vec![4, 3]);
        let y = ctx.constant("y", vec![4, 2]);
        let w = ctx.param("w", vec![3, 2]);
        let b = ctx.param("bias", vec![2]);
        let h = x.matmul(&w).unwrap().add(&b).unwrap().relu();
        h.smooth_l1(&y).unwrap().mean()
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
        let ctx = SymCtx::new();
        let loss = mlp_loss(&ctx);
        let plan = Plan::compile_training(&loss, &spec(), &TrainSpec::new("y", optimizer))
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

    #[test]
    fn repeated_operand_accumulates_like_dynamic() {
        // loss = sum(smooth_l1(p·p + x, y)): both adjoint sides of `p·p`
        // land on the same buffer (Init then Accum), exactly like the
        // dynamic double `accumulate_grad`.
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![3]);
        let y = ctx.constant("y", vec![3]);
        let p = ctx.param("p", vec![3]);
        let loss = p
            .mul(&p)
            .unwrap()
            .add(&x)
            .unwrap()
            .smooth_l1(&y)
            .unwrap()
            .sum();
        let plan = Plan::compile_training(&loss, &spec(), &TrainSpec::new("y", adamw())).unwrap();
        let mut exec = TrainExecutor::new(&plan, |label, _| {
            (label == "p").then(|| vec![1.5, -2.0, 0.5])
        })
        .unwrap();
        let xv = [0.1f32, -0.2, 0.3];
        let yv = [0.25f32, 0.5, -0.5];
        let planned_loss = exec.run_train_step(&xv, &yv);

        let p = Tensor::param(vec![1.5, -2.0, 0.5], [3]);
        let x = Tensor::from_vec(xv.to_vec(), [3]);
        let y = Tensor::from_vec(yv.to_vec(), [3]);
        p.zero_grad();
        let loss = p.mul(&p).add(&x).smooth_l1(&y).sum();
        let dloss = loss.item();
        loss.backward();
        dyn_adamw().step(std::slice::from_ref(&p));
        assert_eq!(planned_loss.to_bits(), dloss.to_bits());
        assert_eq!(exec.param_data(0), &p.to_vec()[..]);
    }

    #[test]
    fn frozen_params_receive_no_updates() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4, 3]);
        let y = ctx.constant("y", vec![4, 2]);
        let w = ctx.frozen(|| ctx.param("w_frozen", vec![3, 2]));
        let b = ctx.param("bias", vec![2]);
        let loss = x
            .matmul(&w)
            .unwrap()
            .add(&b)
            .unwrap()
            .smooth_l1(&y)
            .unwrap()
            .mean();
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
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4]);
        let w = ctx.param("w", vec![4]);
        let out = x.mul(&w).unwrap();
        let plan = Plan::compile(&out, &spec()).unwrap();
        assert!(!plan.is_training());
        let err = TrainExecutor::new(&plan, |_, dims| Some(vec![1.0; dims.iter().product()]))
            .expect_err("forward-only plan must not bind a trainer");
        assert!(err.message.contains("reverse schedule"), "{}", err.message);
    }

    #[test]
    fn training_root_must_be_scalar() {
        let ctx = SymCtx::new();
        let x = ctx.constant("x", vec![4]);
        let y = ctx.constant("y", vec![4]);
        let w = ctx.param("w", vec![4]);
        let loss = x.mul(&w).unwrap().smooth_l1(&y).unwrap();
        let err = Plan::compile_training(&loss, &spec(), &TrainSpec::new("y", adamw()))
            .expect_err("vector loss must be rejected");
        assert!(err.message.contains("scalar loss"), "{}", err.message);
    }
}
