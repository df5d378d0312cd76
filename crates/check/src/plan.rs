//! The execution-plan verifier — `timekd-check --plan`.
//!
//! [`Plan::compile`](timekd_tensor::Plan) performs liveness analysis and
//! slot coloring; this module **re-derives everything from scratch** and
//! refuses to trust any field the compiler wrote. Four passes per
//! configuration, none of which reuses the compiler's analysis:
//!
//! 1. **slot-overlap** — recompute def/use intervals over the schedule and
//!    prove no two simultaneously-live values share an arena slot, and no
//!    two slots overlap in the arena (interference soundness).
//! 2. **use-before-def** — walk the schedule in order and prove every
//!    step's operands are parameters, the input, or outputs of *earlier*
//!    steps (derived by scanning the schedule, not by trusting the
//!    recorded producer index), that no value is produced twice, and that
//!    the root is produced at all (topological validity).
//! 3. **arena-bound-mismatch** — recompute each slot's required extent
//!    from the values assigned to it and prove the packing is a gapless
//!    prefix-sum whose total equals the declared arena length (the
//!    executor allocates exactly that).
//! 4. **graph-diff** — replay the recorded student graph and prove the
//!    plan is a bijection of it: every IR node maps to exactly one plan
//!    value, every op's schedule entry carries the same op name and the
//!    same dependency edges in order, and the only synthesized steps are
//!    the RevIN stat lowerings. The gradient subgraph derived from the
//!    plan's `tracked` flags must then agree node-for-node (counts and
//!    depth) with a dynamic [`GraphAudit`] over a real seeded student
//!    forward.
//!
//! A final execution cross-check replays each distinct student geometry
//! through [`PlannedStudent`] and requires bitwise equality with the
//! dynamic `Student::predict`.
//!
//! ## Backward passes (training plans)
//!
//! The training plans proven are the two the trainer replays: the
//! student objective plan (PKD + forecasting, gradient clipping, the
//! trainer's fused AdamW) from [`compile_student_objective_plan`], and the
//! teacher's warm-up plan (projection, SCA, `PTEncoder`, reconstruction
//! head, `λ_r · L_recon`, clipping, AdamW) from [`compile_teacher_plan`].
//! Each gets the four static passes above (the graph diff against its
//! recorded loss root) and four more over the reverse schedule, run as a
//! *chain*: each pass runs only when every earlier backward pass is
//! clean, so the first firing pass names the fault class unambiguously.
//!
//! 5. **adjoint-incomplete** — every reachable trainable parameter
//!    receives exactly one well-formed gradient (one `Init` among its
//!    writes) and exactly one fused optimizer update; frozen parameters
//!    provably receive no update (re-proving the frozen-CLM invariant at
//!    the plan level); no update reads an unwritten gradient; exactly one
//!    seed step initializes the root gradient.
//! 6. **reverse-topo** — walking the reverse schedule in order, every
//!    consumed upstream gradient was written by an earlier backward step,
//!    every `Init` write is the buffer's first, and every `Accum` write
//!    follows one.
//! 7. **saved-liveness** — re-derive def/use intervals over the combined
//!    `forward ++ backward ++ update` timeline (saved activations stay
//!    live until their last backward reader, gradients from first write
//!    to last consumer) and prove no two simultaneously-live values share
//!    an arena slot.
//! 8. **train-divergence** — bind the plan through
//!    [`PlannedBatchTrainer`] (or [`PlannedTeacherTrainer`]), run real
//!    planned steps on seeded windows and teacher products (or CLM rows),
//!    and require bitwise-identical parameters vs the dynamic
//!    [`student_objective`] (or [`teacher_objective`]) step (backward,
//!    clip, the trainer's AdamW). The student pass runs once per student
//!    geometry, the teacher pass for every configuration.
//!
//! Each pass has a fault-injection test (via
//! [`PlanFault`](timekd_tensor::PlanFault)) proving it actually fires.

use std::collections::{HashMap, HashSet};

use std::rc::Rc;

use timekd::{
    bind_student_params, bind_teacher_params, compile_student_objective_plan, compile_teacher_plan,
    student_forecast_plan, student_objective, student_plan_spec, teacher_objective, trace_student,
    trace_teacher, trainer_adamw, trainer_plan_optimizer, CrossModalityTeacher,
    PlannedBatchTrainer, PlannedStudent, PlannedTeacherTrainer, Student, StudentTrace,
    TimeKdConfig,
};
use timekd_lm::{CausalLm, FrozenLm, PromptTokenizer};
use timekd_tensor::{seeded_rng, GradMode, GraphAudit, Plan, SymbolicTensor, Tensor, ValueSource};

use crate::verify::{config_matrix, Finding};

fn finding(kind: &'static str, config: &str, message: String) -> Finding {
    Finding {
        pass: "plan",
        kind,
        config: config.to_string(),
        message,
        provenance: Vec::new(),
    }
}

/// Def/use intervals re-derived purely from the schedule: `def[v]` is the
/// first step producing `v`, `last[v]` the last step consuming it (the
/// root is pinned live through the end of the schedule).
fn derive_intervals(plan: &Plan) -> (Vec<Option<usize>>, Vec<usize>) {
    let n = plan.values().len();
    let mut def: Vec<Option<usize>> = vec![None; n];
    let mut last: Vec<usize> = vec![0; n];
    for (t, step) in plan.steps().iter().enumerate() {
        if def[step.output].is_none() {
            def[step.output] = Some(t);
        }
        for &v in &step.inputs {
            last[v] = last[v].max(t);
        }
    }
    last[plan.root()] = plan.steps().len();
    (def, last)
}

/// Pass 1: no two live values share a slot; no two slots share arena bytes.
pub fn check_slot_interference(plan: &Plan, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let (def, last) = derive_intervals(plan);
    let vals = plan.values();
    for i in 0..vals.len() {
        let (Some(si), Some(di)) = (vals[i].slot, def[i]) else {
            continue;
        };
        let li = last[i].max(di);
        for j in (i + 1)..vals.len() {
            let (Some(sj), Some(dj)) = (vals[j].slot, def[j]) else {
                continue;
            };
            if si != sj {
                continue;
            }
            let lj = last[j].max(dj);
            if di <= lj && dj <= li {
                out.push(finding(
                    "slot-overlap",
                    config,
                    format!(
                        "values `{}` (live {di}..={li}) and `{}` (live {dj}..={lj}) both \
                         occupy slot {si}",
                        vals[i].label, vals[j].label
                    ),
                ));
            }
        }
    }
    let slots = plan.slots();
    for a in 0..slots.len() {
        for b in (a + 1)..slots.len() {
            let (sa, sb) = (slots[a], slots[b]);
            if sa.offset < sb.offset + sb.size && sb.offset < sa.offset + sa.size {
                out.push(finding(
                    "slot-overlap",
                    config,
                    format!(
                        "slots {a} [{}, {}) and {b} [{}, {}) overlap in the arena",
                        sa.offset,
                        sa.offset + sa.size,
                        sb.offset,
                        sb.offset + sb.size
                    ),
                ));
            }
        }
    }
    out
}

/// Pass 2: every operand is defined before its use, in schedule order.
pub fn check_topo_validity(plan: &Plan, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let vals = plan.values();
    let mut produced = vec![false; vals.len()];
    for (t, step) in plan.steps().iter().enumerate() {
        for &v in &step.inputs {
            let external = matches!(
                vals[v].source,
                ValueSource::Input | ValueSource::Param | ValueSource::Target | ValueSource::Aux(_)
            );
            if !external && !produced[v] {
                out.push(finding(
                    "use-before-def",
                    config,
                    format!(
                        "step {t} (`{}`) consumes `{}` before any earlier step produces it",
                        vals[step.output].label, vals[v].label
                    ),
                ));
            }
        }
        if produced[step.output] {
            out.push(finding(
                "use-before-def",
                config,
                format!(
                    "step {t} re-produces `{}` (already defined)",
                    vals[step.output].label
                ),
            ));
        }
        produced[step.output] = true;
    }
    if !produced[plan.root()] {
        out.push(finding(
            "use-before-def",
            config,
            format!("root `{}` is never produced", vals[plan.root()].label),
        ));
    }
    out
}

/// Pass 3: the declared arena length equals the bound the analysis implies.
pub fn check_arena_bound(plan: &Plan, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let vals = plan.values();
    let slots = plan.slots();
    // Required extent of each slot, from the values assigned to it.
    let mut required = vec![0usize; slots.len()];
    for v in vals {
        if let Some(s) = v.slot {
            if s >= slots.len() {
                out.push(finding(
                    "arena-bound-mismatch",
                    config,
                    format!("value `{}` names slot {s} of {}", v.label, slots.len()),
                ));
                continue;
            }
            required[s] = required[s].max(v.len());
        }
    }
    let mut expect_offset = 0usize;
    for (i, slot) in slots.iter().enumerate() {
        if slot.size != required[i] {
            out.push(finding(
                "arena-bound-mismatch",
                config,
                format!(
                    "slot {i} declares {} elements but its values need {}",
                    slot.size, required[i]
                ),
            ));
        }
        if slot.offset != expect_offset {
            out.push(finding(
                "arena-bound-mismatch",
                config,
                format!(
                    "slot {i} at offset {} breaks the prefix-sum packing (expected {})",
                    slot.offset, expect_offset
                ),
            ));
        }
        expect_offset += slot.size;
    }
    if plan.arena_len() != expect_offset {
        out.push(finding(
            "arena-bound-mismatch",
            config,
            format!(
                "declared arena of {} elements does not match the analysis bound {}",
                plan.arena_len(),
                expect_offset
            ),
        ));
    }
    out
}

/// Pass 4 (structural half): the plan is a bijection of the re-traced
/// symbolic graph — same ops, same dependency edges, stat leaves aside.
pub fn check_graph_diff(plan: &Plan, root: &SymbolicTensor, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let vals = plan.values();

    // sym node id -> plan value, from the plan's own claim; ids must be
    // claimed exactly once.
    let mut val_of: HashMap<u64, usize> = HashMap::new();
    for (i, v) in vals.iter().enumerate() {
        for &id in &v.sym_ids {
            if val_of.insert(id, i).is_some() {
                out.push(finding(
                    "graph-diff",
                    config,
                    format!("symbolic node #{id} is claimed by two plan values"),
                ));
            }
        }
    }
    let step_of: HashMap<u64, usize> = plan
        .steps()
        .iter()
        .enumerate()
        .filter_map(|(t, s)| s.sym_id.map(|id| (id, t)))
        .collect();

    let spec = plan.spec();
    let mut graph_ids: HashSet<u64> = HashSet::new();
    let mut stack = vec![root.clone()];
    let mut seen: HashSet<u64> = HashSet::new();
    while let Some(node) = stack.pop() {
        if !seen.insert(node.id()) {
            continue;
        }
        graph_ids.insert(node.id());
        for p in node.parents() {
            stack.push(p.clone());
        }
        let Some(&vid) = val_of.get(&node.id()) else {
            out.push(finding(
                "graph-diff",
                config,
                format!(
                    "symbolic `{}` at `{}` has no plan value",
                    node.op_name(),
                    node.label()
                ),
            ));
            continue;
        };
        match node.op_name() {
            "param" | "leaf" => {
                // Stat leaves lower to synthesized steps; everything else
                // must stay a non-step value.
                let is_stat = spec.col_mean_leaves.contains(&vals[vid].label)
                    || spec
                        .col_std_leaves
                        .iter()
                        .any(|(l, _)| *l == vals[vid].label);
                let is_step = matches!(vals[vid].source, ValueSource::Step(_));
                if is_step != is_stat && node.label() != spec.input_label {
                    out.push(finding(
                        "graph-diff",
                        config,
                        format!(
                            "leaf `{}` lowered inconsistently (stat={is_stat}, step={is_step})",
                            node.label()
                        ),
                    ));
                }
            }
            op => {
                let Some(&t) = step_of.get(&node.id()) else {
                    out.push(finding(
                        "graph-diff",
                        config,
                        format!(
                            "symbolic op `{op}` at `{}` has no schedule entry",
                            node.label()
                        ),
                    ));
                    continue;
                };
                let step = &plan.steps()[t];
                if step.sym_op != op {
                    out.push(finding(
                        "graph-diff",
                        config,
                        format!(
                            "step {t} records op `{}` but the symbolic node is `{op}`",
                            step.sym_op
                        ),
                    ));
                }
                if step.output != vid {
                    out.push(finding(
                        "graph-diff",
                        config,
                        format!("step {t} writes a different value than `{op}` maps to"),
                    ));
                }
                let parents = node.parents();
                if step.inputs.len() != parents.len() {
                    out.push(finding(
                        "graph-diff",
                        config,
                        format!(
                            "step {t} (`{op}` at `{}`) has {} dependency edge(s), symbolic \
                             node has {}",
                            node.label(),
                            step.inputs.len(),
                            parents.len()
                        ),
                    ));
                } else {
                    for (slot, (inp, parent)) in step.inputs.iter().zip(parents).enumerate() {
                        if val_of.get(&parent.id()) != Some(inp) {
                            out.push(finding(
                                "graph-diff",
                                config,
                                format!(
                                    "step {t} (`{op}`) edge {slot} disagrees with symbolic \
                                     parent `{}`",
                                    parent.label()
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // No phantom structure: every claimed sym id must exist in the graph,
    // and the only steps without a symbolic identity are stat lowerings.
    for id in val_of.keys() {
        if !graph_ids.contains(id) {
            out.push(finding(
                "graph-diff",
                config,
                format!("plan claims symbolic node #{id}, which the trace does not contain"),
            ));
        }
    }
    let stat_labels = spec.col_mean_leaves.len() + spec.col_std_leaves.len();
    let synthesized = plan.steps().iter().filter(|s| s.sym_id.is_none()).count();
    if synthesized > stat_labels {
        out.push(finding(
            "graph-diff",
            config,
            format!(
                "{synthesized} synthesized step(s), but the spec only lowers {stat_labels} \
                 stat leaf label(s)"
            ),
        ));
    }
    out
}

/// The gradient subgraph implied by the plan's `tracked` flags, accounted
/// exactly like [`GraphAudit`]: (nodes, edges, leaves, params, max depth).
pub fn plan_grad_stats(plan: &Plan) -> (usize, usize, usize, usize, usize) {
    let vals = plan.values();
    // Producing *tracked* step per value: untracked producers make the
    // value a gradient-frontier leaf, exactly as the dynamic engine does.
    let mut tracked_step: Vec<Option<usize>> = vec![None; vals.len()];
    for (t, step) in plan.steps().iter().enumerate() {
        if step.tracked {
            tracked_step[step.output] = Some(t);
        }
    }
    let (mut nodes, mut edges, mut leaves, mut params, mut max_depth) = (0, 0, 0, 0, 0);
    let mut depth: HashMap<usize, usize> = HashMap::new();
    let mut stack = vec![(plan.root(), 0usize)];
    while let Some((v, d)) = stack.pop() {
        match depth.get(&v) {
            Some(&seen) if seen >= d => continue,
            Some(_) => {
                // Deeper revisit: update and propagate, but — exactly like
                // `GraphAudit` — only first visits feed the max-depth
                // accounting.
                depth.insert(v, d);
                if let Some(t) = tracked_step[v] {
                    for &p in &plan.steps()[t].inputs {
                        stack.push((p, d + 1));
                    }
                }
                continue;
            }
            None => {}
        }
        depth.insert(v, d);
        nodes += 1;
        max_depth = max_depth.max(d);
        match tracked_step[v] {
            Some(t) => {
                edges += plan.steps()[t].inputs.len();
                for &p in &plan.steps()[t].inputs {
                    stack.push((p, d + 1));
                }
            }
            None => {
                leaves += 1;
                if vals[v].requires_grad {
                    params += 1;
                }
            }
        }
    }
    (nodes, edges, leaves, params, max_depth)
}

/// Parameter values of the gradient subgraph: reachable from the root
/// through values that require grad via tracked steps — the exact set the
/// dynamic engine accumulates gradients into, re-derived from the
/// schedule rather than read off any compiler field.
fn grad_reachable_params(plan: &Plan) -> HashSet<usize> {
    let vals = plan.values();
    let mut producer: Vec<Option<usize>> = vec![None; vals.len()];
    for (t, step) in plan.steps().iter().enumerate() {
        if step.tracked {
            producer[step.output] = Some(t);
        }
    }
    let mut params = HashSet::new();
    let mut seen = HashSet::new();
    let mut stack = vec![plan.root()];
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        match producer[v] {
            Some(t) => {
                for &p in &plan.steps()[t].inputs {
                    if vals[p].requires_grad {
                        stack.push(p);
                    }
                }
            }
            None => {
                if matches!(vals[v].source, ValueSource::Param) && vals[v].requires_grad {
                    params.insert(v);
                }
            }
        }
    }
    params
}

/// Pass 5: adjoint completeness. Every reachable trainable parameter gets
/// exactly one accumulated gradient and exactly one fused update; frozen
/// parameters provably receive no update; no update reads an unwritten
/// gradient; exactly one seed step initializes the root's adjoint.
pub fn check_adjoint_completeness(plan: &Plan, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let vals = plan.values();
    if !plan.is_training() {
        out.push(finding(
            "adjoint-incomplete",
            config,
            "plan carries no reverse schedule".to_string(),
        ));
        return out;
    }

    // Adjoint ownership and write accounting, from the reverse schedule.
    let mut grads_of: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, v) in vals.iter().enumerate() {
        if let Some(owner) = v.adjoint_of {
            grads_of.entry(owner).or_default().push(i);
        }
    }
    let mut writes: HashMap<usize, (usize, usize)> = HashMap::new(); // grad -> (inits, accums)
    let mut seeds = 0usize;
    for step in plan.bwd_steps() {
        if step.fwd_step.is_none() {
            seeds += 1;
            let well_formed = step.grad_in.is_none()
                && step.writes.len() == 1
                && step.writes[0].1 == GradMode::Init
                && vals[step.writes[0].0].adjoint_of == Some(plan.root());
            if !well_formed {
                out.push(finding(
                    "adjoint-incomplete",
                    config,
                    "seed step does not initialize exactly the root gradient".to_string(),
                ));
            }
        }
        for &(g, mode) in &step.writes {
            let e = writes.entry(g).or_insert((0, 0));
            match mode {
                GradMode::Init => e.0 += 1,
                GradMode::Accum => e.1 += 1,
            }
        }
    }
    if seeds != 1 {
        out.push(finding(
            "adjoint-incomplete",
            config,
            format!("{seeds} seed step(s); the reverse schedule needs exactly one"),
        ));
    }
    for (&g, &(inits, _)) in &writes {
        if inits != 1 {
            out.push(finding(
                "adjoint-incomplete",
                config,
                format!(
                    "gradient `{}` has {inits} Init write(s) (want exactly one)",
                    vals[g].label
                ),
            ));
        }
    }

    // Fused updates: each must read a written adjoint of its own parameter.
    let mut updates: HashMap<usize, usize> = HashMap::new();
    for u in plan.update_steps() {
        *updates.entry(u.param).or_default() += 1;
        if !writes.contains_key(&u.grad) {
            out.push(finding(
                "adjoint-incomplete",
                config,
                format!(
                    "update of `{}` reads gradient `{}`, which no backward step writes",
                    vals[u.param].label, vals[u.grad].label
                ),
            ));
        }
        if vals[u.grad].adjoint_of != Some(u.param) {
            out.push(finding(
                "adjoint-incomplete",
                config,
                format!(
                    "update of `{}` reads a gradient that is not its adjoint",
                    vals[u.param].label
                ),
            ));
        }
    }

    // Per-parameter completeness against the re-derived gradient subgraph.
    let reachable = grad_reachable_params(plan);
    for (i, v) in vals.iter().enumerate() {
        if !matches!(v.source, ValueSource::Param) {
            continue;
        }
        let n_upd = updates.get(&i).copied().unwrap_or(0);
        if reachable.contains(&i) && !v.frozen {
            let written = grads_of
                .get(&i)
                .map_or(0, |gs| gs.iter().filter(|g| writes.contains_key(g)).count());
            if written != 1 {
                out.push(finding(
                    "adjoint-incomplete",
                    config,
                    format!(
                        "trainable parameter `{}` has {written} accumulated gradient(s) \
                         (want exactly one)",
                        v.label
                    ),
                ));
            }
            if n_upd != 1 {
                out.push(finding(
                    "adjoint-incomplete",
                    config,
                    format!(
                        "trainable parameter `{}` receives {n_upd} optimizer update(s) \
                         (want exactly one)",
                        v.label
                    ),
                ));
            }
        } else if n_upd != 0 {
            out.push(finding(
                "adjoint-incomplete",
                config,
                format!(
                    "frozen/non-trainable parameter `{}` receives {n_upd} optimizer \
                     update(s) (must receive none)",
                    v.label
                ),
            ));
        }
    }
    out
}

/// Pass 6: reverse-topological validity. Walking the reverse schedule in
/// order, every consumed upstream gradient was written earlier, every
/// `Init` is its buffer's first write, every `Accum` follows one, and each
/// non-seed step's incoming gradient is the adjoint of the forward step it
/// claims to reverse.
pub fn check_reverse_topo(plan: &Plan, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let vals = plan.values();
    let mut written: HashSet<usize> = HashSet::new();
    for (j, step) in plan.bwd_steps().iter().enumerate() {
        if let Some(g) = step.grad_in {
            if !written.contains(&g) {
                out.push(finding(
                    "reverse-topo",
                    config,
                    format!(
                        "backward step {j} consumes `{}` before any earlier step writes it",
                        vals[g].label
                    ),
                ));
            }
        }
        if let (Some(fs), Some(g)) = (step.fwd_step, step.grad_in) {
            let reversed_output = plan.steps().get(fs).map(|s| s.output);
            if vals[g].adjoint_of != reversed_output {
                out.push(finding(
                    "reverse-topo",
                    config,
                    format!(
                        "backward step {j} claims to reverse forward step {fs} but consumes \
                         a gradient that is not its output's adjoint"
                    ),
                ));
            }
        }
        for &(g, mode) in &step.writes {
            match mode {
                GradMode::Init => {
                    if written.contains(&g) {
                        out.push(finding(
                            "reverse-topo",
                            config,
                            format!(
                                "backward step {j} re-initializes `{}` after earlier writes",
                                vals[g].label
                            ),
                        ));
                    }
                }
                GradMode::Accum => {
                    if !written.contains(&g) {
                        out.push(finding(
                            "reverse-topo",
                            config,
                            format!(
                                "backward step {j} accumulates into `{}` before its Init",
                                vals[g].label
                            ),
                        ));
                    }
                }
            }
            written.insert(g);
        }
    }
    out
}

/// Def/use intervals over the combined `forward ++ backward ++ update`
/// timeline, re-derived from the schedules: saved activations stay live to
/// their last backward reader, gradients from first write to last consumer,
/// and the root (loss) is pinned through the end of the whole step.
fn derive_train_intervals(plan: &Plan) -> (Vec<Option<usize>>, Vec<usize>) {
    let n = plan.values().len();
    let mut def: Vec<Option<usize>> = vec![None; n];
    let mut last: Vec<usize> = vec![0; n];
    let fwd_end = plan.steps().len();
    for (t, step) in plan.steps().iter().enumerate() {
        if def[step.output].is_none() {
            def[step.output] = Some(t);
        }
        for &v in &step.inputs {
            last[v] = last[v].max(t);
        }
    }
    for (j, step) in plan.bwd_steps().iter().enumerate() {
        let t = fwd_end + j;
        if let Some(g) = step.grad_in {
            last[g] = last[g].max(t);
        }
        for &v in &step.reads {
            last[v] = last[v].max(t);
        }
        for &(g, _) in &step.writes {
            if def[g].is_none() {
                def[g] = Some(t);
            }
            last[g] = last[g].max(t);
        }
    }
    let bwd_end = fwd_end + plan.bwd_steps().len();
    for (u, upd) in plan.update_steps().iter().enumerate() {
        last[upd.grad] = last[upd.grad].max(bwd_end + u);
    }
    last[plan.root()] = bwd_end + plan.update_steps().len();
    (def, last)
}

/// Pass 7: saved-activation liveness soundness. No two values that are
/// simultaneously live anywhere on the combined timeline — a saved forward
/// activation and the gradient that outlives it included — share a slot.
pub fn check_saved_liveness(plan: &Plan, config: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let (def, last) = derive_train_intervals(plan);
    let vals = plan.values();
    for i in 0..vals.len() {
        let (Some(si), Some(di)) = (vals[i].slot, def[i]) else {
            continue;
        };
        let li = last[i].max(di);
        for j in (i + 1)..vals.len() {
            let (Some(sj), Some(dj)) = (vals[j].slot, def[j]) else {
                continue;
            };
            if si != sj {
                continue;
            }
            let lj = last[j].max(dj);
            if di <= lj && dj <= li {
                out.push(finding(
                    "saved-liveness",
                    config,
                    format!(
                        "values `{}` (live {di}..={li}) and `{}` (live {dj}..={lj}) share \
                         slot {si} on the combined forward+backward timeline",
                        vals[i].label, vals[j].label
                    ),
                ));
            }
        }
    }
    out
}

/// The chained backward verification: completeness, then reverse-topo,
/// then saved-liveness — each pass runs only when every earlier backward
/// pass came back clean, so the first firing pass names the fault class
/// unambiguously.
pub fn verify_backward_chain(plan: &Plan, config: &str) -> Vec<Finding> {
    let out = check_adjoint_completeness(plan, config);
    if !out.is_empty() {
        return out;
    }
    let out = check_reverse_topo(plan, config);
    if !out.is_empty() {
        return out;
    }
    check_saved_liveness(plan, config)
}

/// A `train-divergence` finding when `plan` was not compiled with the
/// trainer's fused optimizer ([`trainer_plan_optimizer`]).
fn foreign_optimizer(plan: &Plan, cfg: &TimeKdConfig, label: &str) -> Option<Finding> {
    let trainer_opt = trainer_plan_optimizer(cfg);
    (plan.optimizer() != Some(&trainer_opt)).then(|| {
        finding(
            "train-divergence",
            label,
            format!(
                "plan optimizer {:?} is not the trainer's {trainer_opt:?}",
                plan.optimizer()
            ),
        )
    })
}

/// One `train-divergence` finding per parameter whose planned values
/// (`planned(label)`; the `initial` values when the plan left it unbound)
/// differ in any bit from the dynamically trained `params`.
fn diverging_params<'a>(
    label: &str,
    params: &[(String, Tensor)],
    initial: &[Vec<f32>],
    planned: impl Fn(&str) -> Option<&'a [f32]>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for ((lbl, t), initial) in params.iter().zip(initial) {
        let dynamic = t.to_vec();
        let planned = planned(lbl).unwrap_or(initial);
        let diverging = planned
            .iter()
            .zip(&dynamic)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if diverging > 0 {
            out.push(finding(
                "train-divergence",
                label,
                format!(
                    "parameter `{lbl}` diverges from dynamic training on {diverging}/{} \
                     elements after 2 steps",
                    dynamic.len()
                ),
            ));
        }
    }
    out
}

/// Pass 8: plan-vs-dynamic training diff. Binds the objective plan to a
/// freshly seeded student through [`PlannedBatchTrainer::bind`], runs two
/// real one-window steps against seeded teacher products, and requires
/// every parameter to be bitwise identical to the dynamic
/// [`student_objective`] step (`zero_grad → objective → backward → clip →
/// AdamW`) under the trainer's optimizer.
pub fn check_train_divergence(
    plan: &Plan,
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<Finding> {
    if let Some(f) = foreign_optimizer(plan, cfg, label) {
        return vec![f];
    }
    let student = Student::new(cfg, input_len, horizon, num_vars, &mut seeded_rng(0xD1CE));
    let params = bind_student_params(&student);
    let initial: Vec<Vec<f32>> = params.iter().map(|(_, t)| t.to_vec()).collect();
    // Bind the trainer (it copies the values) before the dynamic reference
    // moves anything.
    let mut trainer = match PlannedBatchTrainer::bind(&student, cfg, plan.clone()) {
        Ok(t) => t,
        Err(e) => {
            let message = format!("training plan rejected at bind: {}", e.message);
            return vec![finding("train-divergence", label, message)];
        }
    };

    let tensors: Vec<Tensor> = params.iter().map(|(_, t)| t.clone()).collect();
    let mut adamw = trainer_adamw(cfg);
    let mut wrng = seeded_rng(0x7A17);
    for _ in 0..2 {
        let x = Tensor::randn([input_len, num_vars], 1.0, &mut wrng);
        let y = Tensor::randn([horizon, num_vars], 0.5, &mut wrng);
        let att = Tensor::randn([num_vars, num_vars], 1.0, &mut wrng).softmax_last();
        let emb = Tensor::randn([num_vars, cfg.dim], 1.0, &mut wrng);
        for p in &tensors {
            p.zero_grad();
        }
        student_objective(&student, cfg, &x, &y, &att, &emb)
            .total
            .backward();
        timekd_nn::clip_grad_norm(&tensors, cfg.grad_clip);
        adamw.step(&tensors);
        trainer.stage_window(0, &x, &y);
        trainer.stage_teacher(0, &att, &emb);
        trainer.run_batch(1);
    }
    diverging_params(label, &params, &initial, |lbl| trainer.param_data(lbl))
}

/// Pass 8 for the teacher's warm-up plan: binds it to a freshly seeded
/// teacher through [`PlannedTeacherTrainer::bind`], runs two real steps on
/// seeded windows and CLM rows (none on `w/o_CLM`), and requires every
/// teacher parameter to be bitwise identical to the dynamic
/// [`teacher_objective`] step (`zero_grad → objective → backward → clip →
/// AdamW`) under the trainer's optimizer. The teacher's CLM is randomly
/// initialised and never runs: the rows are the plan's inputs.
pub fn check_teacher_train_divergence(
    plan: &Plan,
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<Finding> {
    if let Some(f) = foreign_optimizer(plan, cfg, label) {
        return vec![f];
    }
    let mut rng = seeded_rng(0xD1CE);
    let lm = CausalLm::new(PromptTokenizer::new().vocab_size(), cfg.lm, &mut rng);
    let teacher = CrossModalityTeacher::new(
        Rc::new(FrozenLm::new(lm)),
        *cfg,
        input_len,
        horizon,
        &mut rng,
    );
    let params = bind_teacher_params(&teacher);
    let initial: Vec<Vec<f32>> = params.iter().map(|(_, t)| t.to_vec()).collect();
    let mut trainer = match PlannedTeacherTrainer::bind(&teacher, cfg, plan.clone()) {
        Ok(t) => t,
        Err(e) => {
            let message = format!("teacher plan rejected at bind: {}", e.message);
            return vec![finding("train-divergence", label, message)];
        }
    };

    let tensors: Vec<Tensor> = params.iter().map(|(_, t)| t.clone()).collect();
    let mut adamw = trainer_adamw(cfg);
    let mut wrng = seeded_rng(0x7A17);
    for _ in 0..2 {
        let x = Tensor::randn([input_len, num_vars], 1.0, &mut wrng);
        let y = Tensor::randn([horizon, num_vars], 0.5, &mut wrng);
        let rows = cfg.ablation.use_clm.then(|| {
            (
                Tensor::randn([num_vars, cfg.lm.dim], 1.0, &mut wrng),
                Tensor::randn([num_vars, cfg.lm.dim], 1.0, &mut wrng),
            )
        });
        for p in &tensors {
            p.zero_grad();
        }
        teacher_objective(&teacher, cfg, &x, &y, rows.as_ref()).backward();
        timekd_nn::clip_grad_norm(&tensors, cfg.grad_clip);
        adamw.step(&tensors);
        trainer.run_step(&x, &y, rows.as_ref());
    }
    diverging_params(label, &params, &initial, |lbl| trainer.param_data(lbl))
}

/// The four static forward passes over one plan, graph-diffed against
/// `root`.
fn static_passes(plan: &Plan, root: &SymbolicTensor, label: &str) -> Vec<Finding> {
    let mut out = check_slot_interference(plan, label);
    out.extend(check_topo_validity(plan, label));
    out.extend(check_arena_bound(plan, label));
    out.extend(check_graph_diff(plan, root, label));
    out
}

/// Traces the student, mapping a replay error to a `plan-compile` finding.
fn trace_or_finding(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<StudentTrace, Finding> {
    trace_student(cfg, input_len, horizon, num_vars)
        .map_err(|e| finding("plan-compile", label, format!("student trace failed: {e}")))
}

/// The objective plan the trainer replays for `cfg`: the trainer's
/// optimizer and clip.
fn objective_plan(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<Plan, Finding> {
    let opt = trainer_plan_optimizer(cfg);
    compile_student_objective_plan(cfg, input_len, horizon, num_vars, opt)
        .map_err(|e| finding("plan-compile", label, e.message))
}

/// The teacher plan the warm-up epoch replays for `cfg`: the trainer's
/// optimizer and clip.
fn teacher_plan(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<Plan, Finding> {
    let opt = trainer_plan_optimizer(cfg);
    compile_teacher_plan(cfg, input_len, horizon, num_vars, opt)
        .map_err(|e| finding("plan-compile", label, e.message))
}

/// Full verification of one configuration's teacher warm-up plan: the
/// static passes (graph-diffed against [`trace_teacher`]'s loss root), the
/// backward chain and, when the chain is clean, the divergence pass
/// against the dynamic teacher step.
pub fn verify_teacher_plan_config(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<Finding> {
    let label = &format!("{label} teacher");
    let trace = match trace_teacher(cfg, input_len, horizon, num_vars) {
        Ok(t) => t,
        Err(e) => {
            let message = format!("teacher trace failed: {e}");
            return vec![finding("plan-compile", label, message)];
        }
    };
    let plan = match teacher_plan(cfg, label, input_len, horizon, num_vars) {
        Ok(p) => p,
        Err(f) => return vec![f],
    };
    let mut out = static_passes(&plan, &trace.loss, label);
    let chain = verify_backward_chain(&plan, label);
    if chain.is_empty() {
        out.extend(check_teacher_train_divergence(
            &plan, cfg, label, input_len, horizon, num_vars,
        ));
    }
    out.extend(chain);
    out
}

/// Structural verification of one configuration: trace, compile the
/// forecast plan and the objective plan, and run every static pass on
/// each.
pub fn verify_plan_config(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<Finding> {
    let trace = match trace_or_finding(cfg, label, input_len, horizon, num_vars) {
        Ok(t) => t,
        Err(f) => return vec![f],
    };
    let plan = match Plan::compile(&trace.prediction, &student_plan_spec()) {
        Ok(p) => p,
        Err(e) => return vec![finding("plan-compile", label, e.message)],
    };
    let mut out = static_passes(&plan, &trace.prediction, label);

    // The objective plan: the same forward passes over the extended value
    // set, and the chained backward passes over the reverse schedule.
    let plan = match objective_plan(cfg, label, input_len, horizon, num_vars) {
        Ok(p) => p,
        Err(f) => {
            out.push(f);
            return out;
        }
    };
    out.extend(static_passes(&plan, &trace.loss, label));
    out.extend(verify_backward_chain(&plan, label));
    out
}

/// Dynamic agreement for one student geometry: the plan's gradient stats
/// must match a real executed forward, and planned
/// predict must be bitwise identical to dynamic predict.
pub fn check_dynamic_agreement(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let trace = match trace_or_finding(cfg, label, input_len, horizon, num_vars) {
        Ok(t) => t,
        Err(f) => return vec![f],
    };
    let forecast = &trace.prediction;
    let plan = match Plan::compile(forecast, &student_plan_spec()) {
        Ok(p) => p,
        Err(e) => return vec![finding("plan-compile", label, e.message)],
    };

    let mut rng = seeded_rng(0xD1CE);
    let student = Student::new(cfg, input_len, horizon, num_vars, &mut rng);
    let x = Tensor::randn([input_len, num_vars], 1.0, &mut rng);
    let audit = GraphAudit::run(&student.forward(&x).forecast);
    let dy = &audit.stats;
    let from_plan = plan_grad_stats(&plan);
    let dy_t = (dy.nodes, dy.edges, dy.leaves, dy.params, dy.max_depth);
    if from_plan != dy_t {
        out.push(finding(
            "graph-diff",
            label,
            format!(
                "gradient subgraph disagreement (nodes, edges, leaves, params, depth): \
                 plan {from_plan:?}, dynamic {dy_t:?}"
            ),
        ));
    }

    match PlannedStudent::new(&student, cfg) {
        Ok(mut planned) => {
            let dynamic = student.predict(&x).to_vec();
            let via_plan = planned.predict(&x).to_vec();
            if via_plan != dynamic {
                let diverging = via_plan
                    .iter()
                    .zip(&dynamic)
                    .filter(|(a, b)| a != b)
                    .count();
                out.push(finding(
                    "exec-divergence",
                    label,
                    format!(
                        "planned predict diverges from dynamic predict on {diverging}/{} \
                         elements",
                        dynamic.len()
                    ),
                ));
            }
        }
        Err(e) => out.push(finding("plan-compile", label, e.message)),
    }
    out
}

/// Training agreement for one student geometry: compile the trainer's
/// per-window objective plan and, when the structural backward chain is
/// clean (chain semantics — divergence is the last pass), require bitwise
/// agreement with the dynamic student objective.
pub fn check_train_agreement(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<Finding> {
    let plan = match objective_plan(cfg, label, input_len, horizon, num_vars) {
        Ok(p) => p,
        Err(f) => return vec![f],
    };
    if !verify_backward_chain(&plan, label).is_empty() {
        // The structural chain already reported at config level; running a
        // provably broken schedule would only produce noise.
        return Vec::new();
    }
    check_train_divergence(&plan, cfg, label, input_len, horizon, num_vars)
}

/// The canonical text of everything a compiled plan executes: each step's
/// op with its operand and output value ids; each value's source, dims and
/// slot, plus the label of every param, input, aux and target value; the
/// arena length; the backward and update schedules; and the clip
/// order and pinned values. Symbolic node ids and op-output labels are
/// left out, so two plans lowered from differently built graphs of the
/// same computation have the same fingerprint.
pub fn plan_fingerprint(plan: &Plan) -> String {
    let mut out = String::new();
    for (i, v) in plan.values().iter().enumerate() {
        let label = match v.source {
            ValueSource::Param | ValueSource::Input | ValueSource::Aux(_) | ValueSource::Target => {
                v.label.as_str()
            }
            _ => "",
        };
        out.push_str(&format!(
            "v{i} {:?} {:?} {:?} {label}\n",
            v.source, v.dims, v.slot
        ));
    }
    for s in plan.steps() {
        out.push_str(&format!("s {:?} {:?} -> {}\n", s.op, s.inputs, s.output));
    }
    out.push_str(&format!("arena {}\n", plan.arena_len()));
    for b in plan.bwd_steps() {
        out.push_str(&format!("b {b:?}\n"));
    }
    for u in plan.update_steps() {
        out.push_str(&format!("u {u:?}\n"));
    }
    out.push_str(&format!(
        "clip {:?}\npinned {:?}\n",
        plan.clip_grads(),
        plan.pinned()
    ));
    out
}

/// 64-bit FNV-1a of `bytes`, the digest the fingerprint fixture stores.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per plan `timekd-check --plan` covers (every matrix config ×
/// forecast, objective and teacher plan): the config label, the plan kind and
/// the FNV-1a digest of its [`plan_fingerprint`]. The objective kind keeps
/// its `B=1` tag so the committed fixture's lines stay byte-identical.
pub fn plan_fingerprint_lines() -> Result<Vec<String>, String> {
    let (input_len, horizon, num_vars) = (96, 24, 7);
    let mut lines = Vec::new();
    for (cfg, label) in config_matrix() {
        let opt = trainer_plan_optimizer(&cfg);
        let plans = [
            (
                "forecast",
                student_forecast_plan(&cfg, input_len, horizon, num_vars),
            ),
            (
                "objective B=1",
                compile_student_objective_plan(&cfg, input_len, horizon, num_vars, opt),
            ),
            (
                "teacher",
                compile_teacher_plan(&cfg, input_len, horizon, num_vars, opt),
            ),
        ];
        for (kind, plan) in plans {
            let plan = plan.map_err(|e| format!("{label} {kind}: {e}"))?;
            let digest = fnv1a(plan_fingerprint(&plan).as_bytes());
            lines.push(format!("{label} | {kind} | {digest:016x}"));
        }
    }
    Ok(lines)
}

/// Aggregate result of a `--plan` run.
#[derive(Debug, Default)]
pub struct PlanReport {
    /// Configurations whose plans were statically verified.
    pub configs_checked: usize,
    /// Distinct student geometries cross-checked against dynamic execution.
    pub geometries_executed: usize,
    /// All findings across all passes and configurations.
    pub findings: Vec<Finding>,
    /// Invariants proven (only meaningful when clean).
    pub proofs: Vec<String>,
}

impl PlanReport {
    /// True when no pass produced a finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Compiles and verifies the student plans and the teacher warm-up plan
/// for every configuration in the verification matrix (paper default
/// geometry), replaying each teacher plan against the dynamic teacher
/// step, then cross-checks each distinct student geometry against real
/// dynamic execution.
pub fn verify_plans() -> PlanReport {
    let (input_len, horizon, num_vars) = (96, 24, 7);
    let mut report = PlanReport::default();
    // The student is blind to the LM/prompt axes of the matrix, so dynamic
    // execution only needs one run per distinct (dim, heads, layers, ffn).
    let mut executed: HashSet<(usize, usize, usize, usize)> = HashSet::new();
    for (cfg, label) in config_matrix() {
        report.configs_checked += 1;
        report.findings.extend(verify_plan_config(
            &cfg, &label, input_len, horizon, num_vars,
        ));
        report.findings.extend(verify_teacher_plan_config(
            &cfg, &label, input_len, horizon, num_vars,
        ));
        let key = (cfg.dim, cfg.num_heads, cfg.num_layers, cfg.ffn_hidden);
        if executed.insert(key) {
            report.geometries_executed += 1;
            report.findings.extend(check_dynamic_agreement(
                &cfg, &label, input_len, horizon, num_vars,
            ));
            report.findings.extend(check_train_agreement(
                &cfg, &label, input_len, horizon, num_vars,
            ));
        }
    }
    if report.is_clean() {
        let n = report.configs_checked;
        let g = report.geometries_executed;
        report.proofs = vec![
            format!("no two live values share an arena slot ({n}/{n} configs)"),
            format!("every operand is defined before use in the schedule ({n}/{n} configs)"),
            format!("the declared arena length equals the liveness bound ({n}/{n} configs)"),
            format!(
                "the plan diffs clean against the recorded graph, and its gradient \
                 subgraph matches dynamic accounting ({n}/{n} configs)"
            ),
            format!(
                "planned predict is bitwise identical to dynamic predict ({g}/{g} \
                 student geometries)"
            ),
            format!(
                "every reachable trainable parameter of the objective plan (PKD + \
                 forecast, clip, AdamW) receives exactly one accumulated \
                 gradient and one fused update; frozen parameters receive none \
                 ({n}/{n} configs)"
            ),
            format!(
                "the reverse schedule writes every gradient before any consumer, Init \
                 before Accum ({n}/{n} configs)"
            ),
            format!(
                "no saved activation's slot is reused before its last backward reader \
                 on the combined timeline ({n}/{n} configs)"
            ),
            format!(
                "planned objective steps are bitwise identical to the dynamic student \
                 objective step ({g}/{g} student geometries)"
            ),
            format!(
                "the teacher warm-up plan (projection, SCA, PTEncoder, reconstruction, \
                 clip, AdamW) passes every forward and backward pass, and its steps are \
                 bitwise identical to the dynamic teacher step ({n}/{n} configs)"
            ),
        ];
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd::AblationConfig;
    use timekd_tensor::PlanFault;

    fn tiny_cfg() -> TimeKdConfig {
        TimeKdConfig {
            dim: 16,
            num_heads: 2,
            ffn_hidden: 32,
            ..Default::default()
        }
    }

    fn tiny_plan() -> Plan {
        student_forecast_plan(&tiny_cfg(), 24, 8, 3).unwrap()
    }

    fn tiny_trace() -> StudentTrace {
        trace_student(&tiny_cfg(), 24, 8, 3).unwrap()
    }

    /// The trainer's objective plan for the tiny configuration.
    fn tiny_objective_plan() -> Plan {
        objective_plan(&tiny_cfg(), "t", 24, 8, 3).unwrap()
    }

    fn all_static_passes(plan: &Plan) -> Vec<Finding> {
        let mut out = check_slot_interference(plan, "t");
        out.extend(check_topo_validity(plan, "t"));
        out.extend(check_arena_bound(plan, "t"));
        out
    }

    #[test]
    fn plan_fingerprints_match_the_committed_fixture() {
        // Every plan `--plan` covers, lowered from today's recording, must
        // be the plan the committed fixture pins.
        let fixture = include_str!("../tests/fixtures/plan_fingerprints.txt");
        let expected: Vec<&str> = fixture.lines().collect();
        let actual = plan_fingerprint_lines().unwrap();
        assert_eq!(actual.len(), expected.len(), "plan count changed");
        for (a, e) in actual.iter().zip(&expected) {
            assert_eq!(a, e, "plan fingerprint changed");
        }
    }

    #[test]
    fn clean_plan_passes_all_passes() {
        let cfg = tiny_cfg();
        let fs = verify_plan_config(&cfg, "tiny", 24, 8, 3);
        assert!(fs.is_empty(), "{fs:?}");
        let fs = check_dynamic_agreement(&cfg, "tiny", 24, 8, 3);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn overlap_fault_trips_slot_overlap() {
        let mut plan = tiny_plan();
        plan.inject_fault(PlanFault::OverlapSlots);
        let fs = check_slot_interference(&plan, "t");
        assert!(
            fs.iter().any(|f| f.kind == "slot-overlap"),
            "expected a slot-overlap finding, got {fs:?}"
        );
    }

    #[test]
    fn swap_fault_trips_use_before_def() {
        let mut plan = tiny_plan();
        plan.inject_fault(PlanFault::SwapSchedule);
        let fs = check_topo_validity(&plan, "t");
        assert!(
            fs.iter().any(|f| f.kind == "use-before-def"),
            "expected a use-before-def finding, got {fs:?}"
        );
    }

    #[test]
    fn shrink_fault_trips_arena_bound() {
        let mut plan = tiny_plan();
        plan.inject_fault(PlanFault::ShrinkArena);
        let fs = check_arena_bound(&plan, "t");
        assert!(
            fs.iter().any(|f| f.kind == "arena-bound-mismatch"),
            "expected an arena-bound-mismatch finding, got {fs:?}"
        );
    }

    #[test]
    fn drop_edge_fault_trips_graph_diff() {
        let trace = tiny_trace();
        let mut plan = Plan::compile(&trace.prediction, &student_plan_spec()).unwrap();
        plan.inject_fault(PlanFault::DropEdge);
        let fs = check_graph_diff(&plan, &trace.prediction, "t");
        assert!(
            fs.iter().any(|f| f.kind == "graph-diff"),
            "expected a graph-diff finding, got {fs:?}"
        );
    }

    #[test]
    fn forward_faults_trip_their_pass_on_objective_plans() {
        // The forward faults are owned by the same passes on the objective
        // plan the trainer replays.
        let trace = tiny_trace();
        let owners = [
            (PlanFault::OverlapSlots, "slot-overlap"),
            (PlanFault::SwapSchedule, "use-before-def"),
            (PlanFault::ShrinkArena, "arena-bound-mismatch"),
            (PlanFault::DropEdge, "graph-diff"),
        ];
        for (fault, owner) in owners {
            let mut plan = tiny_objective_plan();
            plan.inject_fault(fault);
            let fs = static_passes(&plan, &trace.loss, "t");
            assert!(
                fs.iter().any(|f| f.kind == owner),
                "{fault:?} expected a `{owner}` finding, got {fs:?}"
            );
        }
    }

    #[test]
    fn faults_do_not_leak_into_other_passes_cleanliness() {
        // Each fault must be caught by its own pass — the clean plan must
        // stay clean under every pass so the named diagnostics are trusted.
        let plan = tiny_plan();
        assert!(all_static_passes(&plan).is_empty());
    }

    #[test]
    fn clean_training_plan_passes_backward_chain_and_divergence() {
        let trace = tiny_trace();
        let plan = tiny_objective_plan();
        assert!(plan.is_training());
        let fs = static_passes(&plan, &trace.loss, "t");
        assert!(fs.is_empty(), "{fs:?}");
        let fs = verify_backward_chain(&plan, "t");
        assert!(fs.is_empty(), "{fs:?}");
        let fs = check_train_agreement(&tiny_cfg(), "t", 24, 8, 3);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn divergence_pass_rejects_a_foreign_optimizer() {
        // A plan compiled with any optimizer but the trainer's is not the
        // plan the trainer replays.
        let cfg = tiny_cfg();
        let other = TimeKdConfig {
            lr: cfg.lr * 2.0,
            ..cfg
        };
        let plan =
            compile_student_objective_plan(&cfg, 24, 8, 3, trainer_plan_optimizer(&other)).unwrap();
        let fs = check_train_divergence(&plan, &cfg, "t", 24, 8, 3);
        assert!(
            fs.iter().any(|f| f.kind == "train-divergence"),
            "expected a train-divergence finding, got {fs:?}"
        );
    }

    #[test]
    fn forward_only_plans_still_verify_unchanged() {
        // Regression: forward plans carry empty backward schedules, the
        // forward passes stay oblivious to training support, and only the
        // completeness pass (by design) rejects the missing reverse
        // schedule when asked.
        let plan = tiny_plan();
        assert!(!plan.is_training());
        assert!(plan.bwd_steps().is_empty() && plan.update_steps().is_empty());
        assert!(all_static_passes(&plan).is_empty());
        let fs = check_adjoint_completeness(&plan, "t");
        assert!(fs.iter().all(|f| f.kind == "adjoint-incomplete") && !fs.is_empty());
    }

    #[test]
    fn drop_adjoint_fault_trips_adjoint_completeness() {
        let mut plan = tiny_objective_plan();
        plan.inject_fault(PlanFault::DropAdjoint);
        let fs = check_adjoint_completeness(&plan, "t");
        assert!(
            fs.iter().any(|f| f.kind == "adjoint-incomplete"),
            "expected an adjoint-incomplete finding, got {fs:?}"
        );
    }

    #[test]
    fn reorder_backward_fault_trips_reverse_topo() {
        let mut plan = tiny_objective_plan();
        plan.inject_fault(PlanFault::ReorderBackward);
        assert!(check_adjoint_completeness(&plan, "t").is_empty());
        let fs = check_reverse_topo(&plan, "t");
        assert!(
            fs.iter().any(|f| f.kind == "reverse-topo"),
            "expected a reverse-topo finding, got {fs:?}"
        );
    }

    #[test]
    fn clobber_saved_activation_fault_trips_saved_liveness() {
        let mut plan = tiny_objective_plan();
        plan.inject_fault(PlanFault::ClobberSavedActivation);
        assert!(check_adjoint_completeness(&plan, "t").is_empty());
        assert!(check_reverse_topo(&plan, "t").is_empty());
        let fs = check_saved_liveness(&plan, "t");
        assert!(
            fs.iter().any(|f| f.kind == "saved-liveness"),
            "expected a saved-liveness finding, got {fs:?}"
        );
    }

    #[test]
    fn backward_fault_isolation_matrix() {
        // Each backward fault is caught by exactly its owning pass in the
        // chain, and by no forward pass.
        let trace = tiny_trace();
        let owners = [
            (PlanFault::DropAdjoint, "adjoint-incomplete"),
            (PlanFault::ReorderBackward, "reverse-topo"),
            (PlanFault::ClobberSavedActivation, "saved-liveness"),
        ];
        for (fault, owner) in owners {
            let mut plan = tiny_objective_plan();
            plan.inject_fault(fault);
            let fwd = static_passes(&plan, &trace.loss, "t");
            assert!(
                fwd.is_empty(),
                "{fault:?} leaked into a forward pass: {fwd:?}"
            );
            let fs = verify_backward_chain(&plan, "t");
            assert!(!fs.is_empty(), "{fault:?} was not caught by the chain");
            assert!(
                fs.iter().all(|f| f.kind == owner),
                "{fault:?} expected only `{owner}` findings, got {fs:?}"
            );
        }
    }

    #[test]
    fn update_frozen_param_fault_caught_only_by_train_divergence() {
        // The fault yields a perfectly self-consistent plan (a frozen
        // parameter legitimately receives no update), so every static pass
        // must stay clean; only real execution against the dynamic
        // reference can expose that the wrong parameter was frozen.
        let cfg = tiny_cfg();
        let trace = tiny_trace();
        let mut plan = tiny_objective_plan();
        plan.inject_fault(PlanFault::UpdateFrozenParam);
        let fwd = static_passes(&plan, &trace.loss, "t");
        assert!(fwd.is_empty(), "{fwd:?}");
        let fs = verify_backward_chain(&plan, "t");
        assert!(
            fs.is_empty(),
            "static backward passes must stay clean: {fs:?}"
        );
        let fs = check_train_divergence(&plan, &cfg, "t", 24, 8, 3);
        assert!(
            fs.iter().any(|f| f.kind == "train-divergence"),
            "expected a train-divergence finding, got {fs:?}"
        );
    }

    #[test]
    fn clean_teacher_plans_pass_every_pass_and_divergence() {
        // Every teacher arm, `w/o_CLM`'s concat of the windows included.
        for ablation in [
            AblationConfig::full(),
            AblationConfig::without_privileged_info(),
            AblationConfig::without_calibrated_attention(),
            AblationConfig::without_clm(),
            AblationConfig::without_sca(),
        ] {
            let cfg = TimeKdConfig {
                ablation,
                ..tiny_cfg()
            };
            let fs = verify_teacher_plan_config(&cfg, ablation.label(), 24, 8, 3);
            assert!(fs.is_empty(), "{fs:?}");
        }
    }

    #[test]
    fn teacher_divergence_pass_catches_a_frozen_teacher_param() {
        // As for the objective plan: the fault leaves a self-consistent
        // plan that only the replay against the dynamic teacher step
        // exposes, and a foreign optimizer is refused up front.
        let cfg = tiny_cfg();
        let trace = trace_teacher(&cfg, 24, 8, 3).unwrap();
        let mut plan = teacher_plan(&cfg, "t", 24, 8, 3).unwrap();
        plan.inject_fault(PlanFault::UpdateFrozenParam);
        assert!(static_passes(&plan, &trace.loss, "t").is_empty());
        assert!(verify_backward_chain(&plan, "t").is_empty());
        let fs = check_teacher_train_divergence(&plan, &cfg, "t", 24, 8, 3);
        assert!(
            fs.iter().any(|f| f.kind == "train-divergence"),
            "expected a train-divergence finding, got {fs:?}"
        );

        let other = TimeKdConfig {
            lr: cfg.lr * 2.0,
            ..cfg
        };
        let plan = compile_teacher_plan(&cfg, 24, 8, 3, trainer_plan_optimizer(&other)).unwrap();
        let fs = check_teacher_train_divergence(&plan, &cfg, "t", 24, 8, 3);
        assert!(
            fs.iter().any(|f| f.kind == "train-divergence"),
            "expected a train-divergence finding, got {fs:?}"
        );
    }
}
