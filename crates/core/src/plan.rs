//! Plan-backed student inference and training, and the teacher's
//! warm-up step.
//!
//! [`PlannedStudent`] compiles the student's recorded forecast graph
//! ([`trace_student`]) into a static [`Plan`] (fixed schedule +
//! liveness-colored arena), binds the real [`Student`] parameters to it by
//! naming-walk label, and replays it with zero
//! per-call graph construction and zero allocation. Because the plan
//! executor invokes the same row-block kernels as the dynamic engine,
//! planned forecasts are **bitwise identical** to [`Student::predict`].
//! [`PlannedBatchTrainer`] does the same for the student's one training
//! objective (PKD + forecasting, Alg. 2), and [`PlannedTeacherTrainer`]
//! for the teacher's reconstruction step (Alg. 1, [`trace_teacher`]) on a
//! window's stored CLM rows. Both trainers bind the model's parameters
//! through one copy-in/copy-out pair (`BoundTrainer`).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};

use timekd_nn::Module;
use timekd_tensor::{
    reachable_params, Plan, PlanError, PlanExecutor, PlanOptimizer, PlanSpec, Tensor,
    TrainExecutor, TrainSpec, ValueSource,
};

use crate::config::TimeKdConfig;
use crate::student::Student;
use crate::symbolic::{
    trace_student, trace_teacher, StudentTrace, CLM_GT_LABEL, CLM_HD_LABEL, TEACHER_ATT_LABEL,
    TEACHER_EMB_LABEL,
};
use crate::teacher::CrossModalityTeacher;

/// The plan spec for the student forecast graph: the history window is the
/// single runtime input, and the RevIN instance statistics (constant
/// leaves in the recording) lower to per-column mean/std steps over
/// it — with the same `1e-5` epsilon as the real layer.
pub fn student_plan_spec() -> PlanSpec {
    PlanSpec {
        input_label: "x".to_string(),
        col_mean_leaves: vec!["student.revin.mu".to_string()],
        col_std_leaves: vec![("student.revin.std".to_string(), 1e-5)],
        aux_labels: Vec::new(),
    }
}

/// Aux feed slot of the teacher attention `A_PE` in objective plans.
pub const AUX_TEACHER_ATT: usize = 0;
/// Aux feed slot of the teacher embedding `E_GT` in objective plans.
pub const AUX_TEACHER_EMB: usize = 1;

/// The plan spec for the student objective graph ([`StudentTrace::loss`]):
/// like [`student_plan_spec`], plus the teacher's privileged products as
/// per-window auxiliary constants. The slot order here fixes
/// [`AUX_TEACHER_ATT`] / [`AUX_TEACHER_EMB`]; configurations whose
/// ablation drops an arm simply leave that slot empty (`aux_len == 0`).
pub fn student_objective_spec() -> PlanSpec {
    PlanSpec {
        aux_labels: vec![TEACHER_ATT_LABEL.to_string(), TEACHER_EMB_LABEL.to_string()],
        ..student_plan_spec()
    }
}

/// A student geometry: `(input_len, horizon, num_vars)`.
type Geometry = (usize, usize, usize);

fn geometry(student: &Student) -> Geometry {
    (student.input_len(), student.horizon(), student.num_vars())
}

fn trace(
    config: &TimeKdConfig,
    (input_len, horizon, num_vars): Geometry,
) -> Result<StudentTrace, PlanError> {
    trace_student(config, input_len, horizon, num_vars).map_err(|e| PlanError {
        message: format!("student trace failed: {e}"),
    })
}

/// The one binding between a live [`Student`] and its plans: every
/// parameter under its naming-walk label ([`Module::named_params`]), in
/// [`Module::params`] order — the labels plans and the model registry use.
/// The returned handles are the student's own tensors, not copies.
pub fn bind_student_params(student: &Student) -> Vec<(String, Tensor)> {
    student.named_params("student")
}

fn param_named<'a>(params: &'a [(String, Tensor)], label: &str) -> Option<&'a Tensor> {
    params.iter().find(|(l, _)| l == label).map(|(_, t)| t)
}

/// Executor resolver over [`bind_student_params`] output: a copy of the
/// named parameter's data when its shape matches.
fn resolve(params: &[(String, Tensor)], label: &str, dims: &[usize]) -> Option<Vec<f32>> {
    param_named(params, label)
        .filter(|t| t.dims() == dims)
        .map(|t| t.data().clone())
}

// ---------------------------------------------------------------------------
// Compiled-plan cache
// ---------------------------------------------------------------------------

const KIND_FORECAST: u64 = 1;
const KIND_TRAIN_OBJECTIVE: u64 = 3;
const KIND_TRAIN_TEACHER: u64 = 4;

thread_local! {
    static PLAN_CACHE: RefCell<HashMap<Vec<u64>, Plan>> = RefCell::new(HashMap::new());
    static PLAN_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static PLAN_CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// `(hits, misses)` of this thread's compiled-plan cache. A miss is an
/// actual [`Plan`] compilation (also counted by the global
/// `timekd_obs::PLAN_COMPILES` counter when tracing is enabled). Epoch
/// loops over a fixed geometry must only ever add hits after their first
/// epoch — the cache-reuse tests assert exactly that.
pub fn plan_cache_stats() -> (u64, u64) {
    (
        PLAN_CACHE_HITS.with(Cell::get),
        PLAN_CACHE_MISSES.with(Cell::get),
    )
}

/// Empties this thread's compiled-plan cache and zeroes its stats. Only
/// tests need this (isolation between compile-count assertions).
pub fn reset_plan_cache() {
    PLAN_CACHE.with(|c| c.borrow_mut().clear());
    PLAN_CACHE_HITS.with(|h| h.set(0));
    PLAN_CACHE_MISSES.with(|m| m.set(0));
}

fn push_f32(key: &mut Vec<u64>, v: f32) {
    key.push(u64::from(v.to_bits()));
}

/// Appends a training plan's loss and clip constants, then its fused
/// optimizer's, to its cache key.
fn push_train_constants(key: &mut Vec<u64>, constants: &[f32], optimizer: PlanOptimizer) {
    let PlanOptimizer::AdamW {
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
    } = optimizer;
    for &v in constants
        .iter()
        .chain(&[lr, beta1, beta2, eps, weight_decay])
    {
        push_f32(key, v);
    }
}

/// Everything that shapes a compiled student graph for `config` at this
/// geometry: plan kind, sizes, encoder architecture, and ablation bits.
/// Loss weights and optimizer hyper-parameters are appended by the
/// training-plan key builder (they are baked into plan steps).
fn plan_key_base(
    kind: u64,
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Vec<u64> {
    let ab = config.ablation;
    vec![
        kind,
        input_len as u64,
        horizon as u64,
        num_vars as u64,
        config.dim as u64,
        config.num_layers as u64,
        config.num_heads as u64,
        config.ffn_hidden as u64,
        u64::from(ab.privileged_info)
            | (u64::from(ab.calibrated_attention) << 1)
            | (u64::from(ab.use_clm) << 2)
            | (u64::from(ab.use_sca) << 3)
            | (u64::from(ab.correlation_distillation) << 4)
            | (u64::from(ab.feature_distillation) << 5),
    ]
}

/// Returns the cached plan for `key`, compiling (and caching) on first
/// use. Compilation is deterministic in the key, so a cache hit is
/// bitwise-equivalent to recompiling — the whole point is that epoch
/// loops stop paying the lowering cost per epoch.
fn cached_plan(
    key: Vec<u64>,
    compile: impl FnOnce() -> Result<Plan, PlanError>,
) -> Result<Plan, PlanError> {
    if let Some(plan) = PLAN_CACHE.with(|c| c.borrow().get(&key).cloned()) {
        PLAN_CACHE_HITS.with(|h| h.set(h.get() + 1));
        return Ok(plan);
    }
    let plan = compile()?;
    timekd_obs::PLAN_COMPILES.add(1);
    PLAN_CACHE_MISSES.with(|m| m.set(m.get() + 1));
    PLAN_CACHE.with(|c| c.borrow_mut().insert(key, plan.clone()));
    Ok(plan)
}

/// The forecast plan for this geometry, from the plan cache or — on a
/// miss only — recorded and compiled.
pub fn student_forecast_plan(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<Plan, PlanError> {
    let key = plan_key_base(KIND_FORECAST, config, input_len, horizon, num_vars);
    cached_plan(key, || {
        let trace = trace(config, (input_len, horizon, num_vars))?;
        Plan::compile(&trace.prediction, &student_plan_spec())
    })
}

/// Records the student objective for this geometry and compiles it into
/// the training plan [`PlannedBatchTrainer`] replays once per window:
/// forward, reverse schedule, global gradient-norm clipping at
/// `config.grad_clip` in [`Module::params`] order, and one fused
/// `optimizer` step. The per-component loss scalars stay pinned in the
/// arena (in the order `L_cd`, `L_fd`, `L_fcst`, absent arms skipped) so
/// they can be read back after a step. A cache hit records nothing.
pub fn compile_student_objective_plan(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    optimizer: PlanOptimizer,
) -> Result<Plan, PlanError> {
    let mut key = plan_key_base(KIND_TRAIN_OBJECTIVE, config, input_len, horizon, num_vars);
    push_train_constants(
        &mut key,
        &[
            config.lambda_cd,
            config.lambda_fd,
            config.lambda_pkd,
            config.lambda_fcst,
            config.grad_clip,
        ],
        optimizer,
    );
    cached_plan(key, || {
        let trace = trace(config, (input_len, horizon, num_vars))?;
        let mut train = TrainSpec::new("y", optimizer);
        train.grad_clip = Some(config.grad_clip);
        train.clip_param_order = trace
            .ctx
            .params()
            .iter()
            .map(|p| p.label().to_string())
            .collect();
        train.pinned = [
            trace.correlation.as_ref(),
            trace.feature.as_ref(),
            Some(&trace.forecast),
        ]
        .into_iter()
        .flatten()
        .map(|t| t.id())
        .collect();
        Plan::compile_training(&trace.loss, &student_objective_spec(), &train)
    })
}

/// A [`Student`] whose predict path runs a compiled [`Plan`] instead of
/// the dynamic graph engine.
#[derive(Debug)]
pub struct PlannedStudent {
    plan: Plan,
    executor: PlanExecutor,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
}

impl PlannedStudent {
    /// Compiles the forecast plan for `student`'s geometry and binds its
    /// parameters to an executor (see [`bind_student_params`] for the
    /// binding contract).
    pub fn new(student: &Student, config: &TimeKdConfig) -> Result<PlannedStudent, PlanError> {
        let (input_len, horizon, num_vars) = geometry(student);
        let plan = student_forecast_plan(config, input_len, horizon, num_vars)?;
        let params = bind_student_params(student);
        let executor = PlanExecutor::new(&plan, |label, dims| resolve(&params, label, dims))?;
        Ok(PlannedStudent {
            plan,
            executor,
            input_len,
            horizon,
            num_vars,
        })
    }

    /// The compiled plan (for inspection and verification).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Forecast horizon length.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Channel count.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Predicts into a caller-provided `[horizon * num_vars]` buffer with
    /// zero allocation and zero graph construction.
    pub fn predict_into(&mut self, x: &Tensor, out: &mut [f32]) {
        assert_eq!(
            x.dims(),
            &[self.input_len, self.num_vars],
            "planned student input shape"
        );
        self.executor.run(&x.data(), out);
    }

    /// Convenience wrapper returning a `[horizon, num_vars]` tensor.
    ///
    /// The executor never touches a `Tensor` op, but the `no_grad` scope
    /// keeps that guarantee even if one ever sneaks in.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        timekd_tensor::no_grad(|| {
            let mut out = vec![0.0f32; self.horizon * self.num_vars];
            self.predict_into(x, &mut out);
            Tensor::from_vec(out, [self.horizon, self.num_vars])
        })
    }
}

/// A compiled training plan bound to a live model's parameters by
/// naming-walk label: the one copy-in/copy-out pair both planned trainers
/// ([`PlannedBatchTrainer`], [`PlannedTeacherTrainer`]) share. The
/// executor trains its own copies of the values:
/// [`read_params`](Self::read_params) copies the model's current values
/// in and [`write_back`](Self::write_back) publishes the trained ones.
/// The plan itself is not kept: the executor holds all it replays.
#[derive(Debug)]
struct BoundTrainer {
    executor: TrainExecutor,
    /// Parameter labels in executor binding order (plan value order).
    labels: Vec<String>,
    /// The model's parameter tensors in binding order (the model's own
    /// handles, not copies).
    params: Vec<Tensor>,
}

impl BoundTrainer {
    /// Binds the current values of `params` (a model's
    /// [`Module::named_params`]) to a compiled training plan.
    fn bind(plan: &Plan, params: &[(String, Tensor)]) -> Result<BoundTrainer, PlanError> {
        let executor = TrainExecutor::new(plan, |label, dims| resolve(params, label, dims))?;
        let labels: Vec<String> = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.clone())
            .collect();
        // The executor resolved every label above, so none is missing.
        let params = labels
            .iter()
            .filter_map(|label| param_named(params, label).cloned())
            .collect();
        Ok(BoundTrainer {
            executor,
            labels,
            params,
        })
    }

    fn param_data(&self, label: &str) -> Option<&[f32]> {
        let idx = self.labels.iter().position(|l| l == label)?;
        Some(self.executor.param_data(idx))
    }

    fn read_params(&mut self) {
        for (i, p) in self.params.iter().enumerate() {
            self.executor.set_param_data(i, &p.data());
        }
    }

    fn write_back(&self) {
        for (i, p) in self.params.iter().enumerate() {
            let data = self.executor.param_data(i);
            p.update_data(|d| d.copy_from_slice(data));
        }
    }
}

/// The full student objective (PKD + forecasting, Alg. 2) compiled once
/// into a training plan and bound to a live [`Student`]'s parameters.
///
/// Each [`run_batch`](PlannedBatchTrainer::run_batch) call takes one
/// training step on the staged window: forward, backward, clipping and
/// one fused optimizer step. The steps are bitwise identical to the
/// dynamic per-window loop. The batch size, window index and count
/// arguments accept only a single window (1, 0 and 1).
#[derive(Debug)]
pub struct PlannedBatchTrainer {
    bound: BoundTrainer,
    /// Arena ranges of the pinned per-component loss scalars.
    correlation: Option<(usize, usize)>,
    feature: Option<(usize, usize)>,
    forecast: (usize, usize),
    /// The staged window's flattened history and target.
    x: Vec<f32>,
    y: Vec<f32>,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
}

impl PlannedBatchTrainer {
    /// Compiles (or fetches from the plan cache) the objective plan for
    /// `student`'s geometry ([`compile_student_objective_plan`]) and binds
    /// its current parameter values. Gradient clipping and the
    /// per-component loss pins mirror the dynamic
    /// `TimeKd::train_student_epoch_dynamic` loop exactly. `batch` must
    /// be 1.
    pub fn new(
        student: &Student,
        config: &TimeKdConfig,
        optimizer: PlanOptimizer,
        batch: usize,
    ) -> Result<PlannedBatchTrainer, PlanError> {
        if batch != 1 {
            return Err(PlanError {
                message: format!("the student trainer takes one window per step, not {batch}"),
            });
        }
        let (input_len, horizon, num_vars) = geometry(student);
        let plan = compile_student_objective_plan(config, input_len, horizon, num_vars, optimizer)?;
        PlannedBatchTrainer::bind(student, config, plan)
    }

    /// Binds `student`'s current parameter values to an already compiled
    /// objective plan for its geometry under `config` — how the plan
    /// verifier replays a plan it has inspected (or deliberately broken).
    pub fn bind(
        student: &Student,
        config: &TimeKdConfig,
        plan: Plan,
    ) -> Result<PlannedBatchTrainer, PlanError> {
        let bound = BoundTrainer::bind(&plan, &bind_student_params(student))?;

        // The pinned loss scalars, in compile order: `L_cd` and `L_fd`
        // when their arm is on, then `L_fcst`.
        let ab = config.ablation;
        let mut pinned = plan.pinned().iter().map(|&vid| plan.arena_range(vid));
        let mut pin = |on: bool, what: &str| -> Result<Option<(usize, usize)>, PlanError> {
            if !on {
                return Ok(None);
            }
            pinned.next().flatten().map(Some).ok_or_else(|| PlanError {
                message: format!("pinned {what} loss has no arena slot"),
            })
        };
        let correlation = pin(ab.correlation_distillation, "distillation")?;
        let feature = pin(ab.feature_distillation, "distillation")?;
        let forecast = pin(true, "forecasting")?.expect("always pinned");

        Ok(PlannedBatchTrainer {
            x: vec![0.0; bound.executor.input_len()],
            y: vec![0.0; bound.executor.target_len()],
            bound,
            correlation,
            feature,
            forecast,
            input_len: student.input_len(),
            horizon: student.horizon(),
            num_vars: student.num_vars(),
        })
    }

    /// Labels of the bound parameters, in binding order.
    pub fn param_labels(&self) -> &[String] {
        &self.bound.labels
    }

    /// Current data of the parameter named `label`, if bound.
    pub fn param_data(&self, label: &str) -> Option<&[f32]> {
        self.bound.param_data(label)
    }

    /// Stages the `[L, N]` history and `[M, N]` target of the next
    /// [`run_batch`](PlannedBatchTrainer::run_batch). `w` must be 0.
    pub fn stage_window(&mut self, w: usize, x: &Tensor, y: &Tensor) {
        assert_eq!(w, 0, "the student trainer stages one window, at index 0");
        assert_eq!(
            x.dims(),
            &[self.input_len, self.num_vars],
            "planned trainer input shape"
        );
        assert_eq!(
            y.dims(),
            &[self.horizon, self.num_vars],
            "planned trainer target shape"
        );
        self.x.copy_from_slice(&x.data());
        self.y.copy_from_slice(&y.data());
    }

    /// Stages the teacher's privileged products for the next step. Slots
    /// an ablation dropped from the graph are skipped (their aux length is
    /// zero). `w` must be 0.
    pub fn stage_teacher(&mut self, w: usize, attention: &Tensor, embedding: &Tensor) {
        assert_eq!(w, 0, "the student trainer stages one window, at index 0");
        let executor = &mut self.bound.executor;
        if executor.aux_len(AUX_TEACHER_ATT) > 0 {
            executor.set_aux(AUX_TEACHER_ATT, &attention.data());
        }
        if executor.aux_len(AUX_TEACHER_EMB) > 0 {
            executor.set_aux(AUX_TEACHER_EMB, &embedding.data());
        }
    }

    /// Updates the fused optimizer's learning rate (LR schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.bound.executor.set_lr(lr);
    }

    /// Aligns the fused optimizer's step counter (AdamW bias correction)
    /// with an external clock — the trainer's shared dynamic optimizer.
    pub fn set_step_count(&mut self, n: u64) {
        self.bound.executor.set_step_count(n);
    }

    /// Takes one training step on the staged window: forward, backward,
    /// clipping and one fused optimizer step. `count` must be 1.
    pub fn run_batch(&mut self, count: usize) {
        assert_eq!(count, 1, "the student trainer takes one window per step");
        self.bound.executor.run_train_step(&self.x, &self.y);
    }

    fn component(&self, range: Option<(usize, usize)>) -> f32 {
        match range {
            Some((off, len)) => self.bound.executor.arena_value(off, len)[0],
            None => 0.0,
        }
    }

    /// The last step's total loss.
    pub fn total_loss(&self) -> f32 {
        self.bound.executor.loss()
    }

    /// The last step's correlation distillation loss `L_cd` (0 when
    /// ablated).
    pub fn correlation_loss(&self) -> f32 {
        self.component(self.correlation)
    }

    /// The last step's feature distillation loss `L_fd` (0 when ablated).
    pub fn feature_loss(&self) -> f32 {
        self.component(self.feature)
    }

    /// The last step's forecasting loss `L_fcst`.
    pub fn forecast_loss(&self) -> f32 {
        self.component(Some(self.forecast))
    }

    /// Copies the bound student tensors' current values into the executor,
    /// the inverse of [`write_back`](PlannedBatchTrainer::write_back): a
    /// trainer kept across epochs then trains what the live model holds,
    /// also after a checkpoint load. The optimizer state is kept.
    pub fn read_params(&mut self) {
        self.bound.read_params();
    }

    /// Copies the executor's current parameter values back into the bound
    /// student tensors (the same handles the constructor was given), so
    /// the live model observes the training.
    pub fn write_back(&self) {
        self.bound.write_back();
    }
}

// ---------------------------------------------------------------------------
// The teacher's warm-up step (Alg. 1)
// ---------------------------------------------------------------------------

/// Aux feed slot of the historical CLM rows `clm_hd` in teacher plans.
const AUX_CLM_HD: usize = 0;

/// The plan spec for the teacher's training step ([`trace_teacher`]): on
/// the CLM arms the ground-truth CLM rows are the runtime input and the
/// historical rows an aux feed; on `w/o_CLM` the history window `x` is
/// the input. The future window `y` is the training target either way.
fn teacher_plan_spec(config: &TimeKdConfig) -> PlanSpec {
    if config.ablation.use_clm {
        PlanSpec {
            input_label: CLM_GT_LABEL.to_string(),
            aux_labels: vec![CLM_HD_LABEL.to_string()],
            ..PlanSpec::default()
        }
    } else {
        PlanSpec {
            input_label: "x".to_string(),
            ..PlanSpec::default()
        }
    }
}

/// The one binding between a live [`CrossModalityTeacher`] and its plan:
/// every trainable parameter under its naming-walk label, in
/// [`Module::params`] order. The handles are the teacher's own tensors.
pub fn bind_teacher_params(teacher: &CrossModalityTeacher) -> Vec<(String, Tensor)> {
    teacher.named_params("teacher")
}

/// Records the teacher's training step for this geometry and compiles it
/// into the plan [`PlannedTeacherTrainer`] replays once per window:
/// projection (or the `w/o_CLM` value embeddings), SCA, `PTEncoder`, the
/// reconstruction head and `λ_r · L_recon`, its reverse schedule, global
/// gradient-norm clipping at `config.grad_clip` in [`Module::params`]
/// order and one fused `optimizer` step. A cache hit records nothing.
pub fn compile_teacher_plan(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    optimizer: PlanOptimizer,
) -> Result<Plan, PlanError> {
    // The key adds what the student's base leaves out: the CLM width of
    // the row leaves, and the constants baked into the loss, the clip and
    // the fused update.
    let mut key = plan_key_base(KIND_TRAIN_TEACHER, config, input_len, horizon, num_vars);
    key.push(config.lm.dim as u64);
    push_train_constants(
        &mut key,
        &[config.lambda_recon, config.grad_clip],
        optimizer,
    );
    cached_plan(key, || {
        let trace = trace_teacher(config, input_len, horizon, num_vars).map_err(|e| PlanError {
            message: format!("teacher trace failed: {e}"),
        })?;
        let mut train = TrainSpec::new("y", optimizer);
        train.grad_clip = Some(config.grad_clip);
        // The dynamic clip skips parameters the step leaves without a
        // gradient (SCA's projections on `w/o_SCA`); so does the plan's.
        let reached: HashSet<u64> = reachable_params(&trace.loss)
            .iter()
            .map(|p| p.id())
            .collect();
        train.clip_param_order = trace
            .ctx
            .params()
            .iter()
            .filter(|p| reached.contains(&p.id()))
            .map(|p| p.label().to_string())
            .collect();
        Plan::compile_training(&trace.loss, &teacher_plan_spec(config), &train)
    })
}

/// The teacher's reconstruction step (Alg. 1) compiled once into a
/// training plan and bound to a live [`CrossModalityTeacher`]'s
/// parameters.
///
/// Each [`run_step`](PlannedTeacherTrainer::run_step) takes one training
/// step on one window's stored CLM rows (or, on `w/o_CLM`, its values):
/// forward, backward, clipping and one fused optimizer step, bitwise
/// identical to the dynamic step
/// ([`teacher_objective`](crate::teacher_objective), backward,
/// `clip_grad_norm`, AdamW).
#[derive(Debug)]
pub struct PlannedTeacherTrainer {
    bound: BoundTrainer,
    uses_clm: bool,
}

impl PlannedTeacherTrainer {
    /// Compiles (or fetches from the plan cache) the teacher plan for
    /// `teacher`'s geometry over windows of `num_vars` variables
    /// ([`compile_teacher_plan`]) and binds its current parameter values.
    pub fn new(
        teacher: &CrossModalityTeacher,
        config: &TimeKdConfig,
        num_vars: usize,
        optimizer: PlanOptimizer,
    ) -> Result<PlannedTeacherTrainer, PlanError> {
        let plan = compile_teacher_plan(
            config,
            teacher.input_len(),
            teacher.horizon(),
            num_vars,
            optimizer,
        )?;
        PlannedTeacherTrainer::bind(teacher, config, plan)
    }

    /// Binds `teacher`'s current parameter values to an already compiled
    /// teacher plan under `config` — how the plan verifier replays a plan
    /// it has inspected.
    pub fn bind(
        teacher: &CrossModalityTeacher,
        config: &TimeKdConfig,
        plan: Plan,
    ) -> Result<PlannedTeacherTrainer, PlanError> {
        Ok(PlannedTeacherTrainer {
            bound: BoundTrainer::bind(&plan, &bind_teacher_params(teacher))?,
            uses_clm: config.ablation.use_clm,
        })
    }

    /// Current data of the parameter named `label`, if bound.
    pub fn param_data(&self, label: &str) -> Option<&[f32]> {
        self.bound.param_data(label)
    }

    /// Updates the fused optimizer's learning rate (LR schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.bound.executor.set_lr(lr);
    }

    /// Aligns the fused optimizer's step counter (AdamW bias correction)
    /// with the trainer's shared dynamic optimizer.
    pub fn set_step_count(&mut self, n: u64) {
        self.bound.executor.set_step_count(n);
    }

    /// Takes one training step on the window `(x, y)` with its CLM rows
    /// `(L_GT, L_HD)` (`None` exactly on `w/o_CLM`) and returns
    /// `λ_r · L_recon`. Panics when the rows do not match the plan's arm
    /// or shapes.
    pub fn run_step(&mut self, x: &Tensor, y: &Tensor, rows: Option<&(Tensor, Tensor)>) -> f32 {
        assert_eq!(
            rows.is_some(),
            self.uses_clm,
            "the teacher plan takes CLM rows exactly when the CLM is on"
        );
        let executor = &mut self.bound.executor;
        match rows {
            Some((gt, hd)) => {
                executor.set_aux(AUX_CLM_HD, &hd.data());
                executor.run_train_step(&gt.data(), &y.data())
            }
            None => executor.run_train_step(&x.data(), &y.data()),
        }
    }

    /// Copies the bound teacher tensors' current values into the
    /// executor; the optimizer state is kept (see
    /// [`PlannedBatchTrainer::read_params`]).
    pub fn read_params(&mut self) {
        self.bound.read_params();
    }

    /// Copies the executor's current parameter values back into the bound
    /// teacher tensors.
    pub fn write_back(&self) {
        self.bound.write_back();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    fn small_config() -> TimeKdConfig {
        TimeKdConfig {
            dim: 16,
            num_heads: 2,
            num_layers: 2,
            ffn_hidden: 32,
            ..Default::default()
        }
    }

    /// The bitwise oracles' inputs, `(config, (input_len, horizon,
    /// num_vars))`: the small config, and the default config at 48×7 →
    /// 24×7 (`timekd-check --plan` covers it at 96×7 → 24×7).
    fn oracle_geometries() -> [(TimeKdConfig, (usize, usize, usize)); 2] {
        [
            (small_config(), (24, 8, 5)),
            (TimeKdConfig::default(), (48, 24, 7)),
        ]
    }

    #[test]
    fn planned_predict_is_bitwise_identical_to_dynamic() {
        for (config, (input_len, horizon, num_vars)) in oracle_geometries() {
            let mut rng = seeded_rng(7);
            let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
            let mut planned = PlannedStudent::new(&student, &config).unwrap();

            let x = Tensor::randn([input_len, num_vars], 1.0, &mut rng);
            let dynamic = student.predict(&x).to_vec();
            // The dynamic engine saves RevIN stats during predict; run the
            // plan afterwards so any (unwanted) state coupling would surface.
            assert_eq!(
                planned.predict(&x).to_vec(),
                dynamic,
                "planned forecast must be bitwise identical (dim {}, {input_len}x{num_vars})",
                config.dim
            );
        }
    }

    #[test]
    fn predict_into_writes_the_same_bytes() {
        let config = small_config();
        let mut rng = seeded_rng(11);
        let student = Student::new(&config, 16, 4, 3, &mut rng);
        let mut planned = PlannedStudent::new(&student, &config).unwrap();
        let x = Tensor::randn([16, 3], 1.0, &mut rng);
        let mut out = vec![0.0f32; 4 * 3];
        planned.predict_into(&x, &mut out);
        assert_eq!(out, student.predict(&x).to_vec());
    }

    /// Seeded windows with stand-in teacher products: `(x, y, A_PE, E_GT)`.
    fn windows(
        n: usize,
        config: &TimeKdConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> Vec<(Tensor, Tensor, Tensor, Tensor)> {
        let mut rng = seeded_rng(23);
        (0..n)
            .map(|_| {
                (
                    Tensor::randn([input_len, num_vars], 1.0, &mut rng),
                    Tensor::randn([horizon, num_vars], 1.0, &mut rng),
                    Tensor::randn([num_vars, num_vars], 1.0, &mut rng).softmax_last(),
                    Tensor::randn([num_vars, config.dim], 1.0, &mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn planned_objective_training_is_bitwise_identical_to_dynamic() {
        // `PlannedBatchTrainer` against the dynamic
        // `student_objective` step (backward, clip, the trainer's AdamW),
        // for every combination of distillation arms — so both aux slots
        // are exercised present and absent.
        // The tight clip makes every step rescale its gradients.
        for ((base, (input_len, horizon, num_vars)), (cd, fd)) in
            oracle_geometries().into_iter().flat_map(|g| {
                [(true, true), (false, true), (true, false), (false, false)].map(|a| (g, a))
            })
        {
            let mut config = TimeKdConfig {
                grad_clip: 0.05,
                ..base
            };
            config.ablation.correlation_distillation = cd;
            config.ablation.feature_distillation = fd;
            let data = windows(3, &config, input_len, horizon, num_vars);

            let student = Student::new(&config, input_len, horizon, num_vars, &mut seeded_rng(7));
            let params = student.params();
            let mut adamw = crate::trainer_adamw(&config);
            let mut dynamic_losses = Vec::new();
            for (x, y, att, emb) in &data {
                student.zero_grad();
                let obj = crate::student_objective(&student, &config, x, y, att, emb);
                dynamic_losses.push(
                    [&obj.total, &obj.correlation, &obj.feature, &obj.forecast].map(Tensor::item),
                );
                obj.total.backward();
                timekd_nn::clip_grad_norm(&params, config.grad_clip);
                adamw.step(&params);
            }
            let dynamic_params: Vec<Vec<f32>> = params.iter().map(Tensor::to_vec).collect();

            let student = Student::new(&config, input_len, horizon, num_vars, &mut seeded_rng(7));
            let mut trainer = PlannedBatchTrainer::new(
                &student,
                &config,
                crate::trainer_plan_optimizer(&config),
                1,
            )
            .unwrap();
            let mut planned_losses = Vec::new();
            for (x, y, att, emb) in &data {
                trainer.stage_window(0, x, y);
                trainer.stage_teacher(0, att, emb);
                trainer.run_batch(1);
                planned_losses.push([
                    trainer.total_loss(),
                    trainer.correlation_loss(),
                    trainer.feature_loss(),
                    trainer.forecast_loss(),
                ]);
            }
            let bits = |l: &[[f32; 4]]| -> Vec<[u32; 4]> {
                l.iter().map(|r| r.map(f32::to_bits)).collect()
            };
            let arms = format!("dim={} {input_len}x{num_vars} cd={cd} fd={fd}", config.dim);
            assert_eq!(
                bits(&planned_losses),
                bits(&dynamic_losses),
                "losses diverge ({arms})"
            );
            trainer.write_back();
            let planned_params: Vec<Vec<f32>> =
                student.params().iter().map(Tensor::to_vec).collect();
            assert_eq!(planned_params, dynamic_params, "params diverge ({arms})");
        }
    }

    #[test]
    fn objective_plan_updates_every_student_parameter_once() {
        let config = small_config();
        let plan = compile_student_objective_plan(
            &config,
            24,
            8,
            5,
            crate::trainer_plan_optimizer(&config),
        )
        .unwrap();
        let params = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .count();
        assert_eq!(
            plan.update_steps().len(),
            params,
            "every student parameter must receive exactly one fused update"
        );
        assert!(plan.is_training());
        assert!(!plan.bwd_steps().is_empty());
        assert_eq!(plan.grad_clip(), Some(config.grad_clip));
    }

    #[test]
    fn batch_trainer_reuses_cached_plan_across_rebuilds() {
        // The cache is thread-local, so this test observes only its own
        // compiles; work with deltas to stay robust if the harness ever
        // reuses threads.
        reset_plan_cache();
        let config = small_config();
        let mut rng = seeded_rng(7);
        let student = Student::new(&config, 24, 8, 5, &mut rng);
        let opt = crate::trainer_plan_optimizer(&config);
        let (h0, m0) = plan_cache_stats();
        let _a = PlannedBatchTrainer::new(&student, &config, opt, 1).unwrap();
        assert_eq!(plan_cache_stats(), (h0, m0 + 1), "first build must compile");
        let _b = PlannedBatchTrainer::new(&student, &config, opt, 1).unwrap();
        assert_eq!(
            plan_cache_stats(),
            (h0 + 1, m0 + 1),
            "epoch-over-epoch rebuild must not recompile the objective plan"
        );
        // A different hyper-parameter misses: fused update constants are
        // baked into the plan.
        let other = TimeKdConfig {
            lr: config.lr * 2.0,
            ..config
        };
        let _c =
            PlannedBatchTrainer::new(&student, &config, crate::trainer_plan_optimizer(&other), 1)
                .unwrap();
        assert_eq!(plan_cache_stats(), (h0 + 1, m0 + 2));
        reset_plan_cache();
    }

    #[test]
    fn trainer_refuses_more_than_one_window_per_step() {
        let config = small_config();
        let student = Student::new(&config, 24, 8, 5, &mut seeded_rng(7));
        let opt = crate::trainer_plan_optimizer(&config);
        for batch in [0, 4] {
            let err = PlannedBatchTrainer::new(&student, &config, opt, batch).unwrap_err();
            assert!(err.message.contains("one window per step"), "{err}");
        }
    }

    #[test]
    fn plan_has_no_unlowered_ops_and_reuses_arena() {
        let config = small_config();
        let plan = student_forecast_plan(&config, 24, 8, 5).unwrap();
        let total: usize = plan
            .steps()
            .iter()
            .map(|s| plan.values()[s.output].len())
            .sum();
        assert!(
            plan.arena_len() < total / 2,
            "liveness should reuse slots aggressively: arena {} vs outputs {}",
            plan.arena_len(),
            total
        );
    }
}
