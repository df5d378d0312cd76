//! Plan-backed student inference.
//!
//! [`PlannedStudent`] compiles the student's symbolic forecast trace into a
//! static [`Plan`] (fixed schedule + liveness-colored arena), binds the
//! real [`Student`] parameters to it by label, and replays it with zero
//! per-call graph construction and zero allocation. Because the plan
//! executor invokes the same serial row-block kernels the dynamic engine
//! partitions across the worker pool, planned forecasts are **bitwise
//! identical** to [`Student::predict`] at any `TIMEKD_THREADS` setting.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use timekd_nn::Module;
use timekd_tensor::{
    BatchTrainExecutor, Plan, PlanError, PlanExecutor, PlanOptimizer, PlanSpec, Precision, Tensor,
    TrainExecutor, TrainSpec, ValueSource,
};

use crate::config::TimeKdConfig;
use crate::student::Student;
use crate::symbolic::{
    trace_student_forecast, trace_student_loss, trace_student_objective, TEACHER_ATT_LABEL,
    TEACHER_EMB_LABEL,
};

/// The plan spec for the student forecast graph: the history window is the
/// single runtime input, and the RevIN instance statistics (constant
/// leaves in the symbolic trace) lower to per-column mean/std steps over
/// it — with the same `1e-5` epsilon as the real layer.
pub fn student_plan_spec() -> PlanSpec {
    student_plan_spec_with_precision(Precision::F32)
}

/// [`student_plan_spec`] with an explicit executor precision — `Int8`
/// compiles the quantized inference path ([`QuantizedStudent`]).
pub fn student_plan_spec_with_precision(precision: Precision) -> PlanSpec {
    PlanSpec {
        input_label: "x".to_string(),
        col_mean_leaves: vec!["student.revin.mu".to_string()],
        col_std_leaves: vec![("student.revin.std".to_string(), 1e-5)],
        aux_labels: Vec::new(),
        precision,
    }
}

/// Aux feed slot of the teacher attention `A_PE` in objective plans.
pub const AUX_TEACHER_ATT: usize = 0;
/// Aux feed slot of the teacher embedding `E_GT` in objective plans.
pub const AUX_TEACHER_EMB: usize = 1;

/// The plan spec for the *full* student objective graph
/// ([`trace_student_objective`]): like [`student_plan_spec`], plus the
/// teacher's privileged products as per-window auxiliary constants. The
/// slot order here fixes [`AUX_TEACHER_ATT`] / [`AUX_TEACHER_EMB`];
/// configurations whose ablation drops an arm simply leave that slot
/// empty (`aux_len == 0`).
pub fn student_objective_spec() -> PlanSpec {
    PlanSpec {
        aux_labels: vec![TEACHER_ATT_LABEL.to_string(), TEACHER_EMB_LABEL.to_string()],
        ..student_plan_spec()
    }
}

// ---------------------------------------------------------------------------
// Compiled-plan cache
// ---------------------------------------------------------------------------

const KIND_FORECAST: u64 = 1;
const KIND_TRAIN_FORECAST_LOSS: u64 = 2;
const KIND_TRAIN_OBJECTIVE: u64 = 3;

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

/// Everything that shapes a compiled student graph for `config` at this
/// geometry: plan kind, sizes, encoder architecture, and ablation bits.
/// Loss weights and optimizer hyper-parameters are appended by the
/// training-plan key builders (they are baked into plan steps).
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

fn push_optimizer(key: &mut Vec<u64>, optimizer: &PlanOptimizer) {
    match *optimizer {
        PlanOptimizer::Sgd { lr } => {
            key.push(1);
            push_f32(key, lr);
        }
        PlanOptimizer::AdamW {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
        } => {
            key.push(2);
            for v in [lr, beta1, beta2, eps, weight_decay] {
                push_f32(key, v);
            }
        }
    }
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

/// Traces the student forecast graph for this geometry and compiles it
/// into a static plan.
pub fn compile_student_plan(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<Plan, PlanError> {
    let (_ctx, forecast) =
        trace_student_forecast(config, input_len, horizon, num_vars).map_err(|e| PlanError {
            message: format!("student trace failed: {e}"),
        })?;
    let mut key = plan_key_base(KIND_FORECAST, config, input_len, horizon, num_vars);
    key.push(0); // Precision::F32
    cached_plan(key, || Plan::compile(&forecast, &student_plan_spec()))
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

/// Compiles the forecast plan for `student`'s geometry at the given
/// precision and binds the student's parameters to an executor.
///
/// Binding zips the symbolic trace's parameter registration order with
/// [`Module::params`] order (the module mirrors register in lockstep),
/// cross-checking label-by-label that every shape agrees.
fn bind_student_forecast(
    student: &Student,
    config: &TimeKdConfig,
    precision: Precision,
) -> Result<(Plan, PlanExecutor), PlanError> {
    let (ctx, forecast) = trace_student_forecast(
        config,
        student.input_len(),
        student.horizon(),
        student.num_vars(),
    )
    .map_err(|e| PlanError {
        message: format!("student trace failed: {e}"),
    })?;
    let mut key = plan_key_base(
        KIND_FORECAST,
        config,
        student.input_len(),
        student.horizon(),
        student.num_vars(),
    );
    key.push(match precision {
        Precision::F32 => 0,
        Precision::Int8 => 1,
    });
    let plan = cached_plan(key, || {
        Plan::compile(&forecast, &student_plan_spec_with_precision(precision))
    })?;

    let sym_params = ctx.params();
    let real_params = student.params();
    if sym_params.len() != real_params.len() {
        return Err(PlanError {
            message: format!(
                "parameter count mismatch: trace has {}, student has {}",
                sym_params.len(),
                real_params.len()
            ),
        });
    }
    let mut by_label: HashMap<String, Tensor> = HashMap::with_capacity(real_params.len());
    for (sym, real) in sym_params.iter().zip(&real_params) {
        if sym.sizes() != real.dims() {
            return Err(PlanError {
                message: format!(
                    "parameter `{}` shape mismatch: trace {:?}, student {:?}",
                    sym.label(),
                    sym.sizes(),
                    real.dims()
                ),
            });
        }
        by_label.insert(sym.label().to_string(), real.clone());
    }

    let executor = PlanExecutor::new(&plan, |label, dims| {
        by_label
            .get(label)
            .filter(|t| t.dims() == dims)
            .map(|t| t.data().clone())
    })?;
    Ok((plan, executor))
}

impl PlannedStudent {
    /// Compiles the plan for `student`'s geometry and binds its parameters
    /// (see [`bind_student_forecast`] for the binding contract).
    pub fn new(student: &Student, config: &TimeKdConfig) -> Result<PlannedStudent, PlanError> {
        let (plan, executor) = bind_student_forecast(student, config, Precision::F32)?;
        Ok(PlannedStudent {
            plan,
            executor,
            input_len: student.input_len(),
            horizon: student.horizon(),
            num_vars: student.num_vars(),
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

    /// Resident parameter bytes of the bound executor.
    pub fn param_bytes(&self) -> usize {
        self.executor.param_bytes()
    }
}

/// A [`Student`] whose predict path runs the compiled plan with int8
/// weight matmuls: every projection weight that feeds a `Matmul2d` step is
/// quantized once at bind time (per-output-column absmax scales),
/// activations are row-quantized on the fly into executor scratch, and
/// products accumulate in exact i32 before dequantizing at the activation
/// boundary. Attention, RevIN, and element-wise ops stay f32.
///
/// Forecasts are approximate — the quantized-vs-f32 MSE delta is gated in
/// `timekd-bench` — but remain bitwise deterministic at any
/// `TIMEKD_THREADS` setting: the integer accumulation is order-free, and
/// the residual f32 steps keep the workspace's one pinned reduction order.
#[derive(Debug)]
pub struct QuantizedStudent {
    plan: Plan,
    executor: PlanExecutor,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
}

impl QuantizedStudent {
    /// Compiles the int8-precision plan for `student`'s geometry and binds
    /// (quantizing) its parameters.
    pub fn new(student: &Student, config: &TimeKdConfig) -> Result<QuantizedStudent, PlanError> {
        let (plan, executor) = bind_student_forecast(student, config, Precision::Int8)?;
        Ok(QuantizedStudent {
            plan,
            executor,
            input_len: student.input_len(),
            horizon: student.horizon(),
            num_vars: student.num_vars(),
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

    /// Resident parameter bytes after bind-time quantization: int8 codes +
    /// scales for the quantized weights, f32 for everything else (biases,
    /// norm gains). Compare with [`PlannedStudent::param_bytes`].
    pub fn param_bytes(&self) -> usize {
        self.executor.param_bytes()
    }

    /// Predicts into a caller-provided `[horizon * num_vars]` buffer with
    /// zero allocation and zero graph construction.
    pub fn predict_into(&mut self, x: &Tensor, out: &mut [f32]) {
        assert_eq!(
            x.dims(),
            &[self.input_len, self.num_vars],
            "quantized student input shape"
        );
        self.executor.run(&x.data(), out);
    }

    /// Convenience wrapper returning a `[horizon, num_vars]` tensor.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        timekd_tensor::no_grad(|| {
            let mut out = vec![0.0f32; self.horizon * self.num_vars];
            self.predict_into(x, &mut out);
            Tensor::from_vec(out, [self.horizon, self.num_vars])
        })
    }
}

/// The train spec for the student loss graph: the horizon window is the
/// per-step target leaf (`y` in `trace_student_loss`).
pub fn student_train_spec(optimizer: PlanOptimizer) -> TrainSpec {
    TrainSpec::new("y", optimizer)
}

/// Traces the student forecasting loss for this geometry and compiles the
/// full training plan — forward, reverse schedule, fused optimizer.
pub fn compile_student_training_plan(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    optimizer: PlanOptimizer,
) -> Result<Plan, PlanError> {
    let (_ctx, loss) =
        trace_student_loss(config, input_len, horizon, num_vars).map_err(|e| PlanError {
            message: format!("student loss trace failed: {e}"),
        })?;
    let mut key = plan_key_base(
        KIND_TRAIN_FORECAST_LOSS,
        config,
        input_len,
        horizon,
        num_vars,
    );
    push_optimizer(&mut key, &optimizer);
    cached_plan(key, || {
        Plan::compile_training(&loss, &student_plan_spec(), &student_train_spec(optimizer))
    })
}

/// [`compile_student_training_plan`] lowered once more into a batched
/// multi-window plan: `batch` per-window gradient lanes plus the pinned
/// cross-window reduction schedule (see
/// [`Plan::compile_training_batched`]). Cached like every other compile.
pub fn compile_student_training_plan_batched(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    optimizer: PlanOptimizer,
    batch: usize,
) -> Result<Plan, PlanError> {
    let (_ctx, loss) =
        trace_student_loss(config, input_len, horizon, num_vars).map_err(|e| PlanError {
            message: format!("student loss trace failed: {e}"),
        })?;
    let mut key = plan_key_base(
        KIND_TRAIN_FORECAST_LOSS,
        config,
        input_len,
        horizon,
        num_vars,
    );
    push_optimizer(&mut key, &optimizer);
    key.push(batch as u64);
    cached_plan(key, || {
        Plan::compile_training_batched(
            &loss,
            &student_plan_spec(),
            &student_train_spec(optimizer),
            batch,
        )
    })
}

/// A [`Student`] training loop whose every step — forward, backward, and
/// optimizer update — replays a compiled training [`Plan`] with zero graph
/// construction and zero heap allocation.
///
/// Because the training executor runs the same serial row-block kernels
/// the dynamic engine partitions across the worker pool, and the fused
/// optimizer updates restate the dynamic optimizers verbatim, parameters
/// after any number of [`PlannedTrainer::planned_train_step`] calls are
/// **bitwise identical** to dynamic [`Student`] training at any
/// `TIMEKD_THREADS` setting.
#[derive(Debug)]
pub struct PlannedTrainer {
    plan: Plan,
    executor: TrainExecutor,
    /// Parameter labels in executor binding order (plan value order).
    param_labels: Vec<String>,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
}

impl PlannedTrainer {
    /// Compiles the training plan for `student`'s geometry and binds its
    /// current parameter values (copied — the live student is untouched).
    pub fn new(
        student: &Student,
        config: &TimeKdConfig,
        optimizer: PlanOptimizer,
    ) -> Result<PlannedTrainer, PlanError> {
        let (ctx, loss) = trace_student_loss(
            config,
            student.input_len(),
            student.horizon(),
            student.num_vars(),
        )
        .map_err(|e| PlanError {
            message: format!("student loss trace failed: {e}"),
        })?;
        let mut key = plan_key_base(
            KIND_TRAIN_FORECAST_LOSS,
            config,
            student.input_len(),
            student.horizon(),
            student.num_vars(),
        );
        push_optimizer(&mut key, &optimizer);
        let plan = cached_plan(key, || {
            Plan::compile_training(&loss, &student_plan_spec(), &student_train_spec(optimizer))
        })?;

        let sym_params = ctx.params();
        let real_params = student.params();
        if sym_params.len() != real_params.len() {
            return Err(PlanError {
                message: format!(
                    "parameter count mismatch: trace has {}, student has {}",
                    sym_params.len(),
                    real_params.len()
                ),
            });
        }
        let mut by_label: HashMap<String, Tensor> = HashMap::with_capacity(real_params.len());
        for (sym, real) in sym_params.iter().zip(&real_params) {
            if sym.sizes() != real.dims() {
                return Err(PlanError {
                    message: format!(
                        "parameter `{}` shape mismatch: trace {:?}, student {:?}",
                        sym.label(),
                        sym.sizes(),
                        real.dims()
                    ),
                });
            }
            by_label.insert(sym.label().to_string(), real.clone());
        }

        let executor = TrainExecutor::new(&plan, |label, dims| {
            by_label
                .get(label)
                .filter(|t| t.dims() == dims)
                .map(|t| t.data().clone())
        })?;
        let param_labels: Vec<String> = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.clone())
            .collect();

        Ok(PlannedTrainer {
            plan,
            executor,
            param_labels,
            input_len: student.input_len(),
            horizon: student.horizon(),
            num_vars: student.num_vars(),
        })
    }

    /// The compiled training plan (for inspection and verification).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Labels of the bound parameters, in binding order.
    pub fn param_labels(&self) -> &[String] {
        &self.param_labels
    }

    /// Current data of the parameter named `label`, if bound.
    pub fn param_data(&self, label: &str) -> Option<&[f32]> {
        let idx = self.param_labels.iter().position(|l| l == label)?;
        Some(self.executor.param_data(idx))
    }

    /// Runs one full training step on a `[L, N]` history window and its
    /// `[M, N]` horizon target, returning the loss. No graph is built and
    /// no heap allocation happens.
    pub fn planned_train_step(&mut self, x: &Tensor, y: &Tensor) -> f32 {
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
        self.executor.run_train_step(&x.data(), &y.data())
    }
}

/// The full student objective (PKD + forecasting, Alg. 2) compiled once
/// into a *batched* multi-window training plan and bound to a live
/// [`Student`]'s parameters.
///
/// One [`run_batch`](PlannedBatchTrainer::run_batch) call replays up to
/// `batch` staged windows — data-parallel across the worker pool, one
/// private gradient lane per window — folds every extra lane's gradients
/// into lane 0 in the pinned ascending window order, clips, and applies
/// one fused optimizer step. The reduction order is keyed by window index,
/// never thread id, so results are bitwise identical to the serial
/// replay-and-accumulate loop at any `TIMEKD_THREADS` setting, and
/// `batch == 1` degenerates bitwise to the per-window path.
#[derive(Debug)]
pub struct PlannedBatchTrainer {
    plan: Plan,
    executor: BatchTrainExecutor,
    /// Parameter labels in executor binding order (plan value order).
    param_labels: Vec<String>,
    /// The student's parameter tensors in executor binding order, kept so
    /// [`write_back`](PlannedBatchTrainer::write_back) can publish trained
    /// values into the live model.
    bound_params: Vec<Tensor>,
    /// Arena ranges of the pinned per-component loss scalars.
    correlation: Option<(usize, usize)>,
    feature: Option<(usize, usize)>,
    forecast: (usize, usize),
    input_len: usize,
    horizon: usize,
    num_vars: usize,
}

impl PlannedBatchTrainer {
    /// Compiles (or fetches from the plan cache) the batched objective
    /// plan for `student`'s geometry and binds its current parameter
    /// values. Gradient clipping and the per-component loss pins mirror
    /// the dynamic `TimeKd::train_student_epoch_dynamic` loop exactly.
    pub fn new(
        student: &Student,
        config: &TimeKdConfig,
        optimizer: PlanOptimizer,
        batch: usize,
    ) -> Result<PlannedBatchTrainer, PlanError> {
        let trace = trace_student_objective(
            config,
            student.input_len(),
            student.horizon(),
            student.num_vars(),
        )
        .map_err(|e| PlanError {
            message: format!("student objective trace failed: {e}"),
        })?;
        let sym_params = trace.ctx.params();
        let real_params = student.params();
        if sym_params.len() != real_params.len() {
            return Err(PlanError {
                message: format!(
                    "parameter count mismatch: trace has {}, student has {}",
                    sym_params.len(),
                    real_params.len()
                ),
            });
        }
        let mut by_label: HashMap<String, Tensor> = HashMap::with_capacity(real_params.len());
        for (sym, real) in sym_params.iter().zip(&real_params) {
            if sym.sizes() != real.dims() {
                return Err(PlanError {
                    message: format!(
                        "parameter `{}` shape mismatch: trace {:?}, student {:?}",
                        sym.label(),
                        sym.sizes(),
                        real.dims()
                    ),
                });
            }
            by_label.insert(sym.label().to_string(), real.clone());
        }

        let mut train = TrainSpec::new("y", optimizer);
        train.grad_clip = Some(config.grad_clip);
        train.clip_param_order = sym_params.iter().map(|p| p.label().to_string()).collect();
        train.pinned = [
            trace.correlation.as_ref(),
            trace.feature.as_ref(),
            Some(&trace.forecast),
        ]
        .into_iter()
        .flatten()
        .map(|t| t.id())
        .collect();

        let mut key = plan_key_base(
            KIND_TRAIN_OBJECTIVE,
            config,
            student.input_len(),
            student.horizon(),
            student.num_vars(),
        );
        for v in [
            config.lambda_cd,
            config.lambda_fd,
            config.lambda_pkd,
            config.lambda_fcst,
            config.grad_clip,
        ] {
            push_f32(&mut key, v);
        }
        push_optimizer(&mut key, &optimizer);
        key.push(batch as u64);
        let plan = cached_plan(key, || {
            Plan::compile_training_batched(&trace.loss, &student_objective_spec(), &train, batch)
        })?;

        let executor = BatchTrainExecutor::new(&plan, |label, dims| {
            by_label
                .get(label)
                .filter(|t| t.dims() == dims)
                .map(|t| t.data().clone())
        })?;
        let param_labels: Vec<String> = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.clone())
            .collect();
        let bound_params: Vec<Tensor> = param_labels
            .iter()
            .map(|label| by_label[label].clone())
            .collect();

        let range_of = |t: Option<&timekd_tensor::SymbolicTensor>| {
            t.and_then(|t| plan.value_for_sym(t.id()))
                .and_then(|vid| plan.arena_range(vid))
        };
        let correlation = range_of(trace.correlation.as_ref());
        let feature = range_of(trace.feature.as_ref());
        if trace.correlation.is_some() && correlation.is_none()
            || trace.feature.is_some() && feature.is_none()
        {
            return Err(PlanError {
                message: "pinned distillation loss has no arena slot".to_string(),
            });
        }
        let forecast = range_of(Some(&trace.forecast)).ok_or_else(|| PlanError {
            message: "pinned forecasting loss has no arena slot".to_string(),
        })?;

        Ok(PlannedBatchTrainer {
            plan,
            executor,
            param_labels,
            bound_params,
            correlation,
            feature,
            forecast,
            input_len: student.input_len(),
            horizon: student.horizon(),
            num_vars: student.num_vars(),
        })
    }

    /// The compiled batched training plan (for inspection/verification).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Window capacity `B` of one batch.
    pub fn batch(&self) -> usize {
        self.executor.batch()
    }

    /// Labels of the bound parameters, in binding order.
    pub fn param_labels(&self) -> &[String] {
        &self.param_labels
    }

    /// Current data of the parameter named `label`, if bound.
    pub fn param_data(&self, label: &str) -> Option<&[f32]> {
        let idx = self.param_labels.iter().position(|l| l == label)?;
        Some(self.executor.param_data(idx))
    }

    /// Stages window `w`'s `[L, N]` history and `[M, N]` target for the
    /// next [`run_batch`](PlannedBatchTrainer::run_batch).
    pub fn stage_window(&mut self, w: usize, x: &Tensor, y: &Tensor) {
        assert_eq!(
            x.dims(),
            &[self.input_len, self.num_vars],
            "batched trainer input shape"
        );
        assert_eq!(
            y.dims(),
            &[self.horizon, self.num_vars],
            "batched trainer target shape"
        );
        self.executor.stage_window(w, &x.data(), &y.data());
    }

    /// Stages the teacher's privileged products for window `w`. Slots an
    /// ablation dropped from the graph are skipped (their aux length is
    /// zero).
    pub fn stage_teacher(&mut self, w: usize, attention: &Tensor, embedding: &Tensor) {
        if self.executor.aux_len(AUX_TEACHER_ATT) > 0 {
            self.executor
                .stage_aux(w, AUX_TEACHER_ATT, &attention.data());
        }
        if self.executor.aux_len(AUX_TEACHER_EMB) > 0 {
            self.executor
                .stage_aux(w, AUX_TEACHER_EMB, &embedding.data());
        }
    }

    /// Updates the fused optimizer's learning rate (LR schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.executor.set_lr(lr);
    }

    /// Aligns the fused optimizer's step counter (AdamW bias correction)
    /// with an external clock — the trainer's shared dynamic optimizer.
    pub fn set_step_count(&mut self, n: u64) {
        self.executor.set_step_count(n);
    }

    /// Replays the first `count` staged windows, reduces, clips, and
    /// applies one fused optimizer step.
    pub fn run_batch(&mut self, count: usize) {
        self.executor.run_batch(count);
    }

    fn lane_component(&self, w: usize, range: Option<(usize, usize)>) -> f32 {
        match range {
            Some((off, len)) => self.executor.lane_value(w, off, len)[0],
            None => 0.0,
        }
    }

    /// Window `w`'s total loss from the last batch.
    pub fn lane_total(&self, w: usize) -> f32 {
        self.executor.lane_loss(w)
    }

    /// Window `w`'s correlation distillation loss `L_cd` (0 when ablated).
    pub fn lane_correlation(&self, w: usize) -> f32 {
        self.lane_component(w, self.correlation)
    }

    /// Window `w`'s feature distillation loss `L_fd` (0 when ablated).
    pub fn lane_feature(&self, w: usize) -> f32 {
        self.lane_component(w, self.feature)
    }

    /// Window `w`'s forecasting loss `L_fcst`.
    pub fn lane_forecast(&self, w: usize) -> f32 {
        self.lane_component(w, Some(self.forecast))
    }

    /// Copies the executor's current parameter values back into the bound
    /// student tensors (the same handles the constructor was given), so
    /// the live model observes the training.
    pub fn write_back(&self) {
        for (i, p) in self.bound_params.iter().enumerate() {
            let data = self.executor.param_data(i);
            p.update_data(|d| d.copy_from_slice(data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::{parallel, seeded_rng};

    fn small_config() -> TimeKdConfig {
        TimeKdConfig {
            dim: 16,
            num_heads: 2,
            num_layers: 2,
            ffn_hidden: 32,
            ..Default::default()
        }
    }

    #[test]
    fn planned_predict_is_bitwise_identical_to_dynamic() {
        let config = small_config();
        let (input_len, horizon, num_vars) = (24, 8, 5);
        let mut rng = seeded_rng(7);
        let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
        let mut planned = PlannedStudent::new(&student, &config).unwrap();

        let x = Tensor::randn([input_len, num_vars], 1.0, &mut rng);
        let dynamic = student.predict(&x).to_vec();
        // The dynamic engine saves RevIN stats during predict; run the
        // plan afterwards so any (unwanted) state coupling would surface.
        for threads in [1, 2, 5] {
            let planned_out = parallel::with_threads(threads, || planned.predict(&x).to_vec());
            assert_eq!(
                planned_out, dynamic,
                "planned forecast must be bitwise identical at {threads} threads"
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

    fn windows(
        n: usize,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> Vec<(Tensor, Tensor)> {
        let mut rng = seeded_rng(23);
        (0..n)
            .map(|_| {
                (
                    Tensor::randn([input_len, num_vars], 1.0, &mut rng),
                    Tensor::randn([horizon, num_vars], 1.0, &mut rng),
                )
            })
            .collect()
    }

    /// Dynamic reference: the exact `Student` training idiom, returning
    /// every parameter keyed by its symbolic label.
    fn dynamic_train(
        config: &TimeKdConfig,
        data: &[(Tensor, Tensor)],
        sgd_lr: Option<f32>,
    ) -> (HashMap<String, Vec<f32>>, f32) {
        let (input_len, num_vars) = (data[0].0.dims()[0], data[0].0.dims()[1]);
        let horizon = data[0].1.dims()[0];
        let mut rng = seeded_rng(7);
        let student = Student::new(config, input_len, horizon, num_vars, &mut rng);
        let params = student.params();
        let mut adamw = timekd_nn::AdamW::new(0.01, timekd_nn::AdamWConfig::default());
        let sgd = sgd_lr.map(timekd_nn::Sgd::new);
        let mut last = 0.0;
        for (x, y) in data {
            student.zero_grad();
            let out = student.forward(x);
            let loss = timekd_nn::smooth_l1_loss(&out.forecast, y);
            last = loss.item();
            loss.backward();
            match &sgd {
                Some(s) => s.step(&params),
                None => adamw.step(&params),
            }
        }
        let (ctx, _) = trace_student_loss(config, input_len, horizon, num_vars).unwrap();
        let by_label = ctx
            .params()
            .iter()
            .zip(&params)
            .map(|(sym, real)| (sym.label().to_string(), real.to_vec()))
            .collect();
        (by_label, last)
    }

    fn assert_planned_matches_dynamic(optimizer: PlanOptimizer, sgd_lr: Option<f32>) {
        let config = small_config();
        let (input_len, horizon, num_vars) = (24, 8, 5);
        let data = windows(3, input_len, horizon, num_vars);
        let (dynamic_params, dynamic_loss) = dynamic_train(&config, &data, sgd_lr);
        for threads in [1, 2, 5] {
            let mut rng = seeded_rng(7);
            let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
            let mut trainer = PlannedTrainer::new(&student, &config, optimizer).unwrap();
            let mut last = 0.0;
            parallel::with_threads(threads, || {
                for (x, y) in &data {
                    last = trainer.planned_train_step(x, y);
                }
            });
            assert_eq!(
                last.to_bits(),
                dynamic_loss.to_bits(),
                "loss diverges at {threads} threads"
            );
            for label in trainer.param_labels().to_vec() {
                let planned = trainer.param_data(&label).unwrap();
                let dynamic = dynamic_params
                    .get(&label)
                    .unwrap_or_else(|| panic!("dynamic student has no param `{label}`"));
                assert_eq!(
                    planned,
                    &dynamic[..],
                    "param `{label}` diverges at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn planned_sgd_training_is_bitwise_identical_to_dynamic() {
        assert_planned_matches_dynamic(PlanOptimizer::Sgd { lr: 0.05 }, Some(0.05));
    }

    #[test]
    fn planned_adamw_training_is_bitwise_identical_to_dynamic() {
        assert_planned_matches_dynamic(
            PlanOptimizer::AdamW {
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: 0.01,
            },
            None,
        );
    }

    #[test]
    fn training_plan_covers_every_student_parameter() {
        let config = small_config();
        let plan = compile_student_training_plan(&config, 24, 8, 5, PlanOptimizer::Sgd { lr: 0.1 })
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
    }

    #[test]
    fn quantized_student_tracks_f32_and_shrinks_params() {
        let config = small_config();
        let (input_len, horizon, num_vars) = (24, 8, 5);
        let mut rng = seeded_rng(7);
        let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
        let mut planned = PlannedStudent::new(&student, &config).unwrap();
        let mut quant = QuantizedStudent::new(&student, &config).unwrap();

        // The int8 executor replaces f32 weight copies with codes+scales:
        // the resident parameter footprint must shrink substantially.
        assert!(
            quant.param_bytes() < planned.param_bytes() / 2,
            "quantized params {} vs f32 {}",
            quant.param_bytes(),
            planned.param_bytes()
        );

        let x = Tensor::randn([input_len, num_vars], 1.0, &mut rng);
        let exact = planned.predict(&x);
        let approx = quant.predict(&x);
        let mse = exact
            .to_vec()
            .iter()
            .zip(approx.to_vec())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / exact.to_vec().len() as f32;
        // Untrained-student outputs are O(1); int8 weight+activation
        // quantization should stay well inside this bound.
        assert!(mse < 1e-2, "quantized forecast drifted: mse {mse}");
        assert!(mse.is_finite());
    }

    #[test]
    fn quantized_student_is_deterministic_across_threads() {
        let config = small_config();
        let (input_len, horizon, num_vars) = (24, 8, 5);
        let mut rng = seeded_rng(13);
        let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
        let x = Tensor::randn([input_len, num_vars], 1.0, &mut rng);
        // The quantized matmuls are order-free (i32 accumulation); the
        // remaining f32 steps (attention, RevIN) have one pinned order. So
        // forecasts are bitwise stable across threads.
        let predict = || {
            QuantizedStudent::new(&student, &config)
                .unwrap()
                .predict(&x)
                .to_vec()
        };
        let base = predict();
        for threads in [1, 2, 5] {
            let out = parallel::with_threads(threads, predict);
            assert_eq!(
                out, base,
                "quantized forecast diverges at threads={threads}"
            );
        }
    }

    #[test]
    fn train_executor_rejects_int8_plans() {
        let config = small_config();
        let (_ctx, loss) = trace_student_loss(&config, 24, 8, 5).unwrap();
        let plan = Plan::compile_training(
            &loss,
            &student_plan_spec_with_precision(Precision::Int8),
            &student_train_spec(PlanOptimizer::Sgd { lr: 0.1 }),
        )
        .unwrap();
        let err = TrainExecutor::new(&plan, |_, _| None).unwrap_err();
        assert!(
            err.to_string().contains("inference-only"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn plan_cache_compiles_once_per_distinct_key() {
        // The cache is thread-local, so this test observes only its own
        // compiles; work with deltas to stay robust if the harness ever
        // reuses threads.
        reset_plan_cache();
        let config = small_config();
        let mut rng = seeded_rng(7);
        let student = Student::new(&config, 24, 8, 5, &mut rng);
        let opt = PlanOptimizer::Sgd { lr: 0.05 };
        let (h0, m0) = plan_cache_stats();

        let _a = PlannedTrainer::new(&student, &config, opt).unwrap();
        assert_eq!(plan_cache_stats(), (h0, m0 + 1), "first build must compile");
        let _b = PlannedTrainer::new(&student, &config, opt).unwrap();
        assert_eq!(
            plan_cache_stats(),
            (h0 + 1, m0 + 1),
            "identical geometry+optimizer must reuse the compiled plan"
        );
        // A different hyper-parameter is a different plan (fused update
        // constants are baked in), so it must miss.
        let _c = PlannedTrainer::new(&student, &config, PlanOptimizer::Sgd { lr: 0.1 }).unwrap();
        assert_eq!(plan_cache_stats(), (h0 + 1, m0 + 2));
        reset_plan_cache();
    }

    #[test]
    fn batch_trainer_reuses_cached_plan_across_rebuilds() {
        reset_plan_cache();
        let config = small_config();
        let mut rng = seeded_rng(7);
        let student = Student::new(&config, 24, 8, 5, &mut rng);
        let opt = PlanOptimizer::AdamW {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        };
        let (h0, m0) = plan_cache_stats();
        let _a = PlannedBatchTrainer::new(&student, &config, opt, 4).unwrap();
        let _b = PlannedBatchTrainer::new(&student, &config, opt, 4).unwrap();
        let (h1, m1) = plan_cache_stats();
        assert_eq!(
            (h1 - h0, m1 - m0),
            (1, 1),
            "epoch-over-epoch rebuild must not recompile the objective plan"
        );
        // A different batch changes the lowered schedule, so it misses.
        let _c = PlannedBatchTrainer::new(&student, &config, opt, 2).unwrap();
        let (h2, m2) = plan_cache_stats();
        assert_eq!((h2 - h0, m2 - m0), (1, 2));
        reset_plan_cache();
    }

    #[test]
    fn batched_training_plan_has_reduction_and_lane_metadata() {
        let config = small_config();
        let batch = 4;
        let plan = compile_student_training_plan_batched(
            &config,
            24,
            8,
            5,
            PlanOptimizer::Sgd { lr: 0.1 },
            batch,
        )
        .unwrap();
        assert_eq!(plan.batch(), batch);
        let params = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .count();
        // Every parameter gradient gets (batch - 1) lane reductions and
        // exactly one fused update per batch.
        assert_eq!(plan.reduce_steps().len(), params * (batch - 1));
        assert_eq!(plan.update_steps().len(), params);
    }

    #[test]
    fn plan_has_no_unlowered_ops_and_reuses_arena() {
        let config = small_config();
        let plan = compile_student_plan(&config, 24, 8, 5).unwrap();
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
