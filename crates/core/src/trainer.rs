//! TimeKD end-to-end: teacher + student + PKD, jointly optimised per
//! Eq. 30 and Algorithms 1–2.

use std::rc::Rc;

use timekd_data::{ForecastWindow, MetricAccumulator, WindowPrompts};
use timekd_lm::{pretrain_lm, FrozenLm, PretrainConfig, PromptTokenizer};
use timekd_nn::{clip_grad_norm, AdamW, AdamWConfig, Module};
use timekd_tensor::{seeded_rng, PlanOptimizer, Tensor};

use crate::config::TimeKdConfig;
use crate::distill::{reconstruction_objective, student_objective};
use crate::forecaster::Forecaster;
use crate::plan::{PlannedBatchTrainer, PlannedStudent};
use crate::student::Student;
use crate::teacher::{render_prompts, CrossModalityTeacher};

/// Loss breakdown of one training epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Mean total loss (Eq. 30).
    pub total: f32,
    /// Mean reconstruction loss `L_recon`.
    pub reconstruction: f32,
    /// Mean correlation distillation loss `L_cd`.
    pub correlation: f32,
    /// Mean feature distillation loss `L_fd`.
    pub feature: f32,
    /// Mean forecasting loss `L_fcst`.
    pub forecast: f32,
}

/// The AdamW every TimeKD training loop steps: default moments, decoupled
/// weight decay disabled.
fn adamw_config() -> AdamWConfig {
    AdamWConfig {
        weight_decay: 0.0,
        ..Default::default()
    }
}

/// The dynamic optimizer [`TimeKd`] trains with, at `config.lr`.
pub fn trainer_adamw(config: &TimeKdConfig) -> AdamW {
    AdamW::new(config.lr, adamw_config())
}

/// The fused optimizer compiled into the student objective plan: the
/// trainer's AdamW ([`trainer_adamw`]) at `config.lr`, so planned and
/// dynamic student steps agree bit for bit.
pub fn student_plan_optimizer(config: &TimeKdConfig) -> PlanOptimizer {
    let c = adamw_config();
    PlanOptimizer::AdamW {
        lr: config.lr,
        beta1: c.beta1,
        beta2: c.beta2,
        eps: c.eps,
        weight_decay: c.weight_decay,
    }
}

/// The full TimeKD model: a cross-modality teacher distilled into a
/// lightweight student. Construct with [`TimeKd::new`] (pretrains a fresh
/// CLM) or [`TimeKd::with_frozen_lm`] (shares one across models — the
/// pattern the experiment harness uses).
pub struct TimeKd {
    config: TimeKdConfig,
    tokenizer: Rc<PromptTokenizer>,
    teacher: CrossModalityTeacher,
    student: Student,
    optimizer: AdamW,
    warmup_done: bool,
    /// The planned student trainer, built lazily on the first
    /// student epoch and reused for every following one (it owns the
    /// fused AdamW moment state, so it must survive across epochs).
    planned: Option<PlannedBatchTrainer>,
}

impl TimeKd {
    /// Builds TimeKD with an internally pretrained CLM.
    pub fn new(config: TimeKdConfig, input_len: usize, horizon: usize, num_vars: usize) -> TimeKd {
        let tokenizer = Rc::new(PromptTokenizer::new());
        let (lm, _report) = pretrain_lm(
            &tokenizer,
            config.lm,
            PretrainConfig {
                seed: config.seed,
                ..Default::default()
            },
        );
        Self::with_frozen_lm(
            Rc::new(FrozenLm::new(lm)),
            tokenizer,
            config,
            input_len,
            horizon,
            num_vars,
        )
    }

    /// Builds TimeKD around an existing frozen language model.
    pub fn with_frozen_lm(
        frozen_lm: Rc<FrozenLm>,
        tokenizer: Rc<PromptTokenizer>,
        config: TimeKdConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> TimeKd {
        let mut rng = seeded_rng(config.seed);
        let teacher = CrossModalityTeacher::new(frozen_lm, config, input_len, horizon, &mut rng);
        let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
        let optimizer = trainer_adamw(&config);
        TimeKd {
            config,
            tokenizer,
            teacher,
            student,
            optimizer,
            warmup_done: false,
            planned: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TimeKdConfig {
        &self.config
    }

    /// The student (inference) model.
    pub fn student(&self) -> &Student {
        &self.student
    }

    /// The teacher model.
    pub fn teacher(&self) -> &CrossModalityTeacher {
        &self.teacher
    }

    /// The prompt tokenizer.
    pub fn tokenizer(&self) -> &PromptTokenizer {
        &self.tokenizer
    }

    fn prompts_for(&self, w: &ForecastWindow) -> WindowPrompts {
        render_prompts(&self.tokenizer, &w.x, &w.y, &self.config)
    }

    /// Applies the configured LR schedule for the upcoming optimizer step.
    fn apply_lr_schedule(&mut self) {
        let factor = self.config.lr_schedule.factor(self.optimizer.steps());
        self.optimizer.set_lr(self.config.lr * factor);
    }

    /// All trainable parameters (teacher heads + student; CLM excluded).
    pub fn trainable_params(&self) -> Vec<Tensor> {
        let mut v = self.teacher.params();
        v.extend(self.student.params());
        v
    }

    /// Frozen-parameter invariant (Eqs. 18–30): the calibrated LM must
    /// stay frozen while PKD trains the teacher heads and student —
    /// no backward pass may accumulate a gradient into an LM parameter,
    /// and the optimizer must never have stepped one.
    ///
    /// Called after every backward in the training loops; panics with the
    /// offending parameter's identity on violation.
    pub fn assert_frozen_lm_invariant(&self) {
        for p in self.teacher.frozen_lm().model().params() {
            assert!(
                !p.has_grad(),
                "frozen LM parameter #{} {} accumulated a gradient: the CLM must stay \
                 frozen during PKD training",
                p.id(),
                p.shape()
            );
            assert!(
                !self.optimizer.has_stepped(p.id()),
                "optimizer stepped frozen LM parameter #{} {}",
                p.id(),
                p.shape()
            );
        }
    }

    /// **Algorithm 1**: one pass training the cross-modality teacher on
    /// the reconstruction objective (Eq. 16). Returns the mean `L_recon`.
    pub fn train_teacher_epoch(&mut self, windows: &[ForecastWindow]) -> f32 {
        let _span = timekd_obs::span("epoch.teacher");
        assert!(!windows.is_empty(), "no training windows");
        let params = self.teacher.params();
        let mut total = 0.0f32;
        for w in windows {
            for p in &params {
                p.zero_grad();
            }
            let prompts = self.prompts_for(w);
            let out = self.teacher.forward(&w.x, &w.y, &prompts);
            let recon = reconstruction_objective(&out.reconstruction, &w.y, &self.config);
            total += recon.item();
            recon.backward();
            self.assert_frozen_lm_invariant();
            clip_grad_norm(&params, self.config.grad_clip);
            self.apply_lr_schedule();
            self.optimizer.step(&params);
        }
        total / windows.len() as f32
    }

    /// **Algorithm 2** + Eq. 29: one pass training the student on
    /// `λ_p·(λ_c·L_cd + λ_e·L_fd) + λ_f·L_fcst` against the (frozen for
    /// this pass) teacher's privileged outputs.
    ///
    /// Each window's step — forward, backward, clipping, fused AdamW —
    /// replays a compiled training plan ([`PlannedBatchTrainer`]), bitwise
    /// identical to the dynamic per-window loop
    /// ([`train_student_epoch_dynamic`](Self::train_student_epoch_dynamic)),
    /// which stays as the equivalence oracle.
    pub fn train_student_epoch(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let _span = timekd_obs::span("epoch.student");
        assert!(!windows.is_empty(), "no training windows");
        let mut trainer = match self.planned.take() {
            Some(t) => t,
            None => PlannedBatchTrainer::new(
                &self.student,
                &self.config,
                student_plan_optimizer(&self.config),
                1,
            )
            .unwrap_or_else(|e| panic!("student training plan: {e}")),
        };
        let mut agg = EpochStats {
            total: 0.0,
            reconstruction: 0.0,
            correlation: 0.0,
            feature: 0.0,
            forecast: 0.0,
        };
        for w in windows {
            let prompts = self.prompts_for(w);
            // Teacher provides targets only: no graph, no update.
            let t_out = timekd_tensor::no_grad(|| self.teacher.forward(&w.x, &w.y, &prompts));
            trainer.stage_window(0, &w.x, &w.y);
            {
                let _stage = timekd_obs::span("pkd.stage");
                trainer.stage_teacher(0, &t_out.attention, &t_out.embedding);
            }
            let lr = self.config.lr * self.config.lr_schedule.factor(self.optimizer.steps());
            self.optimizer.set_lr(lr);
            trainer.set_lr(lr);
            trainer.set_step_count(self.optimizer.steps());
            {
                let _batch = timekd_obs::span("plan.student_batch");
                trainer.run_batch(1);
            }
            self.optimizer.note_external_step();
            self.assert_frozen_lm_invariant();
            agg.total += trainer.total_loss();
            agg.correlation += trainer.correlation_loss();
            agg.feature += trainer.feature_loss();
            agg.forecast += trainer.forecast_loss();
        }
        trainer.write_back();
        self.planned = Some(trainer);
        let k = windows.len() as f32;
        agg.total /= k;
        agg.correlation /= k;
        agg.feature /= k;
        agg.forecast /= k;
        agg
    }

    /// The dynamic per-window reference implementation of
    /// [`train_student_epoch`](Self::train_student_epoch): one graph
    /// build, backward, clip, and optimizer step per window. Kept as the
    /// equivalence oracle for the planned path. Calling it invalidates
    /// any live planned trainer (its bound parameters would go stale), so
    /// use one path per model instance when comparing.
    pub fn train_student_epoch_dynamic(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let _span = timekd_obs::span("epoch.student");
        assert!(!windows.is_empty(), "no training windows");
        self.planned = None;
        let params = self.student.params();
        let mut agg = EpochStats {
            total: 0.0,
            reconstruction: 0.0,
            correlation: 0.0,
            feature: 0.0,
            forecast: 0.0,
        };
        for w in windows {
            for p in &params {
                p.zero_grad();
            }
            let prompts = self.prompts_for(w);
            // Teacher provides targets only: no graph, no teacher update.
            let teacher_out = timekd_tensor::no_grad(|| self.teacher.forward(&w.x, &w.y, &prompts));
            let obj = student_objective(
                &self.student,
                &self.config,
                &w.x,
                &w.y,
                &teacher_out.attention,
                &teacher_out.embedding,
            );
            agg.total += obj.total.item();
            agg.correlation += obj.correlation.item();
            agg.feature += obj.feature.item();
            agg.forecast += obj.forecast.item();
            obj.total.backward();
            self.assert_frozen_lm_invariant();
            clip_grad_norm(&params, self.config.grad_clip);
            self.apply_lr_schedule();
            self.optimizer.step(&params);
        }
        let k = windows.len() as f32;
        agg.total /= k;
        agg.correlation /= k;
        agg.feature /= k;
        agg.forecast /= k;
        agg
    }

    /// One full TimeKD epoch: teacher reconstruction pass (Alg. 1) then
    /// student distillation + forecasting pass (Alg. 2). Returns the loss
    /// breakdown with the teacher's reconstruction loss included.
    pub fn train_epoch_detailed(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let recon = if !self.warmup_done {
            // Algorithm 1: train the teacher to convergence once. Its
            // outputs are then *stored* privileged information (§IV-B2) —
            // a stationary distillation target for every student epoch.
            let mut last = f32::INFINITY;
            for _ in 0..self.config.teacher_warmup_epochs.max(1) {
                last = self.train_teacher_epoch(windows);
            }
            self.warmup_done = true;
            last
        } else {
            0.0
        };
        let mut stats = self.train_student_epoch(windows);
        stats.reconstruction = recon;
        stats.total += recon * self.config.lambda_recon;
        stats
    }

    /// Teacher vs student attention maps for one window (Fig. 8).
    pub fn attention_maps(&self, w: &ForecastWindow) -> (Tensor, Tensor) {
        timekd_tensor::no_grad(|| {
            let prompts = self.prompts_for(w);
            let t = self.teacher.forward(&w.x, &w.y, &prompts);
            let s = self.student.forward(&w.x);
            (t.attention, s.attention)
        })
    }

    /// Teacher vs student self-relation feature matrices `E·Eᵀ` (Fig. 9).
    pub fn feature_maps(&self, w: &ForecastWindow) -> (Tensor, Tensor) {
        timekd_tensor::no_grad(|| {
            let prompts = self.prompts_for(w);
            let t = self.teacher.forward(&w.x, &w.y, &prompts);
            let s = self.student.forward(&w.x);
            let tg = t.embedding.matmul(&t.embedding.transpose_last());
            let sg = s.embedding.matmul(&s.embedding.transpose_last());
            (tg, sg)
        })
    }
}

impl Forecaster for TimeKd {
    fn name(&self) -> String {
        self.config.ablation.label().to_string()
    }

    fn train_epoch(&mut self, windows: &[ForecastWindow]) -> f32 {
        self.train_epoch_detailed(windows).total
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        self.student.predict(x)
    }

    /// Scores every window through one [`PlannedStudent`] — the compiled
    /// forecast plan that serves — so the reported MSE/MAE come from the
    /// serving code. Its forecasts equal [`Student::predict`]'s bit for
    /// bit. Panics with the [`PlanError`](timekd_tensor::PlanError) when
    /// the student's geometry does not lower.
    fn evaluate(&self, windows: &[ForecastWindow]) -> (f32, f32) {
        assert!(!windows.is_empty(), "evaluate() called with no windows");
        let mut planned = PlannedStudent::new(&self.student, &self.config)
            .unwrap_or_else(|e| panic!("evaluate: the forecast plan does not lower: {e}"));
        let mut acc = MetricAccumulator::new();
        for w in windows {
            acc.update(&planned.predict(&w.x), &w.y);
        }
        (acc.mse(), acc.mae())
    }

    /// Counts what the paper counts: everything updated by
    /// backpropagation (teacher heads + student), excluding the frozen LM.
    fn num_trainable_params(&self) -> usize {
        self.trainable_params()
            .iter()
            .map(Tensor::num_elements)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_data::{DatasetKind, Split, SplitDataset};
    use timekd_lm::{LmConfig, LmSize};
    use timekd_nn::smooth_l1_loss;

    #[allow(clippy::field_reassign_with_default)]
    fn tiny_config() -> TimeKdConfig {
        let mut cfg = TimeKdConfig::default();
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        cfg.lm = LmConfig::for_size(LmSize::Small);
        cfg.prompt.max_history = 4;
        cfg.prompt.max_future = 4;
        cfg.lr = 3e-3;
        cfg
    }

    fn tiny_model() -> (TimeKd, SplitDataset) {
        model_with(tiny_config(), 24, 8)
    }

    /// A model with `cfg` over seeded ETTh1 windows of `input_len` →
    /// `horizon`, its CLM pretrained for three steps.
    fn model_with(cfg: TimeKdConfig, input_len: usize, horizon: usize) -> (TimeKd, SplitDataset) {
        let ds = SplitDataset::new(DatasetKind::EttH1, 600, 7, input_len, horizon);
        let tokenizer = Rc::new(PromptTokenizer::new());
        let (lm, _) = pretrain_lm(
            &tokenizer,
            cfg.lm,
            PretrainConfig {
                steps: 3,
                ..Default::default()
            },
        );
        let model = TimeKd::with_frozen_lm(
            Rc::new(FrozenLm::new(lm)),
            tokenizer,
            cfg,
            input_len,
            horizon,
            ds.num_vars(),
        );
        (model, ds)
    }

    #[test]
    fn planned_evaluate_reproduces_dynamic_predict_bitwise() {
        let (mut model, ds) = tiny_model();
        model.train_epoch(&ds.windows(Split::Train, 16));
        let test: Vec<_> = ds.windows(Split::Test, 8);
        let (mse, mae) = model.evaluate(&test);
        let mut acc = MetricAccumulator::new();
        for w in &test {
            acc.update(&model.predict(&w.x), &w.y);
        }
        assert_eq!(
            mse.to_bits(),
            acc.mse().to_bits(),
            "MSE {mse} vs {}",
            acc.mse()
        );
        assert_eq!(
            mae.to_bits(),
            acc.mae().to_bits(),
            "MAE {mae} vs {}",
            acc.mae()
        );
    }

    #[test]
    fn training_improves_validation() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let val: Vec<_> = ds.windows(Split::Val, 8);
        let (mse0, _) = model.evaluate(&val);
        for _ in 0..3 {
            model.train_epoch(&train);
        }
        let (mse1, _) = model.evaluate(&val);
        assert!(mse1 < mse0, "val MSE {mse0} -> {mse1}");
    }

    #[test]
    fn loss_breakdown_all_terms_active() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let stats = model.train_epoch_detailed(&train[..2.min(train.len())]);
        assert!(stats.reconstruction > 0.0);
        assert!(stats.correlation >= 0.0);
        assert!(stats.feature > 0.0);
        assert!(stats.forecast > 0.0);
        let expected = stats.reconstruction + stats.correlation + stats.feature + stats.forecast;
        // λ all 1.0 here, but the stats are averaged after stepping, so
        // just check total is in the right ballpark.
        assert!(stats.total > 0.0 && stats.total <= expected * 1.5);
    }

    #[test]
    fn clm_cache_populated_once() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let subset = &train[..3.min(train.len())];
        model.train_epoch(subset);
        let (_, misses1) = model.teacher().frozen_lm().cache_stats();
        model.train_epoch(subset);
        let (_, misses2) = model.teacher().frozen_lm().cache_stats();
        assert_eq!(misses1, misses2, "epoch 2 must be all cache hits");
    }

    #[test]
    fn attention_and_feature_maps_shapes() {
        let (model, ds) = tiny_model();
        let w = &ds.windows(Split::Test, 32)[0];
        let n = ds.num_vars();
        let (ta, sa) = model.attention_maps(w);
        assert_eq!(ta.dims(), &[n, n]);
        assert_eq!(sa.dims(), &[n, n]);
        let (tf, sf) = model.feature_maps(w);
        assert_eq!(tf.dims(), &[n, n]);
        assert_eq!(sf.dims(), &[n, n]);
    }

    #[test]
    fn predict_matches_student() {
        let (model, ds) = tiny_model();
        let w = &ds.windows(Split::Test, 32)[0];
        let a = model.predict(&w.x);
        let b = model.student().predict(&w.x);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn param_count_excludes_frozen_lm() {
        let (model, _ds) = tiny_model();
        let lm_params: usize = model.teacher().frozen_lm().model().num_params();
        let trainable = model.num_trainable_params();
        assert!(trainable > 0);
        // The trainable set must not include the LM (it is larger than the
        // teacher heads + student at these sizes).
        let all_teacher_student: usize = model
            .trainable_params()
            .iter()
            .map(Tensor::num_elements)
            .sum();
        assert_eq!(trainable, all_teacher_student);
        let _ = lm_params; // documented exclusion
    }

    #[test]
    fn lr_schedule_decays_learning_rate() {
        let (mut model, ds) = tiny_model();
        let mut cfg = *model.config();
        cfg.lr_schedule = timekd_nn::LrSchedule::WarmupCosine {
            warmup: 2,
            total: 10,
            min_factor: 0.01,
        };
        model.config = cfg;
        let train: Vec<_> = ds.windows(Split::Train, 64);
        model.train_epoch(&train[..3.min(train.len())]);
        // After many steps the live LR must sit well below the base LR.
        assert!(
            model.optimizer.lr() < cfg.lr * 0.5,
            "lr = {}",
            model.optimizer.lr()
        );
    }

    #[test]
    fn frozen_lm_invariant_holds_through_training() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        model.train_epoch(&train[..2.min(train.len())]);
        model.assert_frozen_lm_invariant();
    }

    #[test]
    #[should_panic(expected = "frozen LM parameter")]
    fn frozen_lm_invariant_trips_on_injected_grad() {
        let (model, _ds) = tiny_model();
        // Fault injection: pretend a backward pass leaked into the CLM.
        let p = &model.teacher().frozen_lm().model().params()[0];
        p.accumulate_grad(&vec![1.0; p.num_elements()]);
        model.assert_frozen_lm_invariant();
    }

    #[test]
    fn training_graph_audits_clean() {
        // A full student loss graph must satisfy every structural
        // invariant GraphAudit checks, and span all three model layers.
        let (model, ds) = tiny_model();
        let w = &ds.windows(Split::Train, 64)[0];
        let out = model.student().forward(&w.x);
        let loss = smooth_l1_loss(&out.forecast, &w.y);
        let audit = timekd_tensor::GraphAudit::run(&loss);
        assert!(audit.is_clean(), "{}", audit.report());
        assert!(audit.stats.params > 10, "{}", audit.report());
        assert!(audit.stats.max_depth > 5, "{}", audit.report());
    }

    fn epoch_bits(s: &EpochStats) -> [u32; 5] {
        [
            s.total.to_bits(),
            s.reconstruction.to_bits(),
            s.correlation.to_bits(),
            s.feature.to_bits(),
            s.forecast.to_bits(),
        ]
    }

    fn student_param_bits(model: &TimeKd) -> Vec<Vec<u32>> {
        model
            .student
            .params()
            .iter()
            .map(|p| p.to_vec().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn planned_student_epoch_is_bitwise_identical_to_dynamic() {
        // The planned path must reproduce the dynamic per-window loop bit
        // for bit — losses, per-component stats, and every student
        // parameter — at any thread count. Two inputs: the tiny config
        // over 5 windows, and the default student dims at 48×7 → 24×7
        // over 16 windows (a small CLM keeps it fast).
        let mut default_dims = tiny_config();
        default_dims.dim = 32;
        default_dims.num_heads = 4;
        default_dims.ffn_hidden = 64;
        let geometries = [(tiny_config(), (24, 8), 5), (default_dims, (48, 24), 16)];
        for (base, (input_len, horizon), num_windows) in geometries {
            let (mut reference, ds) = model_with(base, input_len, horizon);
            let train: Vec<_> = ds.windows(Split::Train, 16);
            assert!(train.len() >= num_windows, "{} windows", train.len());
            let subset = &train[..num_windows];
            let dyn_stats = reference.train_student_epoch_dynamic(subset);
            let dyn_params = student_param_bits(&reference);
            for threads in [1, 2, 5] {
                let (mut m, _) = model_with(base, input_len, horizon);
                let stats = timekd_tensor::parallel::with_threads(threads, || {
                    m.train_student_epoch(subset)
                });
                assert_eq!(
                    epoch_bits(&stats),
                    epoch_bits(&dyn_stats),
                    "epoch stats diverge at {threads} threads (dim {})",
                    base.dim
                );
                assert_eq!(
                    student_param_bits(&m),
                    dyn_params,
                    "student params diverge at {threads} threads (dim {})",
                    base.dim
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut m1, ds) = tiny_model();
        let (mut m2, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let subset = &train[..2.min(train.len())];
        let l1 = m1.train_epoch(subset);
        let l2 = m2.train_epoch(subset);
        assert_eq!(l1, l2);
    }
}
