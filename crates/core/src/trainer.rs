//! TimeKD end-to-end: teacher + student + PKD, jointly optimised per
//! Eq. 30 and Algorithms 1–2.
//!
//! Both training epochs replay compiled plans, one step per window: the
//! teacher's warm-up step ([`PlannedTeacherTrainer`], Alg. 1) on each
//! window's stored CLM rows, and the student's objective step
//! ([`PlannedBatchTrainer`], Alg. 2) on the teacher's stored targets. Each
//! trainer lives across epochs (it owns its AdamW moments) and follows the
//! shared dynamic optimizer's LR schedule and step clock. The dynamic
//! per-window loops stay as the bitwise oracles
//! ([`TimeKd::train_teacher_epoch_dynamic`],
//! [`TimeKd::train_student_epoch_dynamic`]).

use std::rc::Rc;

use timekd_data::{ForecastWindow, MetricAccumulator, WindowPrompts};
use timekd_lm::{pretrain_lm, FrozenLm, PretrainConfig, PromptTokenizer};
use timekd_nn::{clip_grad_norm, AdamW, AdamWConfig, Module};
use timekd_tensor::{seeded_rng, PlanOptimizer, Tensor};

use crate::config::TimeKdConfig;
use crate::distill::{reconstruction_objective, student_objective};
use crate::forecaster::Forecaster;
use crate::plan::{PlannedBatchTrainer, PlannedStudent, PlannedTeacherTrainer};
use crate::student::Student;
use crate::teacher::{render_prompts, CrossModalityTeacher, TeacherOutput};

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

/// The fused optimizer compiled into the student objective plan and the
/// teacher plan: the trainer's AdamW ([`trainer_adamw`]) at `config.lr`,
/// so planned and dynamic steps agree bit for bit.
pub fn trainer_plan_optimizer(config: &TimeKdConfig) -> PlanOptimizer {
    let c = adamw_config();
    PlanOptimizer::AdamW {
        lr: config.lr,
        beta1: c.beta1,
        beta2: c.beta2,
        eps: c.eps,
        weight_decay: c.weight_decay,
    }
}

/// What [`TimeKd`] keeps of one training window between epochs: the
/// teacher's inputs from the frozen CLM and its outputs, the *stored*
/// privileged information of §IV-B2.
struct StoredWindow {
    /// The window the entry was built for (`Rc` clones, no data copied).
    x: Tensor,
    y: Tensor,
    /// The frozen CLM's rows ([`CrossModalityTeacher::clm_rows`]).
    rows: Option<(Tensor, Tensor)>,
    /// The teacher's no-grad `(attention, embedding)`, kept until the
    /// teacher next changes.
    targets: Option<(Tensor, Tensor)>,
}

impl StoredWindow {
    /// Whether the entry was built for bitwise this window.
    fn holds(&self, w: &ForecastWindow) -> bool {
        let same = |a: &Tensor, b: &Tensor| {
            a.dims() == b.dims()
                && (a.data().iter().zip(b.data().iter())).all(|(p, q)| p.to_bits() == q.to_bits())
        };
        same(&self.x, &w.x) && same(&self.y, &w.y)
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
    planned_student: Option<PlannedBatchTrainer>,
    /// The planned teacher trainer, kept across warm-up epochs for the
    /// same reason.
    planned_teacher: Option<PlannedTeacherTrainer>,
    /// One entry per position in the last epoch's window slice; empty
    /// while the frozen CLM's cache is off.
    store: Vec<Option<StoredWindow>>,
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
            planned_student: None,
            planned_teacher: None,
            store: Vec::new(),
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

    /// Readies the store for an epoch over `windows`: an entry that does
    /// not hold bitwise the window at its position is dropped, and so is
    /// every entry while the frozen CLM's cache is off (the `ablation_cache`
    /// no-cache arm then recomputes everything each epoch).
    fn sync_store(&mut self, windows: &[ForecastWindow]) {
        if !self.teacher.frozen_lm().caching() {
            self.store.clear();
            return;
        }
        if self.store.len() < windows.len() {
            self.store.resize_with(windows.len(), || None);
        }
        for (slot, w) in self.store.iter_mut().zip(windows) {
            if slot.as_ref().is_some_and(|e| !e.holds(w)) {
                *slot = None;
            }
        }
    }

    /// Drops every stored teacher target: the teacher has changed.
    pub(crate) fn drop_stored_targets(&mut self) {
        for entry in self.store.iter_mut().flatten() {
            entry.targets = None;
        }
    }

    /// The frozen CLM's rows of window `i` of the epoch's slice, `w`,
    /// read from its store entry. A window seen for the first time renders
    /// its prompts and runs the CLM; its entry is kept while the store is
    /// on.
    fn clm_rows_at(&mut self, i: usize, w: &ForecastWindow) -> Option<(Tensor, Tensor)> {
        if let Some(entry) = self.store.get(i).and_then(Option::as_ref) {
            return entry.rows.clone();
        }
        let rows = self.teacher.clm_rows(&self.prompts_for(w));
        if let Some(slot) = self.store.get_mut(i) {
            *slot = Some(StoredWindow {
                x: w.x.clone(),
                y: w.y.clone(),
                rows: rows.clone(),
                targets: None,
            });
        }
        rows
    }

    /// The teacher forward on window `i` of the epoch's slice, `w`, on
    /// its CLM rows ([`clm_rows_at`](Self::clm_rows_at)).
    fn teacher_forward(&mut self, i: usize, w: &ForecastWindow) -> TeacherOutput {
        let _span = timekd_obs::span("teacher.forward");
        let rows = self.clm_rows_at(i, w);
        self.teacher.forward_rows(&w.x, &w.y, rows.as_ref())
    }

    /// The teacher's no-grad `(attention, embedding)` for window `i`, `w`:
    /// computed in the first student epoch after a teacher change, then
    /// read from the store.
    fn teacher_targets(&mut self, i: usize, w: &ForecastWindow) -> (Tensor, Tensor) {
        let stored = self.store.get(i).and_then(Option::as_ref);
        if let Some(targets) = stored.and_then(|e| e.targets.clone()) {
            return targets;
        }
        let out = timekd_tensor::no_grad(|| self.teacher_forward(i, w));
        let targets = (out.attention, out.embedding);
        if let Some(Some(entry)) = self.store.get_mut(i) {
            entry.targets = Some(targets.clone());
        }
        targets
    }

    /// Applies the configured LR schedule for the upcoming optimizer step
    /// and returns the rate, for a planned step to use too.
    fn apply_lr_schedule(&mut self) -> f32 {
        let lr = self.config.lr * self.config.lr_schedule.factor(self.optimizer.steps());
        self.optimizer.set_lr(lr);
        lr
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
    ///
    /// Each window's step — projection, SCA, `PTEncoder`, reconstruction
    /// head, `λ_r · L_recon`, backward, clipping, fused AdamW — replays a
    /// compiled training plan ([`PlannedTeacherTrainer`]) on the window's
    /// stored CLM rows, bitwise identical to the dynamic per-window loop
    /// ([`train_teacher_epoch_dynamic`](Self::train_teacher_epoch_dynamic)),
    /// which stays as the equivalence oracle. A window seen for the first
    /// time runs the CLM first, as the dynamic loop does.
    pub fn train_teacher_epoch(&mut self, windows: &[ForecastWindow]) -> f32 {
        let _span = timekd_obs::span("epoch.teacher");
        assert!(!windows.is_empty(), "no training windows");
        self.sync_store(windows);
        self.drop_stored_targets();
        let mut trainer = match self.planned_teacher.take() {
            // A checkpoint load may have replaced the teacher's values
            // since the last epoch; the AdamW moments carry over.
            Some(mut t) => {
                t.read_params();
                t
            }
            None => PlannedTeacherTrainer::new(
                &self.teacher,
                &self.config,
                self.student.num_vars(),
                trainer_plan_optimizer(&self.config),
            )
            .unwrap_or_else(|e| panic!("teacher training plan: {e}")),
        };
        let mut total = 0.0f32;
        for (i, w) in windows.iter().enumerate() {
            let rows = self.clm_rows_at(i, w);
            let lr = self.apply_lr_schedule();
            trainer.set_lr(lr);
            trainer.set_step_count(self.optimizer.steps());
            {
                let _step = timekd_obs::span("plan.teacher_step");
                total += trainer.run_step(&w.x, &w.y, rows.as_ref());
            }
            self.optimizer.note_external_step();
            self.assert_frozen_lm_invariant();
        }
        trainer.write_back();
        self.planned_teacher = Some(trainer);
        total / windows.len() as f32
    }

    /// The dynamic per-window reference implementation of
    /// [`train_teacher_epoch`](Self::train_teacher_epoch): one graph
    /// build, backward, clip, and optimizer step per window, on the same
    /// stored CLM rows. Kept as the equivalence oracle for the planned
    /// path. Calling it drops any live planned teacher trainer (its AdamW
    /// moments would go stale), so use one path per model instance when
    /// comparing.
    pub fn train_teacher_epoch_dynamic(&mut self, windows: &[ForecastWindow]) -> f32 {
        let _span = timekd_obs::span("epoch.teacher");
        assert!(!windows.is_empty(), "no training windows");
        self.planned_teacher = None;
        self.sync_store(windows);
        self.drop_stored_targets();
        let params = self.teacher.params();
        let mut total = 0.0f32;
        for (i, w) in windows.iter().enumerate() {
            for p in &params {
                p.zero_grad();
            }
            let out = self.teacher_forward(i, w);
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
    /// which stays as the equivalence oracle. The teacher's targets are
    /// computed once per window after each teacher change and stored.
    pub fn train_student_epoch(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let _span = timekd_obs::span("epoch.student");
        assert!(!windows.is_empty(), "no training windows");
        self.sync_store(windows);
        let mut trainer = match self.planned_student.take() {
            // A checkpoint load may have replaced the student's values
            // since the last epoch; the AdamW moments carry over.
            Some(mut t) => {
                t.read_params();
                t
            }
            None => PlannedBatchTrainer::new(
                &self.student,
                &self.config,
                trainer_plan_optimizer(&self.config),
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
        for (i, w) in windows.iter().enumerate() {
            // Teacher provides targets only: no graph, no update.
            let (attention, embedding) = self.teacher_targets(i, w);
            trainer.stage_window(0, &w.x, &w.y);
            {
                let _stage = timekd_obs::span("pkd.stage");
                trainer.stage_teacher(0, &attention, &embedding);
            }
            let lr = self.apply_lr_schedule();
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
        self.planned_student = Some(trainer);
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
    /// equivalence oracle for the planned path: it renders each window's
    /// prompts and runs the teacher afresh, reading nothing stored.
    /// Calling it drops any live planned trainer (its AdamW moments would
    /// go stale), so use one path per model instance when comparing.
    pub fn train_student_epoch_dynamic(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let _span = timekd_obs::span("epoch.student");
        assert!(!windows.is_empty(), "no training windows");
        self.planned_student = None;
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
        // parameter. Two inputs: the tiny config
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
            let (mut m, _) = model_with(base, input_len, horizon);
            let stats = m.train_student_epoch(subset);
            assert_eq!(
                epoch_bits(&stats),
                epoch_bits(&dyn_stats),
                "epoch stats diverge (dim {})",
                base.dim
            );
            assert_eq!(
                student_param_bits(&m),
                dyn_params,
                "student params diverge (dim {})",
                base.dim
            );
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    fn teacher_param_bits(model: &TimeKd) -> Vec<Vec<u32>> {
        model.teacher.params().iter().map(bits).collect()
    }

    #[test]
    fn planned_teacher_epoch_is_bitwise_identical_to_dynamic() {
        // The planned warm-up epoch must reproduce the dynamic per-window
        // loop bit for bit — every epoch's mean loss and every teacher
        // parameter — on every teacher arm, and with the CLM cache off
        // (nothing stored, rows recomputed each epoch). The tight clip
        // rescales every step, and the warm-up cosine schedule moves the
        // learning rate from step to step.
        use crate::config::AblationConfig;
        let arms = [
            (AblationConfig::full(), true),
            (AblationConfig::without_privileged_info(), true),
            (AblationConfig::without_calibrated_attention(), true),
            (AblationConfig::without_clm(), true),
            (AblationConfig::without_sca(), true),
            (AblationConfig::full(), false),
        ];
        for (ablation, caching) in arms {
            let mut cfg = tiny_config();
            cfg.ablation = ablation;
            cfg.grad_clip = 0.05;
            cfg.lr_schedule = timekd_nn::LrSchedule::WarmupCosine {
                warmup: 3,
                total: 12,
                min_factor: 0.1,
            };
            let run = |planned: bool| {
                let (mut model, ds) = model_with(cfg, 24, 8);
                model.teacher().frozen_lm().set_caching(caching);
                let windows = &ds.windows(Split::Train, 16)[..5];
                let losses: Vec<u32> = (0..3)
                    .map(|_| {
                        let loss = if planned {
                            model.train_teacher_epoch(windows)
                        } else {
                            model.train_teacher_epoch_dynamic(windows)
                        };
                        loss.to_bits()
                    })
                    .collect();
                (losses, teacher_param_bits(&model))
            };
            let arm = format!("{} caching={caching}", ablation.label());
            let (dyn_losses, dyn_params) = run(false);
            let (losses, params) = run(true);
            assert_eq!(losses, dyn_losses, "epoch losses diverge ({arm})");
            assert!(params == dyn_params, "teacher params diverge ({arm})");
        }
    }

    /// The bits of the teacher targets stored for position `i`, if any.
    fn stored_targets(model: &TimeKd, i: usize) -> Option<[Vec<u32>; 2]> {
        let entry = model.store.get(i)?.as_ref()?;
        let (attention, embedding) = entry.targets.as_ref()?;
        Some([bits(attention), bits(embedding)])
    }

    /// The bits of a fresh no-grad teacher forward on `w`.
    fn fresh_targets(model: &TimeKd, w: &ForecastWindow) -> [Vec<u32>; 2] {
        let out =
            timekd_tensor::no_grad(|| model.teacher().forward(&w.x, &w.y, &model.prompts_for(w)));
        [bits(&out.attention), bits(&out.embedding)]
    }

    fn assert_stored_targets_are_fresh(model: &TimeKd, windows: &[ForecastWindow]) {
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(
                stored_targets(model, i),
                Some(fresh_targets(model, w)),
                "window {i}"
            );
        }
    }

    #[test]
    fn stored_targets_equal_a_fresh_teacher_forward() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let windows = &train[..4];
        model.train_teacher_epoch(windows);
        model.train_student_epoch(windows);
        assert_stored_targets_are_fresh(&model, windows);
        // A teacher epoch drops them, and the next student epoch stores
        // the changed teacher's.
        model.train_teacher_epoch(windows);
        assert!((0..windows.len()).all(|i| stored_targets(&model, i).is_none()));
        model.train_student_epoch(windows);
        assert_stored_targets_are_fresh(&model, windows);
    }

    #[test]
    fn a_moved_or_changed_window_rebuilds_its_entry() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let mut windows = train[..3].to_vec();
        // Two prompts per variable; a rebuilt entry looks each up again.
        let lookups = 2 * ds.num_vars() as u64;
        let rows_id = |m: &TimeKd, i: usize| {
            let entry = m.store[i].as_ref().expect("an entry per window");
            entry.rows.as_ref().map(|(gt, _)| gt.id())
        };
        let cache = |m: &TimeKd| m.teacher().frozen_lm().cache_stats();
        model.train_student_epoch(&windows);
        let ids: Vec<_> = (0..3).map(|i| rows_id(&model, i)).collect();
        let (hits, misses) = cache(&model);

        windows.swap(0, 1);
        model.train_student_epoch(&windows);
        assert_eq!(cache(&model), (hits + 2 * lookups, misses));
        assert_ne!(rows_id(&model, 0), ids[0]);
        assert_ne!(rows_id(&model, 1), ids[1]);
        assert_eq!(
            rows_id(&model, 2),
            ids[2],
            "an unmoved window keeps its entry"
        );
        assert_stored_targets_are_fresh(&model, &windows);

        let (hits, misses) = cache(&model);
        let w = &windows[2];
        let mut y = w.y.to_vec();
        y[0] += 1.0;
        windows[2] = ForecastWindow {
            y: Tensor::from_vec(y, w.y.dims()),
            ..w.clone()
        };
        model.train_student_epoch(&windows);
        let (hits2, misses2) = cache(&model);
        assert_eq!(hits2 + misses2, hits + misses + lookups);
        assert_ne!(rows_id(&model, 2), ids[2], "a changed window is rebuilt");
        assert_stored_targets_are_fresh(&model, &windows);
    }

    #[test]
    fn nothing_is_stored_while_the_clm_cache_is_off() {
        let (mut model, ds) = tiny_model();
        model.teacher().frozen_lm().set_caching(false);
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let windows = &train[..2];
        // Every prompt of every window is a miss in every epoch.
        let per_epoch = (2 * ds.num_vars() * windows.len()) as u64;
        let mut expected = 0;
        for teacher in [true, true, false, false] {
            if teacher {
                model.train_teacher_epoch(windows);
            } else {
                model.train_student_epoch(windows);
            }
            expected += per_epoch;
            assert_eq!(model.teacher().frozen_lm().cache_stats(), (0, expected));
            assert!(model.store.is_empty());
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
