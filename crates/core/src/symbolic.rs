//! Recorded symbolic traces of the student objective, the teacher's
//! warm-up step and the full TimeKD step, for the plan compiler and the
//! static verifier in `timekd-check`.
//!
//! Nothing here re-states a forward pass. Each trace runs the real modules
//! and the real loss code on zero inputs inside a
//! [`record`](timekd_tensor::record) scope, registers their parameters
//! under the labels of the modules' naming walk
//! ([`Module::named_params`]), and replays the recording as
//! [`SymbolicTensor`] IR through a [`Recorder`]:
//!
//! - [`trace_student`] — the student forward and its training objective,
//!   lowered into the forecast and objective plans;
//! - [`trace_teacher`] — the teacher forward past the frozen CLM and its
//!   reconstruction objective, with the CLM rows as named leaves, lowered
//!   into the teacher's warm-up plan;
//! - [`record_pipeline`] / [`trace_pipeline`] — one teacher + student
//!   training step (Alg. 1–2) over a randomly initialised frozen CLM, whose
//!   loss roots feed the gradient-flow and dead-parameter passes.
//!   Pretraining would not change the graph, so the CLM is not pretrained.
//!
//! Shapes are checked once, by the engine, while the real forward runs:
//! a mismatch panics there, naming the op, and the replay only copies
//! what the engine computed.

use std::rc::Rc;

use timekd_lm::{CausalLm, FrozenLm, PromptTokenizer};
use timekd_nn::Module;
use timekd_tensor::{
    record, seeded_rng, RecordedNode, Recorder, ReplayError, Rewrite, SymCtx, SymbolicTensor,
    Tensor,
};

use crate::config::TimeKdConfig;
use crate::distill::{reconstruction_objective, student_objective_of, teacher_objective};
use crate::student::Student;
use crate::teacher::{render_prompts, CrossModalityTeacher};
use crate::trainer::TimeKd;

/// Seed of the throwaway models a trace records. Values never reach the
/// IR, only shapes and wiring do.
const TRACE_SEED: u64 = 0x7ACE;

/// Label of the auxiliary constant carrying the teacher attention `A_PE`
/// `[N, N]` in [`trace_student`]. Fed per window at run time via the plan
/// executor's aux slots.
pub const TEACHER_ATT_LABEL: &str = "teacher_att";
/// Label of the auxiliary constant carrying the teacher embedding `E_GT`
/// `[N, D]` in [`trace_student`].
pub const TEACHER_EMB_LABEL: &str = "teacher_emb";

/// One recorded trace of the student: its forecast and its full training
/// objective (Alg. 2, Eq. 29–30), `λ_p·(λ_c·L_cd + λ_e·L_fd) + λ_f·L_fcst`.
/// The teacher's privileged products enter as auxiliary *constants*
/// ([`TEACHER_ATT_LABEL`], [`TEACHER_EMB_LABEL`]), exactly as the trainer
/// hands them over from its `no_grad` teacher forward.
///
/// The forecast plan is lowered from [`prediction`](Self::prediction), the
/// training plan from [`loss`](Self::loss).
#[derive(Debug)]
pub struct StudentTrace {
    /// The replay context (student parameter registry, in
    /// [`Module::params`] order).
    pub ctx: SymCtx,
    /// `student(x).forecast` — exactly what `Student::predict` returns.
    pub prediction: SymbolicTensor,
    /// The total-loss root.
    pub loss: SymbolicTensor,
    /// `L_cd` scalar, absent when ablated (the real loss code leaves an
    /// ablated term out of the graph).
    pub correlation: Option<SymbolicTensor>,
    /// `L_fd` scalar, absent when ablated.
    pub feature: Option<SymbolicTensor>,
    /// `L_fcst = smooth_l1(prediction, y)` (always present).
    pub forecast: SymbolicTensor,
}

/// Records the student forward and its complete training objective on a
/// throwaway student of this geometry, and replays them as IR.
pub fn trace_student(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<StudentTrace, ReplayError> {
    let ab = config.ablation;
    let student = Student::new(
        config,
        input_len,
        horizon,
        num_vars,
        &mut seeded_rng(TRACE_SEED),
    );
    let mut rec = Recorder::new();
    for (label, p) in student.named_params("student") {
        rec.param(&label, &p, false);
    }
    let x = Tensor::zeros([input_len, num_vars]);
    let y = Tensor::zeros([horizon, num_vars]);
    let att = Tensor::zeros([num_vars, num_vars]);
    let emb = Tensor::zeros([num_vars, config.dim]);
    rec.name("x", &x);
    rec.name("y", &y);
    rec.name(TEACHER_ATT_LABEL, &att);
    rec.name(TEACHER_EMB_LABEL, &emb);
    let (out, obj) = record(|| {
        let out = student.forward(&x);
        let obj = student_objective_of(&out, config, &y, &att, &emb);
        (out, obj)
    });
    let mut roots = vec![&out.forecast, &obj.total, &obj.forecast];
    if ab.correlation_distillation {
        roots.push(&obj.correlation);
    }
    if ab.feature_distillation {
        roots.push(&obj.feature);
    }
    let mut syms = rec.replay(&roots)?.into_iter();
    let mut next = || syms.next().expect("one IR node per root");
    Ok(StudentTrace {
        prediction: next(),
        loss: next(),
        forecast: next(),
        correlation: ab.correlation_distillation.then(&mut next),
        feature: ab.feature_distillation.then(&mut next),
        ctx: rec.ctx().clone(),
    })
}

/// Label of the ground-truth CLM rows `L_GT` `[N, D_lm]` in
/// [`trace_teacher`]: the teacher plan's runtime input on the CLM arms.
pub const CLM_GT_LABEL: &str = "clm_gt";
/// Label of the historical CLM rows `L_HD` `[N, D_lm]` in
/// [`trace_teacher`], fed per window through an aux slot.
pub const CLM_HD_LABEL: &str = "clm_hd";

/// One recorded trace of the teacher's training step (Alg. 1):
/// [`teacher_objective`] on a window's CLM rows.
#[derive(Debug)]
pub struct TeacherTrace {
    /// The replay context (the teacher's trainable parameters, in
    /// [`Module::params`] order).
    pub ctx: SymCtx,
    /// The `λ_r · L_recon` root.
    pub loss: SymbolicTensor,
}

/// Records the teacher's forward past the frozen CLM and its
/// reconstruction objective on a throwaway teacher of this geometry, and
/// replays them as IR. The CLM rows are the named leaves
/// [`CLM_GT_LABEL`] and [`CLM_HD_LABEL`]; on `w/o_CLM` the graph reads the
/// windows `x` and `y` instead. The throwaway teacher's CLM is randomly
/// initialised: only its width reaches the graph.
pub fn trace_teacher(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<TeacherTrace, ReplayError> {
    let lm = CausalLm::new(
        PromptTokenizer::new().vocab_size(),
        config.lm,
        &mut seeded_rng(TRACE_SEED),
    );
    let teacher = CrossModalityTeacher::new(
        Rc::new(FrozenLm::new(lm)),
        *config,
        input_len,
        horizon,
        &mut seeded_rng(TRACE_SEED),
    );
    let mut rec = Recorder::new();
    for (label, p) in teacher.named_params("teacher") {
        rec.param(&label, &p, false);
    }
    let x = Tensor::zeros([input_len, num_vars]);
    let y = Tensor::zeros([horizon, num_vars]);
    rec.name("x", &x);
    rec.name("y", &y);
    let rows = config.ablation.use_clm.then(|| {
        let gt = Tensor::zeros([num_vars, config.lm.dim]);
        let hd = Tensor::zeros([num_vars, config.lm.dim]);
        rec.name(CLM_GT_LABEL, &gt);
        rec.name(CLM_HD_LABEL, &hd);
        (gt, hd)
    });
    let loss = record(|| teacher_objective(&teacher, config, &x, &y, rows.as_ref()));
    Ok(TeacherTrace {
        loss: rec.replay(&[&loss])?.remove(0),
        ctx: rec.ctx().clone(),
    })
}

/// The loss roots of one replayed TimeKD training step, for the
/// gradient-flow passes.
#[derive(Debug)]
pub struct SymbolicPipeline {
    /// The replay context (parameter registry: frozen CLM, teacher,
    /// student).
    pub ctx: SymCtx,
    /// `λ_r · L_recon` — the Algorithm 1 teacher loss root.
    pub reconstruction: SymbolicTensor,
    /// `L_cd` root (a constant zero when ablated).
    pub correlation: SymbolicTensor,
    /// `L_fd` root (a constant zero when ablated).
    pub feature: SymbolicTensor,
    /// `L_fcst` root.
    pub forecast: SymbolicTensor,
    /// `λ_p·(λ_c·L_cd + λ_e·L_fd) + λ_f·L_fcst` — the Algorithm 2 student
    /// loss root.
    pub student_total: SymbolicTensor,
}

impl SymbolicPipeline {
    /// The named loss roots, in the order the verifier reports them.
    pub fn loss_roots(&self) -> Vec<(&'static str, &SymbolicTensor)> {
        vec![
            ("reconstruction", &self.reconstruction),
            ("correlation", &self.correlation),
            ("feature", &self.feature),
            ("forecast", &self.forecast),
            ("student_total", &self.student_total),
        ]
    }
}

/// One recorded TimeKD training step, not yet replayed: the verifier
/// mutates it (extra parameters, replay rewrites) before replaying.
#[derive(Debug)]
pub struct PipelineRecording {
    recorder: Recorder,
    /// Reconstruction, correlation, feature, forecast and total-student
    /// loss roots, in [`SymbolicPipeline::loss_roots`] order.
    roots: [Tensor; 5],
    /// A gradient-tracking forward of the step's CLM on one of its
    /// prompts: a last-token embedding `[1, D]` as the teacher reshapes
    /// it, which no root reaches.
    live_clm_embedding: Tensor,
}

impl PipelineRecording {
    /// The recorder, for registering extra parameters.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Replays the recording's gradient-tracking CLM forward into its IR:
    /// a path from a last-token embedding back to the frozen CLM
    /// parameters, which the constant embeddings `FrozenLm` hands out never
    /// have. The verifier's unfrozen-LM fault splices it in their place.
    pub fn replay_live_clm_embedding(&mut self) -> Result<SymbolicTensor, ReplayError> {
        Ok(self.recorder.replay(&[&self.live_clm_embedding])?.remove(0))
    }

    /// Replays the step, letting `hook` rewrite individual nodes.
    pub fn replay_with(
        mut self,
        hook: &mut dyn FnMut(&RecordedNode<'_>) -> Rewrite,
    ) -> Result<SymbolicPipeline, ReplayError> {
        let roots: Vec<&Tensor> = self.roots.iter().collect();
        let mut syms = self.recorder.replay_with(&roots, hook)?.into_iter();
        let mut next = || syms.next().expect("one IR node per root");
        Ok(SymbolicPipeline {
            reconstruction: next(),
            correlation: next(),
            feature: next(),
            forecast: next(),
            student_total: next(),
            ctx: self.recorder.ctx().clone(),
        })
    }
}

/// Records one full TimeKD training step on zero windows: the teacher
/// forward and reconstruction loss (Alg. 1), then the student forward and
/// its PKD + forecasting objective against the teacher's (detached)
/// products (Alg. 2, Eq. 29–30). The frozen CLM is a randomly initialised
/// one; the embeddings the teacher consumes are constants (its compiled
/// family forward, or the real embedding cache), each labelled as the
/// CLM's `last_token_embedding`.
pub fn record_pipeline(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> PipelineRecording {
    let tokenizer = Rc::new(PromptTokenizer::new());
    let lm = CausalLm::new(
        tokenizer.vocab_size(),
        config.lm,
        &mut seeded_rng(TRACE_SEED),
    );
    let model = TimeKd::with_frozen_lm(
        Rc::new(FrozenLm::new(lm)),
        tokenizer,
        *config,
        input_len,
        horizon,
        num_vars,
    );
    let mut recorder = Recorder::new();
    let teacher = model.teacher();
    for (label, p) in teacher.frozen_lm().model().named_params("teacher.clm") {
        recorder.param(&label, &p, true);
    }
    for (label, p) in teacher.named_params("teacher") {
        recorder.param(&label, &p, false);
    }
    for (label, p) in model.student().named_params("student") {
        recorder.param(&label, &p, false);
    }
    let x = Tensor::zeros([input_len, num_vars]);
    let y = Tensor::zeros([horizon, num_vars]);
    recorder.name("x", &x);
    recorder.name("y", &y);
    let prompts = render_prompts(model.tokenizer(), &x, &y, config);
    let roots = record(|| {
        let t = teacher.forward(&x, &y, &prompts);
        let reconstruction = reconstruction_objective(&t.reconstruction, &y, config);
        let s = model.student().forward(&x);
        let obj = student_objective_of(&s, config, &y, &t.attention, &t.embedding);
        [
            reconstruction,
            obj.correlation,
            obj.feature,
            obj.forecast,
            obj.total,
        ]
    });
    let live_clm_embedding = record(|| {
        let lm = teacher.frozen_lm().model();
        lm.last_token_embedding(&prompts.historical[0], config.ablation.calibrated_attention)
            .reshape([1, config.lm.dim])
    });
    PipelineRecording {
        recorder,
        roots,
        live_clm_embedding,
    }
}

/// Records one full TimeKD training step ([`record_pipeline`]) and
/// replays it as IR, whose loss roots feed the gradient-flow passes. The
/// recorded real forward is the shape check: it panics on a mismatch.
pub fn trace_pipeline(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<SymbolicPipeline, ReplayError> {
    record_pipeline(config, input_len, horizon, num_vars).replay_with(&mut |_| Rewrite::Keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationConfig;
    use std::collections::HashSet;
    use timekd_lm::{LmConfig, LmSize};
    use timekd_tensor::reachable_params;

    #[allow(clippy::field_reassign_with_default)]
    fn tiny_config(ablation: AblationConfig) -> TimeKdConfig {
        let mut cfg = TimeKdConfig::with_ablation(ablation);
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        cfg.lm = LmConfig::for_size(LmSize::Small);
        cfg.prompt.max_history = 4;
        cfg.prompt.max_future = 4;
        cfg
    }

    fn reached(root: &SymbolicTensor) -> HashSet<u64> {
        reachable_params(root).iter().map(|t| t.id()).collect()
    }

    #[test]
    fn student_trace_registers_params_in_module_order() {
        let cfg = tiny_config(AblationConfig::full());
        let trace = trace_student(&cfg, 24, 8, 7).unwrap();
        let student = Student::new(&cfg, 24, 8, 7, &mut seeded_rng(1));
        let labels: Vec<String> = trace
            .ctx
            .params()
            .iter()
            .map(|p| p.label().to_string())
            .collect();
        let walk: Vec<String> = student
            .named_params("student")
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(labels, walk);
        assert_eq!(labels[0], "student.revin.gamma");
        assert!(labels.contains(&"student.encoder.layer0.attn.wq.weight".to_string()));
        assert_eq!(trace.prediction.dims(), [8, 7]);
    }

    #[test]
    fn full_pipeline_traces_for_every_ablation() {
        for ablation in [
            AblationConfig::full(),
            AblationConfig::without_privileged_info(),
            AblationConfig::without_calibrated_attention(),
            AblationConfig::without_clm(),
            AblationConfig::without_sca(),
            AblationConfig::without_correlation_distillation(),
            AblationConfig::without_feature_distillation(),
        ] {
            let cfg = tiny_config(ablation);
            let p = trace_pipeline(&cfg, 24, 8, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", ablation.label()));
            for (name, root) in p.loss_roots() {
                assert!(root.dims().is_empty(), "{name} is not a scalar");
            }
            assert!(!reachable_params(&p.student_total).is_empty());
            assert!(!reachable_params(&p.reconstruction).is_empty());
        }
    }

    #[test]
    fn frozen_lm_unreachable_from_all_losses() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7).unwrap();
        for (name, root) in p.loss_roots() {
            for param in reachable_params(root) {
                assert!(
                    !param.is_frozen(),
                    "{name} reaches frozen param {}",
                    param.label()
                );
            }
        }
        // The frozen LM params are registered nonetheless.
        assert!(p.ctx.params().iter().any(|q| q.is_frozen()));
    }

    #[test]
    fn student_total_reaches_every_student_param() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7).unwrap();
        let reached = reached(&p.student_total);
        for param in p.ctx.params() {
            if param.label().starts_with("student.") {
                assert!(
                    reached.contains(&param.id()),
                    "student param {} unreachable from student_total",
                    param.label()
                );
            }
        }
        // No teacher parameter leaks into the student objective.
        assert!(reachable_params(&p.student_total)
            .iter()
            .all(|t| t.label().starts_with("student.")));
    }

    #[test]
    fn reconstruction_reaches_every_teacher_trainable() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7).unwrap();
        let reached = reached(&p.reconstruction);
        for param in p.ctx.params() {
            if param.label().starts_with("teacher.") && !param.is_frozen() {
                assert!(
                    reached.contains(&param.id()),
                    "teacher trainable {} unreachable from reconstruction",
                    param.label()
                );
            }
        }
    }

    #[test]
    fn correlation_wiring_hits_qk_but_not_vo() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7).unwrap();
        let labels: Vec<String> = reachable_params(&p.correlation)
            .iter()
            .map(|t| t.label().to_string())
            .collect();
        let last = cfg.num_layers - 1;
        assert!(labels.contains(&format!("student.encoder.layer{last}.attn.wq.weight")));
        assert!(labels.contains(&format!("student.encoder.layer{last}.attn.wk.weight")));
        assert!(!labels.contains(&format!("student.encoder.layer{last}.attn.wv.weight")));
        assert!(!labels.contains(&format!("student.encoder.layer{last}.attn.wo.weight")));
        assert!(!labels.iter().any(|l| l.starts_with("student.projection")));
        assert!(!labels.iter().any(|l| l.starts_with("teacher.")));
    }
}
