//! Symbolic trace of the full TimeKD pipeline (teacher → SCA → student →
//! losses) for the static verifier in `timekd-check`.
//!
//! [`trace_pipeline`] rebuilds every loss graph of one training step on the
//! symbolic IR — same ops, same order, same gradient frontiers as the real
//! [`TimeKd`](crate::TimeKd) trainer — without executing a single kernel.
//! The returned [`SymbolicPipeline`] carries the loss roots the three
//! static passes analyse:
//!
//! - shape inference is the trace itself: any dimension mismatch anywhere in
//!   teacher, CLM, SCA, student or loss wiring surfaces as a
//!   [`ShapeError`] with a provenance chain naming the offending op;
//! - [`reachable_params`](timekd_tensor::reachable_params) over each loss
//!   root yields the loss→parameter flow matrix (who would the backward pass
//!   update);
//! - the [`SymCtx`] parameter registry, minus what any loss reaches, yields
//!   dead/dangling parameters.
//!
//! [`Fault`] injects known-bad wirings so the verifier's detection power is
//! itself testable: each fault must be caught by exactly the pass designed
//! for it.

use timekd_lm::{PromptTokenizer, SymCausalLm};
use timekd_nn::symbolic::{
    sym_smooth_l1_loss, SymFeedForward, SymLayerNorm, SymLinear, SymRevIn, SymTransformerEncoder,
};
use timekd_nn::Activation;
use timekd_tensor::{ShapeError, SymCtx, SymDim, SymbolicTensor, Tensor};

use crate::config::TimeKdConfig;

type SymResult = Result<SymbolicTensor, ShapeError>;

/// Deliberate mis-wirings for fault-injection tests of the verifier.
/// [`Fault::None`] is the faithful mirror of the real pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fault {
    /// Faithful trace — what `timekd-check --verify` proves clean.
    #[default]
    None,
    /// The *student* attention map is detached before the correlation loss:
    /// the loss is computed but can no longer update any student parameter.
    /// Must be caught by the gradient-flow wiring pass.
    DetachedDistillationTarget,
    /// The frozen CLM forward is traced *outside* `no_grad` (the real bug
    /// would be forgetting the `no_grad` guard in `FrozenLm::embed`):
    /// frozen LM parameters become reachable from the losses. Must be
    /// caught by the frozen-parameter pass.
    UnfrozenLm,
    /// The student encoder splits heads with `head_dim + 1`: the real
    /// constructor would assert, and the symbolic reshape must report the
    /// element-count mismatch. Must be caught by the shape pass.
    MismatchedHeadDim,
    /// An extra trainable parameter is registered under the student but
    /// never used by any forward. Must be caught by the dead-parameter
    /// pass.
    DanglingParam,
}

fn shape_err(x: &SymbolicTensor, op: &str, message: String) -> ShapeError {
    ShapeError {
        op: op.to_string(),
        label: x.label().to_string(),
        message,
        provenance: x.provenance_lines(8),
    }
}

/// Symbolic parameter-free layer norm, mirroring
/// [`layer_norm_const`](crate::layer_norm_const) (9 nodes).
pub fn sym_layer_norm_const(x: &SymbolicTensor) -> SymResult {
    let rank = x.dims().len();
    let mu = x.mean_axis(rank - 1, true)?;
    let centered = x.sub(&mu)?;
    let var = centered.square().mean_axis(rank - 1, true)?;
    centered.mul(&var.add_scalar(1e-5).rsqrt())
}

/// Symbolic [`SubtractiveCrossAttention`](crate::SubtractiveCrossAttention).
#[derive(Debug)]
pub struct SymSca {
    ctx: SymCtx,
    label: String,
    phi_q: SymLinear,
    phi_k: SymLinear,
    phi_v: SymLinear,
    theta_c: SymLinear,
    ln_out: SymLayerNorm,
    ffn: SymFeedForward,
    dim: usize,
}

impl SymSca {
    /// SCA over width `dim`, registered under `name`.
    pub fn new(ctx: &SymCtx, name: &str, dim: usize, ffn_hidden: usize) -> SymSca {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymSca {
            ctx: ctx.clone(),
            label: label.clone(),
            phi_q: SymLinear::new_no_bias(ctx, "phi_q", dim, dim),
            phi_k: SymLinear::new_no_bias(ctx, "phi_k", dim, dim),
            phi_v: SymLinear::new_no_bias(ctx, "phi_v", dim, dim),
            theta_c: SymLinear::new(ctx, "theta_c", dim, dim),
            ln_out: SymLayerNorm::new(ctx, "ln_out", dim),
            ffn: SymFeedForward::new(ctx, "ffn", dim, ffn_hidden, Activation::Relu),
            dim,
        })
    }

    fn check_inputs(&self, l_gt: &SymbolicTensor, l_hd: &SymbolicTensor) -> Result<(), ShapeError> {
        if l_gt.sizes() != l_hd.sizes() {
            return Err(shape_err(
                l_gt,
                "sca_inputs",
                format!(
                    "SCA inputs must match: {} vs {}",
                    timekd_tensor::render_dims(l_gt.dims()),
                    timekd_tensor::render_dims(l_hd.dims())
                ),
            ));
        }
        if l_gt.dims().len() != 2 || l_gt.dims()[1].size != self.dim {
            return Err(shape_err(
                l_gt,
                "sca_inputs",
                format!(
                    "SCA({}) expects [N, D] inputs, got {}",
                    self.dim,
                    timekd_tensor::render_dims(l_gt.dims())
                ),
            ));
        }
        Ok(())
    }

    /// Mirrors `SubtractiveCrossAttention::forward` (Eq. 8–9).
    pub fn forward(&self, l_gt: &SymbolicTensor, l_hd: &SymbolicTensor) -> SymResult {
        self.check_inputs(l_gt, l_hd)?;
        let q_proj = self.phi_q.forward(l_gt)?;
        let k_proj = self.phi_k.forward(l_hd)?;
        let v = self.phi_v.forward(l_hd)?;
        let refined = self.ctx.with_label(&self.label, || -> SymResult {
            let q = sym_layer_norm_const(&q_proj)?;
            let k = sym_layer_norm_const(&k_proj)?;
            let m_c = q.transpose_last()?.matmul(&k)?.softmax_last();
            let aggregated = v.matmul(&m_c)?;
            Ok(aggregated)
        })?;
        let intersection = self.theta_c.forward(&refined)?;
        let refined = self
            .ctx
            .with_label(&self.label, || l_gt.sub(&intersection))?;
        self.ffn.forward(&self.ln_out.forward(&refined)?)
    }

    /// Mirrors `SubtractiveCrossAttention::forward_direct` (`w/o_SCA`).
    pub fn forward_direct(&self, l_gt: &SymbolicTensor, l_hd: &SymbolicTensor) -> SymResult {
        self.check_inputs(l_gt, l_hd)?;
        let refined = self.ctx.with_label(&self.label, || l_gt.sub(l_hd))?;
        self.ffn.forward(&self.ln_out.forward(&refined)?)
    }
}

/// Symbolic products of one teacher forward, mirroring
/// [`TeacherOutput`](crate::TeacherOutput).
#[derive(Debug)]
pub struct SymTeacherOutput {
    /// Privileged embeddings `E_GT` `[N, D]`.
    pub embedding: SymbolicTensor,
    /// Head-averaged attention `A_PE` `[N, N]`.
    pub attention: SymbolicTensor,
    /// Reconstruction `X̂_G` `[M, N]`.
    pub reconstruction: SymbolicTensor,
}

/// Symbolic [`CrossModalityTeacher`](crate::CrossModalityTeacher).
///
/// The CLM is always registered inside a [`SymCtx::frozen`] scope (the real
/// trainer always owns a `FrozenLm`); the projection layers are gated by
/// ablation exactly as `Module::params` gates them, so the context's
/// parameter registry matches the optimizer's view of the model.
pub struct SymTeacher {
    ctx: SymCtx,
    label: String,
    lm: SymCausalLm,
    lm_dim: usize,
    lm_proj: Option<SymLinear>,
    hist_value_proj: Option<SymLinear>,
    gt_value_proj: Option<SymLinear>,
    sca: SymSca,
    pt_encoder: SymTransformerEncoder,
    recon_head: SymLinear,
    config: TimeKdConfig,
    input_len: usize,
    horizon: usize,
    fault: Fault,
}

impl SymTeacher {
    /// Registers the teacher (and its frozen CLM) under `name`.
    pub fn new(
        ctx: &SymCtx,
        name: &str,
        config: &TimeKdConfig,
        vocab_size: usize,
        input_len: usize,
        horizon: usize,
        fault: Fault,
    ) -> SymTeacher {
        let ab = config.ablation;
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymTeacher {
            ctx: ctx.clone(),
            label: label.clone(),
            lm: ctx.frozen(|| SymCausalLm::new(ctx, "clm", vocab_size, config.lm)),
            lm_dim: config.lm.dim,
            lm_proj: ab
                .use_clm
                .then(|| SymLinear::new(ctx, "lm_proj", config.lm.dim, config.dim)),
            hist_value_proj: (!ab.use_clm)
                .then(|| SymLinear::new(ctx, "hist_value_proj", input_len, config.dim)),
            gt_value_proj: (!ab.use_clm && ab.privileged_info)
                .then(|| SymLinear::new(ctx, "gt_value_proj", input_len + horizon, config.dim)),
            sca: SymSca::new(ctx, "sca", config.dim, config.ffn_hidden),
            pt_encoder: SymTransformerEncoder::new(
                ctx,
                "pt_encoder",
                config.dim,
                config.num_layers,
                config.num_heads,
                config.ffn_hidden,
                Activation::Relu,
            ),
            recon_head: SymLinear::new(ctx, "recon_head", config.dim, horizon),
            config: *config,
            input_len,
            horizon,
            fault,
        })
    }

    /// Mirrors `CrossModalityTeacher::clm_embeddings` for prompts of the
    /// given token counts. Each prompt's LM interior is traced under
    /// `no_grad` (the symbolic analogue of the `FrozenLm` cache returning a
    /// constant), except under [`Fault::UnfrozenLm`].
    fn clm_embeddings(&self, prompt_lens: &[usize]) -> SymResult {
        let proj = self
            .lm_proj
            .as_ref()
            .expect("clm_embeddings requires use_clm");
        let mut rows = Vec::with_capacity(prompt_lens.len());
        for &len in prompt_lens {
            let emb = if self.fault == Fault::UnfrozenLm {
                self.lm.last_token_embedding(len)?
            } else {
                self.ctx.no_grad(|| self.lm.last_token_embedding(len))?
            };
            let row = self.ctx.with_label(&self.label, || {
                emb.reshape(vec![SymDim::anon(1), SymDim::new("lm_dim", self.lm_dim)])
            })?;
            rows.push(row);
        }
        let stacked = self
            .ctx
            .with_label(&self.label, || SymbolicTensor::concat(&rows, 0, "N"))?;
        proj.forward(&stacked)
    }

    /// Mirrors `CrossModalityTeacher::forward`. `hist_lens`/`gt_lens` are
    /// the per-variable prompt token counts (only lengths matter to shapes).
    pub fn forward(
        &self,
        x: &SymbolicTensor,
        y: &SymbolicTensor,
        hist_lens: &[usize],
        gt_lens: &[usize],
    ) -> Result<SymTeacherOutput, ShapeError> {
        let ab = self.config.ablation;
        if x.dims().len() != 2 || x.dims()[0].size != self.input_len {
            return Err(shape_err(
                x,
                "teacher_input",
                format!(
                    "history length mismatch: expected [{}, N], got {}",
                    self.input_len,
                    timekd_tensor::render_dims(x.dims())
                ),
            ));
        }
        if y.dims().len() != 2
            || y.dims()[0].size != self.horizon
            || y.dims()[1].size != x.dims()[1].size
        {
            return Err(shape_err(
                y,
                "teacher_input",
                format!(
                    "horizon mismatch: expected [{}, {}], got {}",
                    self.horizon,
                    x.dims()[1],
                    timekd_tensor::render_dims(y.dims())
                ),
            ));
        }
        let (l_gt, l_hd) = if ab.use_clm {
            let gt = if ab.privileged_info {
                gt_lens
            } else {
                hist_lens
            };
            (self.clm_embeddings(gt)?, self.clm_embeddings(hist_lens)?)
        } else {
            let hist_proj = self
                .hist_value_proj
                .as_ref()
                .expect("w/o_CLM registers hist_value_proj");
            let xt = self.ctx.with_label(&self.label, || x.transpose_last())?;
            let l_hd = hist_proj.forward(&xt)?;
            let l_gt = if ab.privileged_info {
                let joint = self.ctx.with_label(&self.label, || -> SymResult {
                    let yt = y.transpose_last()?;
                    SymbolicTensor::concat(&[xt.clone(), yt], 1, "HM")
                })?;
                self.gt_value_proj
                    .as_ref()
                    .expect("privileged w/o_CLM registers gt_value_proj")
                    .forward(&joint)?
            } else {
                let xt2 = self.ctx.with_label(&self.label, || x.transpose_last())?;
                hist_proj.forward(&xt2)?
            };
            (l_gt, l_hd)
        };
        let refined = if ab.use_sca {
            self.sca.forward(&l_gt, &l_hd)?
        } else {
            self.sca.forward_direct(&l_gt, &l_hd)?
        };
        let enc = self.pt_encoder.forward(&refined, None)?;
        let recon = self.ctx.with_label(&self.label, || -> SymResult {
            self.recon_head.forward(&enc.output)?.transpose_last()
        })?;
        Ok(SymTeacherOutput {
            embedding: enc.output,
            attention: enc.last_attention,
            reconstruction: recon,
        })
    }
}

/// Symbolic products of one student forward, mirroring
/// [`StudentOutput`](crate::StudentOutput).
#[derive(Debug)]
pub struct SymStudentOutput {
    /// Encoder output `T̄_H` `[N, D]`.
    pub embedding: SymbolicTensor,
    /// Head-averaged attention `A_TSE` `[N, N]`.
    pub attention: SymbolicTensor,
    /// Forecast `X̂_M` `[M, N]`.
    pub forecast: SymbolicTensor,
}

/// Symbolic [`Student`](crate::Student).
pub struct SymStudent {
    ctx: SymCtx,
    label: String,
    revin: SymRevIn,
    inverted_embedding: SymLinear,
    encoder: SymTransformerEncoder,
    projection: SymLinear,
    input_len: usize,
    num_vars: usize,
}

impl SymStudent {
    /// Registers the student under `name`. [`Fault::MismatchedHeadDim`]
    /// builds the encoder with `head_dim + 1`.
    pub fn new(
        ctx: &SymCtx,
        name: &str,
        config: &TimeKdConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
        fault: Fault,
    ) -> SymStudent {
        let head_dim =
            config.dim / config.num_heads.max(1) + usize::from(fault == Fault::MismatchedHeadDim);
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymStudent {
            ctx: ctx.clone(),
            label: label.clone(),
            revin: SymRevIn::new(ctx, "revin", num_vars),
            inverted_embedding: SymLinear::new(ctx, "inverted_embedding", input_len, config.dim),
            encoder: SymTransformerEncoder::with_head_dim(
                ctx,
                "encoder",
                config.dim,
                config.num_layers,
                config.num_heads,
                head_dim,
                config.ffn_hidden,
                Activation::Relu,
            ),
            projection: SymLinear::new(ctx, "projection", config.dim, horizon),
            input_len,
            num_vars,
        })
    }

    /// Mirrors `Student::forward`.
    pub fn forward(&self, x: &SymbolicTensor) -> Result<SymStudentOutput, ShapeError> {
        if x.sizes() != vec![self.input_len, self.num_vars] {
            return Err(shape_err(
                x,
                "student_input",
                format!(
                    "student input shape mismatch: expected [{}, {}], got {}",
                    self.input_len,
                    self.num_vars,
                    timekd_tensor::render_dims(x.dims())
                ),
            ));
        }
        let normed = self.revin.normalize(&self.ctx, x)?;
        let transposed = self
            .ctx
            .with_label(&self.label, || normed.transpose_last())?;
        let tokens = self.inverted_embedding.forward(&transposed)?;
        let enc = self.encoder.forward(&tokens, None)?;
        let projected = self.ctx.with_label(&self.label, || -> SymResult {
            self.projection.forward(&enc.output)?.transpose_last()
        })?;
        let forecast = self.revin.denormalize(&self.ctx, &projected)?;
        Ok(SymStudentOutput {
            embedding: enc.output,
            attention: enc.last_attention,
            forecast,
        })
    }
}

/// Symbolic PKD loss roots, mirroring [`PkdLosses`](crate::PkdLosses).
#[derive(Debug)]
pub struct SymPkdLosses {
    /// `L_cd` (constant zero leaf when ablated).
    pub correlation: SymbolicTensor,
    /// `L_fd` (constant zero leaf when ablated).
    pub feature: SymbolicTensor,
    /// `λ_c · L_cd + λ_e · L_fd`.
    pub combined: SymbolicTensor,
}

/// Mirrors [`pkd_losses`](crate::pkd_losses): teacher tensors detached,
/// ablated terms are constant zero leaves.
/// [`Fault::DetachedDistillationTarget`] detaches the *student* attention as
/// well, severing the correlation loss from every student parameter.
pub fn sym_pkd_losses(
    ctx: &SymCtx,
    teacher_attention: &SymbolicTensor,
    teacher_embedding: &SymbolicTensor,
    student_attention: &SymbolicTensor,
    student_embedding: &SymbolicTensor,
    config: &TimeKdConfig,
    fault: Fault,
) -> Result<SymPkdLosses, ShapeError> {
    let ab = config.ablation;
    let student_attention = if fault == Fault::DetachedDistillationTarget {
        student_attention.detach()
    } else {
        student_attention.clone()
    };
    let correlation = if ab.correlation_distillation {
        sym_smooth_l1_loss(&student_attention, &teacher_attention.detach())?
    } else {
        ctx.scalar("zero")
    };
    let feature = if ab.feature_distillation {
        sym_smooth_l1_loss(student_embedding, &teacher_embedding.detach())?
    } else {
        ctx.scalar("zero")
    };
    let combined = correlation
        .mul_scalar(config.lambda_cd)
        .add(&feature.mul_scalar(config.lambda_fd))?;
    Ok(SymPkdLosses {
        correlation,
        feature,
        combined,
    })
}

/// Everything one symbolic trace of a TimeKD training step produces: the
/// tracing context (parameter registry) and the loss roots of Algorithms
/// 1–2 for the gradient-flow passes.
#[derive(Debug)]
pub struct SymbolicPipeline {
    /// The context the whole pipeline was traced in.
    pub ctx: SymCtx,
    /// Teacher products.
    pub teacher: SymTeacherOutput,
    /// Student products.
    pub student: SymStudentOutput,
    /// `λ_r · L_recon` — the Algorithm 1 teacher loss root.
    pub reconstruction: SymbolicTensor,
    /// `L_cd` root (constant when ablated).
    pub correlation: SymbolicTensor,
    /// `L_fd` root (constant when ablated).
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

/// Per-variable prompt token counts for a window of the given geometry.
///
/// Prompt lengths are value-independent (every number renders to exactly
/// one bin token), so rendering real prompts over zero-valued windows gives
/// the exact sequence lengths any real window of this geometry produces.
pub fn prompt_token_counts(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> (Vec<usize>, Vec<usize>) {
    let tokenizer = PromptTokenizer::new();
    let x = Tensor::zeros([input_len, num_vars]);
    let y = Tensor::zeros([horizon, num_vars]);
    let prompts = timekd_data::window_prompts(&tokenizer, &x, &y, &config.prompt);
    (
        prompts.historical.iter().map(Vec::len).collect(),
        prompts.ground_truth.iter().map(Vec::len).collect(),
    )
}

/// Traces one full TimeKD training step symbolically: teacher forward,
/// reconstruction loss (Alg. 1), student forward, PKD + forecasting losses
/// (Alg. 2, Eq. 29–30). No kernel executes; the trace doubles as the shape
/// proof, and its loss roots feed the gradient-flow passes.
pub fn trace_pipeline(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    fault: Fault,
) -> Result<SymbolicPipeline, ShapeError> {
    let (hist_lens, gt_lens) = prompt_token_counts(config, input_len, horizon, num_vars);
    let vocab_size = PromptTokenizer::new().vocab_size();

    let ctx = SymCtx::new();
    let teacher = SymTeacher::new(
        &ctx, "teacher", config, vocab_size, input_len, horizon, fault,
    );
    let student = SymStudent::new(&ctx, "student", config, input_len, horizon, num_vars, fault);
    if fault == Fault::DanglingParam {
        ctx.scoped("student", || {
            ctx.param(
                "dangling.weight",
                vec![
                    SymDim::new("in", config.dim),
                    SymDim::new("out", config.dim),
                ],
            )
        });
    }

    let x = ctx.constant(
        "x",
        vec![SymDim::new("L", input_len), SymDim::new("N", num_vars)],
    );
    let y = ctx.constant(
        "y",
        vec![SymDim::new("M", horizon), SymDim::new("N", num_vars)],
    );

    let t_out = teacher.forward(&x, &y, &hist_lens, &gt_lens)?;
    let reconstruction =
        sym_smooth_l1_loss(&t_out.reconstruction, &y)?.mul_scalar(config.lambda_recon);

    let s_out = student.forward(&x)?;
    let pkd = sym_pkd_losses(
        &ctx,
        &t_out.attention,
        &t_out.embedding,
        &s_out.attention,
        &s_out.embedding,
        config,
        fault,
    )?;
    let forecast = sym_smooth_l1_loss(&s_out.forecast, &y)?;
    let student_total = pkd
        .combined
        .mul_scalar(config.lambda_pkd)
        .add(&forecast.mul_scalar(config.lambda_fcst))?;

    Ok(SymbolicPipeline {
        ctx,
        teacher: t_out,
        student: s_out,
        reconstruction,
        correlation: pkd.correlation,
        feature: pkd.feature,
        forecast,
        student_total,
    })
}

/// Label of the auxiliary constant carrying the teacher attention `A_PE`
/// `[N, N]` in [`trace_student`]. Fed per window at run time via the plan
/// executor's aux slots.
pub const TEACHER_ATT_LABEL: &str = "teacher_att";
/// Label of the auxiliary constant carrying the teacher embedding `E_GT`
/// `[N, D]` in [`trace_student`].
pub const TEACHER_EMB_LABEL: &str = "teacher_emb";

/// One symbolic trace of the student: its forecast and its full training
/// objective (Alg. 2, Eq. 29–30), `λ_p·(λ_c·L_cd + λ_e·L_fd) + λ_f·L_fcst`.
/// The teacher's privileged products enter as auxiliary *constants*
/// instead of detached graph tensors (the plan compiler has no lowering
/// for detach-derived leaves, and the real trainer runs the teacher under
/// `no_grad` anyway, so a constant is the faithful mirror).
///
/// Every consumer lowers the subgraph reachable from the root it needs:
/// the forecast plan from [`prediction`](Self::prediction), the training
/// plan from [`loss`](Self::loss), and the symbolic-vs-dynamic graph
/// cross-check from [`forecast`](Self::forecast).
#[derive(Debug)]
pub struct StudentTrace {
    /// The tracing context (student parameter registry, in
    /// `Module::params` order).
    pub ctx: SymCtx,
    /// `student(x).forecast` — exactly what `Student::predict` returns.
    pub prediction: SymbolicTensor,
    /// The total-loss root.
    pub loss: SymbolicTensor,
    /// `L_cd` scalar, absent when ablated (the zero term is skipped
    /// structurally — adding an exact `+0` is a bitwise no-op on the
    /// non-negative remaining losses, so values still match the dynamic
    /// path bit for bit).
    pub correlation: Option<SymbolicTensor>,
    /// `L_fd` scalar, absent when ablated.
    pub feature: Option<SymbolicTensor>,
    /// `L_fcst = smooth_l1(prediction, y)` (always present).
    pub forecast: SymbolicTensor,
}

/// Traces the student forward and its complete training objective against
/// auxiliary teacher-product constants ([`TEACHER_ATT_LABEL`],
/// [`TEACHER_EMB_LABEL`]). Ablated distillation arms are skipped
/// structurally, so only the leaves a configuration actually consumes
/// appear in the graph.
pub fn trace_student(
    config: &TimeKdConfig,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
) -> Result<StudentTrace, ShapeError> {
    let ab = config.ablation;
    let ctx = SymCtx::new();
    let student = SymStudent::new(
        &ctx,
        "student",
        config,
        input_len,
        horizon,
        num_vars,
        Fault::None,
    );
    let x = ctx.constant(
        "x",
        vec![SymDim::new("L", input_len), SymDim::new("N", num_vars)],
    );
    let y = ctx.constant(
        "y",
        vec![SymDim::new("M", horizon), SymDim::new("N", num_vars)],
    );
    let out = student.forward(&x)?;
    let correlation = if ab.correlation_distillation {
        let t_att = ctx.constant(
            TEACHER_ATT_LABEL,
            vec![SymDim::new("N", num_vars), SymDim::new("N", num_vars)],
        );
        Some(sym_smooth_l1_loss(&out.attention, &t_att)?)
    } else {
        None
    };
    let feature = if ab.feature_distillation {
        let t_emb = ctx.constant(
            TEACHER_EMB_LABEL,
            vec![SymDim::new("N", num_vars), SymDim::new("D", config.dim)],
        );
        Some(sym_smooth_l1_loss(&out.embedding, &t_emb)?)
    } else {
        None
    };
    let forecast = sym_smooth_l1_loss(&out.forecast, &y)?;
    let combined = match (&correlation, &feature) {
        (Some(c), Some(f)) => Some(
            c.mul_scalar(config.lambda_cd)
                .add(&f.mul_scalar(config.lambda_fd))?,
        ),
        (Some(c), None) => Some(c.mul_scalar(config.lambda_cd)),
        (None, Some(f)) => Some(f.mul_scalar(config.lambda_fd)),
        (None, None) => None,
    };
    let loss = match &combined {
        Some(cmb) => cmb
            .mul_scalar(config.lambda_pkd)
            .add(&forecast.mul_scalar(config.lambda_fcst))?,
        None => forecast.mul_scalar(config.lambda_fcst),
    };
    Ok(StudentTrace {
        ctx,
        prediction: out.forecast,
        loss,
        correlation,
        feature,
        forecast,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationConfig;
    use crate::student::Student;
    use timekd_lm::{LmConfig, LmSize};
    use timekd_nn::{smooth_l1_loss, Module};
    use timekd_tensor::{graph_stats, reachable_params, seeded_rng, GraphAudit};

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

    #[test]
    fn student_loss_graph_matches_dynamic() {
        let cfg = tiny_config(AblationConfig::full());
        let trace = trace_student(&cfg, 24, 8, 7).unwrap();

        let mut rng = seeded_rng(cfg.seed);
        let real = Student::new(&cfg, 24, 8, 7, &mut rng);
        let x = Tensor::randn([24, 7], 1.0, &mut rng);
        let y = Tensor::randn([8, 7], 1.0, &mut rng);
        let real_loss = smooth_l1_loss(&real.forward(&x).forecast, &y);

        let sym = graph_stats(&trace.forecast);
        let dynamic = GraphAudit::run(&real_loss).stats;
        assert_eq!(sym.nodes, dynamic.nodes);
        assert_eq!(sym.edges, dynamic.edges);
        assert_eq!(sym.leaves, dynamic.leaves);
        assert_eq!(sym.params, dynamic.params);
        assert_eq!(sym.max_depth, dynamic.max_depth);
        assert_eq!(trace.ctx.params().len(), real.params().len());
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
            let p = trace_pipeline(&cfg, 24, 8, 7, Fault::None)
                .unwrap_or_else(|e| panic!("{}: {e}", ablation.label()));
            assert_eq!(p.teacher.reconstruction.sizes(), vec![8, 7]);
            assert_eq!(p.student.forecast.sizes(), vec![8, 7]);
            assert_eq!(p.teacher.attention.sizes(), vec![7, 7]);
            assert_eq!(p.student.attention.sizes(), vec![7, 7]);
        }
    }

    #[test]
    fn frozen_lm_unreachable_from_all_losses() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::None).unwrap();
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
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::None).unwrap();
        let reached: std::collections::HashSet<u64> = reachable_params(&p.student_total)
            .iter()
            .map(|t| t.id())
            .collect();
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
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::None).unwrap();
        let reached: std::collections::HashSet<u64> = reachable_params(&p.reconstruction)
            .iter()
            .map(|t| t.id())
            .collect();
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
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::None).unwrap();
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

    #[test]
    fn detached_target_fault_severs_correlation() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::DetachedDistillationTarget).unwrap();
        assert!(reachable_params(&p.correlation).is_empty());
        // The feature loss is untouched by this fault.
        assert!(!reachable_params(&p.feature).is_empty());
    }

    #[test]
    fn unfrozen_lm_fault_reaches_frozen_params() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::UnfrozenLm).unwrap();
        assert!(reachable_params(&p.reconstruction)
            .iter()
            .any(|t| t.is_frozen()));
    }

    #[test]
    fn mismatched_head_dim_fault_is_shape_error() {
        let cfg = tiny_config(AblationConfig::full());
        let err = trace_pipeline(&cfg, 24, 8, 7, Fault::MismatchedHeadDim).unwrap_err();
        assert_eq!(err.op, "reshape");
        assert!(err.label.contains("student.encoder"), "{}", err.label);
    }

    #[test]
    fn dangling_param_fault_registers_unreachable_param() {
        let cfg = tiny_config(AblationConfig::full());
        let p = trace_pipeline(&cfg, 24, 8, 7, Fault::DanglingParam).unwrap();
        let reached: std::collections::HashSet<u64> = p
            .loss_roots()
            .iter()
            .flat_map(|(_, root)| reachable_params(root))
            .map(|t| t.id())
            .collect();
        let dangling: Vec<String> = p
            .ctx
            .params()
            .iter()
            .filter(|q| !q.is_frozen() && !reached.contains(&q.id()))
            .map(|q| q.label().to_string())
            .collect();
        assert_eq!(dangling, vec!["student.dangling.weight".to_string()]);
    }
}
