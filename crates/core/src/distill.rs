//! Privileged knowledge distillation (paper §IV-D, Alg. 2).
//!
//! Two complementary losses transfer the teacher's privileged knowledge:
//! - **correlation distillation** (Eq. 24) aligns the student's attention
//!   map `A_TSE` with the teacher's `A_PE`, making the student imitate the
//!   teacher's *behaviour* (which variables attend to which);
//! - **feature distillation** (Eq. 25) aligns the student's encoder output
//!   `T̄_H` with the teacher's privileged embedding `E_GT`, minimising the
//!   output discrepancy.
//!
//! Teacher tensors are detached: gradients flow into the student only, so
//! the student cannot drag the teacher toward itself.

use timekd_nn::smooth_l1_loss;
use timekd_tensor::Tensor;

use crate::config::TimeKdConfig;
use crate::student::{Student, StudentOutput};
use crate::teacher::CrossModalityTeacher;

/// The PKD loss terms for one window.
pub struct PkdLosses {
    /// `L_cd` (zero tensor when disabled by ablation).
    pub correlation: Tensor,
    /// `L_fd` (zero tensor when disabled by ablation).
    pub feature: Tensor,
    /// `λ_c · L_cd + λ_e · L_fd` (Eq. 26).
    pub combined: Tensor,
}

/// Stops gradients into a teacher product. A tensor that carries none —
/// the trainer's teacher runs under `no_grad` — is already a constant and
/// passes through as it is.
fn stop_grad(t: &Tensor) -> Tensor {
    if t.requires_grad() {
        t.detach()
    } else {
        t.clone()
    }
}

/// Computes the PKD losses from teacher and student products.
///
/// `teacher_attention`/`teacher_embedding` are detached internally. An
/// ablated term is reported as a zero scalar but left out of `combined`
/// (adding an exact `+0` to the non-negative remaining terms would change
/// no bit, only the graph).
pub fn pkd_losses(
    teacher_attention: &Tensor,
    teacher_embedding: &Tensor,
    student_attention: &Tensor,
    student_embedding: &Tensor,
    config: &TimeKdConfig,
) -> PkdLosses {
    let ab = config.ablation;
    let correlation = ab.correlation_distillation.then(|| {
        let _span = timekd_obs::span("pkd.correlation");
        smooth_l1_loss(student_attention, &stop_grad(teacher_attention))
    });
    let feature = ab.feature_distillation.then(|| {
        let _span = timekd_obs::span("pkd.feature");
        smooth_l1_loss(student_embedding, &stop_grad(teacher_embedding))
    });
    let combined = match (&correlation, &feature) {
        (Some(c), Some(f)) => c
            .mul_scalar(config.lambda_cd)
            .add(&f.mul_scalar(config.lambda_fd)),
        (Some(c), None) => c.mul_scalar(config.lambda_cd),
        (None, Some(f)) => f.mul_scalar(config.lambda_fd),
        (None, None) => Tensor::scalar(0.0),
    };
    let zero = || Tensor::scalar(0.0);
    PkdLosses {
        correlation: correlation.unwrap_or_else(zero),
        feature: feature.unwrap_or_else(zero),
        combined,
    }
}

/// The student objective's loss terms for one window (Alg. 2, Eq. 29–30).
pub struct StudentObjective {
    /// `λ_p·(λ_c·L_cd + λ_e·L_fd) + λ_f·L_fcst` — the root to backpropagate.
    pub total: Tensor,
    /// `L_cd` (zero tensor when disabled by ablation).
    pub correlation: Tensor,
    /// `L_fd` (zero tensor when disabled by ablation).
    pub feature: Tensor,
    /// `L_fcst`.
    pub forecast: Tensor,
}

/// Builds the student objective for one window on the dynamic engine: the
/// student forward on `x`, PKD against the teacher's privileged products,
/// and the forecasting loss against `y`. This is the one dynamic
/// reference the compiled objective plan
/// ([`PlannedBatchTrainer`](crate::PlannedBatchTrainer)) must match bit
/// for bit — the trainer's oracle epoch, the plan verifier and the
/// kernels bench all step it, and the plan itself is lowered from a
/// recording of it.
pub fn student_objective(
    student: &Student,
    config: &TimeKdConfig,
    x: &Tensor,
    y: &Tensor,
    teacher_attention: &Tensor,
    teacher_embedding: &Tensor,
) -> StudentObjective {
    student_objective_of(
        &student.forward(x),
        config,
        y,
        teacher_attention,
        teacher_embedding,
    )
}

/// [`student_objective`] over an existing student forward.
pub(crate) fn student_objective_of(
    out: &StudentOutput,
    config: &TimeKdConfig,
    y: &Tensor,
    teacher_attention: &Tensor,
    teacher_embedding: &Tensor,
) -> StudentObjective {
    let pkd = pkd_losses(
        teacher_attention,
        teacher_embedding,
        &out.attention,
        &out.embedding,
        config,
    );
    let forecast = smooth_l1_loss(&out.forecast, y);
    let weighted = forecast.mul_scalar(config.lambda_fcst);
    let ab = config.ablation;
    let total = if ab.correlation_distillation || ab.feature_distillation {
        pkd.combined.mul_scalar(config.lambda_pkd).add(&weighted)
    } else {
        weighted
    };
    StudentObjective {
        total,
        correlation: pkd.correlation,
        feature: pkd.feature,
        forecast,
    }
}

/// The teacher's training objective for one window on the dynamic
/// engine (Alg. 1, Eq. 16): its forward past the frozen CLM on the
/// window's CLM `rows` ([`CrossModalityTeacher::forward_rows`]), then
/// `λ_r · L_recon`. This is the dynamic reference the compiled teacher
/// plan ([`PlannedTeacherTrainer`](crate::PlannedTeacherTrainer)) must
/// match bit for bit, and the plan is lowered from a recording of it.
pub fn teacher_objective(
    teacher: &CrossModalityTeacher,
    config: &TimeKdConfig,
    x: &Tensor,
    y: &Tensor,
    rows: Option<&(Tensor, Tensor)>,
) -> Tensor {
    reconstruction_objective(&teacher.forward_rows(x, y, rows).reconstruction, y, config)
}

/// The teacher's reconstruction objective (Alg. 1, Eq. 16):
/// `λ_r · L_recon` of its reconstruction against the future window.
pub(crate) fn reconstruction_objective(
    reconstruction: &Tensor,
    y: &Tensor,
    config: &TimeKdConfig,
) -> Tensor {
    smooth_l1_loss(reconstruction, y).mul_scalar(config.lambda_recon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationConfig;
    use timekd_tensor::seeded_rng;

    fn setup() -> (Tensor, Tensor, Tensor, Tensor) {
        let mut rng = seeded_rng(0);
        let ta = Tensor::randn([4, 4], 0.2, &mut rng).softmax_last();
        let te = Tensor::randn([4, 8], 1.0, &mut rng);
        let sa = Tensor::randn_param([4, 4], 0.2, &mut rng).softmax_last();
        let se = Tensor::randn_param([4, 8], 1.0, &mut rng);
        (ta, te, sa, se)
    }

    #[test]
    fn perfect_student_zero_loss() {
        let (ta, te, _, _) = setup();
        let cfg = TimeKdConfig::default();
        let l = pkd_losses(&ta, &te, &ta, &te, &cfg);
        assert_eq!(l.correlation.item(), 0.0);
        assert_eq!(l.feature.item(), 0.0);
        assert_eq!(l.combined.item(), 0.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn combined_respects_lambdas() {
        let (ta, te, sa, se) = setup();
        let mut cfg = TimeKdConfig::default();
        cfg.lambda_cd = 2.0;
        cfg.lambda_fd = 0.5;
        let l = pkd_losses(&ta, &te, &sa, &se, &cfg);
        let expected = 2.0 * l.correlation.item() + 0.5 * l.feature.item();
        assert!((l.combined.item() - expected).abs() < 1e-6);
    }

    #[test]
    fn gradient_flows_to_student_not_teacher() {
        let mut rng = seeded_rng(1);
        let ta = Tensor::randn_param([3, 3], 0.2, &mut rng); // trainable teacher (should be detached)
        let te = Tensor::randn_param([3, 8], 1.0, &mut rng);
        let sa = Tensor::randn_param([3, 3], 0.2, &mut rng);
        let se = Tensor::randn_param([3, 8], 1.0, &mut rng);
        let cfg = TimeKdConfig::default();
        let l = pkd_losses(&ta, &te, &sa, &se, &cfg);
        l.combined.backward();
        assert!(sa.grad().is_some() && se.grad().is_some());
        assert!(ta.grad().is_none(), "teacher attention must be detached");
        assert!(te.grad().is_none(), "teacher embedding must be detached");
    }

    #[test]
    fn ablation_disables_terms() {
        let (ta, te, sa, se) = setup();
        let cd_off =
            TimeKdConfig::with_ablation(AblationConfig::without_correlation_distillation());
        let l = pkd_losses(&ta, &te, &sa, &se, &cd_off);
        assert_eq!(l.correlation.item(), 0.0);
        assert!(l.feature.item() > 0.0);

        let fd_off = TimeKdConfig::with_ablation(AblationConfig::without_feature_distillation());
        let l = pkd_losses(&ta, &te, &sa, &se, &fd_off);
        assert!(l.correlation.item() > 0.0);
        assert_eq!(l.feature.item(), 0.0);
    }

    #[test]
    fn distillation_gradients_match_finite_differences() {
        // Central-difference check of both PKD terms. The correlation loss
        // only touches the student attention and the feature loss only the
        // student embedding, so each is checked against its own parameter;
        // the combined loss is checked against both.
        let mut rng = seeded_rng(3);
        let ta = Tensor::randn([3, 3], 0.2, &mut rng).softmax_last();
        let te = Tensor::randn([3, 4], 0.4, &mut rng);
        let sa_logits = Tensor::randn_param([3, 3], 0.2, &mut rng);
        let se = Tensor::randn_param([3, 4], 0.4, &mut rng);
        let cfg = TimeKdConfig::default();
        timekd_tensor::assert_gradients_close(
            &sa_logits,
            || pkd_losses(&ta, &te, &sa_logits.softmax_last(), &se, &cfg).correlation,
            3e-2,
        );
        timekd_tensor::assert_gradients_close(
            &se,
            || pkd_losses(&ta, &te, &sa_logits.softmax_last(), &se, &cfg).feature,
            3e-2,
        );
        for p in [&sa_logits, &se] {
            timekd_tensor::assert_gradients_close(
                p,
                || pkd_losses(&ta, &te, &sa_logits.softmax_last(), &se, &cfg).combined,
                3e-2,
            );
        }
    }

    #[test]
    fn minimising_pkd_aligns_student_with_teacher() {
        let mut rng = seeded_rng(2);
        let ta = Tensor::randn([3, 3], 0.2, &mut rng).softmax_last();
        let te = Tensor::randn([3, 4], 1.0, &mut rng);
        let sa_logits = Tensor::randn_param([3, 3], 0.2, &mut rng);
        let se = Tensor::randn_param([3, 4], 1.0, &mut rng);
        let cfg = TimeKdConfig::default();
        let mut opt = timekd_nn::AdamW::new(
            0.05,
            timekd_nn::AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let params = vec![sa_logits.clone(), se.clone()];
        let loss_val = |sa_logits: &Tensor, se: &Tensor| {
            pkd_losses(&ta, &te, &sa_logits.softmax_last(), se, &cfg)
                .combined
                .item()
        };
        let before = loss_val(&sa_logits, &se);
        for _ in 0..150 {
            for p in &params {
                p.zero_grad();
            }
            let l = pkd_losses(&ta, &te, &sa_logits.softmax_last(), &se, &cfg);
            l.combined.backward();
            opt.step(&params);
        }
        let after = loss_val(&sa_logits, &se);
        assert!(after < before * 0.1, "{before} -> {after}");
    }
}
