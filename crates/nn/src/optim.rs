//! Optimisers and gradient utilities. The paper trains with AdamW.

use std::collections::HashMap;

use timekd_tensor::simd::{adamw_lanes, AdamWStep};
use timekd_tensor::Tensor;

/// AdamW hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamWConfig {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
        }
    }
}

struct MomentState {
    m: Vec<f32>,
    v: Vec<f32>,
}

/// Decoupled-weight-decay Adam (Loshchilov & Hutter).
///
/// State is keyed by tensor node id, so one optimizer instance can drive an
/// arbitrary, stable set of parameters.
pub struct AdamW {
    lr: f32,
    config: AdamWConfig,
    step_count: u64,
    state: HashMap<u64, MomentState>,
}

impl AdamW {
    /// Creates an optimizer with learning rate `lr`.
    pub fn new(lr: f32, config: AdamWConfig) -> AdamW {
        AdamW {
            lr,
            config,
            step_count: 0,
            state: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Records one optimizer step that was applied *outside* this
    /// optimizer — e.g. by a compiled training plan's fused update — so
    /// the bias-correction clock stays in sync when dynamic and planned
    /// steps are interleaved on the same schedule.
    pub fn note_external_step(&mut self) {
        self.step_count += 1;
    }

    /// True if this optimizer has ever stepped the parameter with node id
    /// `id`. Lets invariant checks prove frozen parameters were never
    /// touched (moment state is created on first step).
    pub fn has_stepped(&self, id: u64) -> bool {
        self.state.contains_key(&id)
    }

    /// Applies one AdamW update to every parameter that has a gradient,
    /// then leaves gradients untouched (call `zero_grad` before the next
    /// backward).
    pub fn step(&mut self, params: &[Tensor]) {
        let _span = timekd_obs::span("optim.step");
        self.step_count += 1;
        let c = self.config;
        let step = AdamWStep::new(
            self.lr,
            c.beta1,
            c.beta2,
            c.eps,
            c.weight_decay,
            self.step_count,
        );
        for p in params {
            let Some(grad) = p.grad_ref() else { continue };
            let n = p.num_elements();
            let state = self.state.entry(p.id()).or_insert_with(|| MomentState {
                m: vec![0.0; n],
                v: vec![0.0; n],
            });
            debug_assert_eq!(state.m.len(), n);
            p.update_data(|data| adamw_lanes(data, &grad, &mut state.m, &mut state.v, &step));
        }
    }
}

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. Gradients are read and scaled in place.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad_ref() {
            total += g.iter().map(|x| x * x).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.update_grad(|g| {
                for x in g {
                    *x *= scale;
                }
            });
        }
    }
    norm
}

/// Simple learning-rate schedules.
#[derive(Clone, Copy, Debug)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Linear warmup for `warmup` steps then cosine decay to `min_factor *
    /// base_lr` over `total` steps.
    WarmupCosine {
        /// Warmup step count.
        warmup: u64,
        /// Total step count of the schedule.
        total: u64,
        /// Final LR as a fraction of the base LR.
        min_factor: f32,
    },
}

impl LrSchedule {
    /// Learning-rate multiplier at `step`.
    pub fn factor(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::WarmupCosine {
                warmup,
                total,
                min_factor,
            } => {
                if warmup > 0 && step < warmup {
                    (step + 1) as f32 / warmup as f32
                } else if step >= total {
                    min_factor
                } else {
                    let progress = (step - warmup) as f32 / (total - warmup).max(1) as f32;
                    let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                    min_factor + (1.0 - min_factor) * cos
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn adamw_minimises_quadratic() {
        let p = Tensor::param(vec![5.0, -3.0], [2]);
        let mut opt = AdamW::new(
            0.1,
            AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        for _ in 0..200 {
            p.zero_grad();
            let loss = p.square().sum();
            loss.backward();
            opt.step(std::slice::from_ref(&p));
        }
        assert!(
            p.to_vec().iter().all(|x| x.abs() < 1e-2),
            "{:?}",
            p.to_vec()
        );
    }

    #[test]
    fn adamw_skips_params_without_grad() {
        let p = Tensor::param(vec![1.0], [1]);
        let q = Tensor::param(vec![2.0], [1]);
        let mut opt = AdamW::new(0.1, Default::default());
        p.zero_grad();
        p.square().sum().backward();
        opt.step(&[p.clone(), q.clone()]);
        assert_eq!(q.to_vec(), vec![2.0], "untouched without grad");
        assert_ne!(p.to_vec(), vec![1.0]);
    }

    #[test]
    fn weight_decay_shrinks_idle_direction() {
        // With pure decay (zero gradient on the loss), weights decay.
        let p = Tensor::param(vec![1.0], [1]);
        let mut opt = AdamW::new(
            0.1,
            AdamWConfig {
                weight_decay: 0.5,
                ..Default::default()
            },
        );
        p.accumulate_grad(&[0.0]);
        opt.step(std::slice::from_ref(&p));
        assert!(p.item() < 1.0);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let p = Tensor::param(vec![0.0; 4], [4]);
        p.accumulate_grad(&[3.0, 4.0, 0.0, 0.0]); // norm 5
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = p.grad().unwrap();
        let post: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let p = Tensor::param(vec![0.0; 2], [2]);
        p.accumulate_grad(&[0.3, 0.4]);
        clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(p.grad().unwrap(), vec![0.3, 0.4]);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = LrSchedule::WarmupCosine {
            warmup: 10,
            total: 110,
            min_factor: 0.1,
        };
        assert!(s.factor(0) < s.factor(5));
        assert!((s.factor(9) - 1.0).abs() < 1e-6);
        assert!(s.factor(50) < 1.0 && s.factor(50) > 0.1);
        assert!((s.factor(1000) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn adamw_trains_linear_regression() {
        let mut rng = seeded_rng(0);
        let true_w = Tensor::from_vec(vec![2.0, -1.0, 0.5], [3, 1]);
        let x = Tensor::randn([32, 3], 1.0, &mut rng);
        let y = x.matmul(&true_w);
        let w = Tensor::zeros_param([3, 1]);
        let mut opt = AdamW::new(
            0.05,
            AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        for _ in 0..300 {
            w.zero_grad();
            x.matmul(&w).sub(&y).square().mean().backward();
            opt.step(std::slice::from_ref(&w));
        }
        let learned = w.to_vec();
        for (a, b) in learned.iter().zip([2.0, -1.0, 0.5]) {
            assert!((a - b).abs() < 0.05, "{learned:?}");
        }
    }
}
