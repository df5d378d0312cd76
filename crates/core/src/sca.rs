//! Subtractive cross attention (paper §IV-B2, Eq. 8–9, Fig. 5).
//!
//! The last-token embeddings of the ground-truth prompt `L_GT` still carry
//! template-text information that is shared with the historical prompt
//! `L_HD`. SCA estimates that shared (textual) component by channel-wise
//! cross attention from `L_GT` onto `L_HD` and subtracts it, leaving a
//! representation dominated by the *future time-series* content.

use timekd_nn::{Linear, Module, ParamVisitor};
use timekd_tensor::SeededRng;
use timekd_tensor::Tensor;

use crate::norm_helpers::layer_norm_const;

/// Subtractive cross attention over `[N, D]` last-token embeddings.
pub struct SubtractiveCrossAttention {
    phi_q: Linear,
    phi_k: Linear,
    phi_v: Linear,
    theta_c: Linear,
    ln_out: timekd_nn::LayerNorm,
    ffn: timekd_nn::FeedForward,
    dim: usize,
}

impl SubtractiveCrossAttention {
    /// Creates SCA over width `dim`.
    pub fn new(dim: usize, ffn_hidden: usize, rng: &mut SeededRng) -> SubtractiveCrossAttention {
        SubtractiveCrossAttention {
            phi_q: Linear::new_no_bias(dim, dim, rng),
            phi_k: Linear::new_no_bias(dim, dim, rng),
            phi_v: Linear::new_no_bias(dim, dim, rng),
            theta_c: Linear::new(dim, dim, rng),
            ln_out: timekd_nn::LayerNorm::new(dim),
            ffn: timekd_nn::FeedForward::new(dim, ffn_hidden, timekd_nn::Activation::Relu, rng),
            dim,
        }
    }

    /// Eq. 8–9: refines `l_gt` `[N, D]` by subtracting the channel-wise
    /// intersection with `l_hd` `[N, D]`.
    pub fn forward(&self, l_gt: &Tensor, l_hd: &Tensor) -> Tensor {
        assert_eq!(l_gt.dims(), l_hd.dims(), "SCA inputs must match");
        assert_eq!(l_gt.dims()[1], self.dim, "SCA width mismatch");
        // Channel-wise similarity M_C ∈ R^{D×D} (Eq. 8): queries from the
        // GT embedding, keys from the HD embedding, contracted over the
        // variable axis.
        let q = layer_norm_const(&self.phi_q.forward(l_gt)); // [N, D]
        let k = layer_norm_const(&self.phi_k.forward(l_hd)); // [N, D]
        let m_c = q.transpose_last().matmul(&k).softmax_last(); // [D, D]
                                                                // Channel-wise aggregation of the HD values (the shared textual
                                                                // component), then subtraction (Eq. 9).
        let v = self.phi_v.forward(l_hd); // [N, D]
        let intersection = self.theta_c.forward(&v.matmul(&m_c)); // [N, D]
        let refined = l_gt.sub(&intersection);
        self.ffn.forward(&self.ln_out.forward(&refined))
    }

    /// The `w/o_SCA` ablation: plain element-wise subtraction followed by
    /// the same LN + FFN head.
    pub fn forward_direct(&self, l_gt: &Tensor, l_hd: &Tensor) -> Tensor {
        assert_eq!(l_gt.dims(), l_hd.dims(), "SCA inputs must match");
        let refined = l_gt.sub(l_hd);
        self.ffn.forward(&self.ln_out.forward(&refined))
    }
}

impl Module for SubtractiveCrossAttention {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.module("phi_q", &self.phi_q);
        v.module("phi_k", &self.phi_k);
        v.module("phi_v", &self.phi_v);
        v.module("theta_c", &self.theta_c);
        v.module("ln_out", &self.ln_out);
        v.module("ffn", &self.ffn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn output_shape_preserved() {
        let mut rng = seeded_rng(0);
        let sca = SubtractiveCrossAttention::new(8, 16, &mut rng);
        let gt = Tensor::randn([5, 8], 1.0, &mut rng);
        let hd = Tensor::randn([5, 8], 1.0, &mut rng);
        assert_eq!(sca.forward(&gt, &hd).dims(), &[5, 8]);
        assert_eq!(sca.forward_direct(&gt, &hd).dims(), &[5, 8]);
    }

    #[test]
    fn differs_from_direct_subtraction() {
        let mut rng = seeded_rng(1);
        let sca = SubtractiveCrossAttention::new(8, 16, &mut rng);
        let gt = Tensor::randn([4, 8], 1.0, &mut rng);
        let hd = Tensor::randn([4, 8], 1.0, &mut rng);
        assert_ne!(
            sca.forward(&gt, &hd).to_vec(),
            sca.forward_direct(&gt, &hd).to_vec()
        );
    }

    #[test]
    fn sensitive_to_historical_embedding() {
        // The subtracted component comes from L_HD: changing it must change
        // the refined output.
        let mut rng = seeded_rng(2);
        let sca = SubtractiveCrossAttention::new(8, 16, &mut rng);
        let gt = Tensor::randn([4, 8], 1.0, &mut rng);
        let hd1 = Tensor::randn([4, 8], 1.0, &mut rng);
        let hd2 = Tensor::randn([4, 8], 1.0, &mut rng);
        assert_ne!(
            sca.forward(&gt, &hd1).to_vec(),
            sca.forward(&gt, &hd2).to_vec()
        );
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = seeded_rng(3);
        let sca = SubtractiveCrossAttention::new(8, 16, &mut rng);
        let gt = Tensor::randn([4, 8], 1.0, &mut rng);
        let hd = Tensor::randn([4, 8], 1.0, &mut rng);
        sca.forward(&gt, &hd).square().mean().backward();
        for (i, p) in sca.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} got no gradient");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Central-difference check of the full SCA backward (two matmuls
        // through a softmax over the channel axis, plus the LN + FFN head)
        // against every trainable parameter.
        let mut rng = seeded_rng(5);
        let sca = SubtractiveCrossAttention::new(4, 6, &mut rng);
        let gt = Tensor::randn([3, 4], 0.5, &mut rng);
        let hd = Tensor::randn([3, 4], 0.5, &mut rng);
        for p in &sca.params() {
            timekd_tensor::assert_gradients_close(
                p,
                || sca.forward(&gt, &hd).square().mean(),
                3e-2,
            );
        }
    }

    #[test]
    fn removes_common_component_better_than_identity() {
        // Construct L_GT = signal + common, L_HD = common. After training
        // SCA briefly to reconstruct `signal`, the loss should fall well
        // below the initial value — i.e. the architecture can express the
        // removal.
        let mut rng = seeded_rng(4);
        let sca = SubtractiveCrossAttention::new(8, 16, &mut rng);
        let signal = Tensor::randn([6, 8], 1.0, &mut rng);
        let common = Tensor::randn([6, 8], 1.0, &mut rng);
        let gt = signal.add(&common);
        let params = sca.params();
        let mut opt = timekd_nn::AdamW::new(
            0.01,
            timekd_nn::AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let initial = sca
            .forward(&gt, &common)
            .sub(&signal)
            .square()
            .mean()
            .item();
        for _ in 0..80 {
            sca.zero_grad();
            let loss = sca.forward(&gt, &common).sub(&signal).square().mean();
            loss.backward();
            opt.step(&params);
        }
        let trained = sca
            .forward(&gt, &common)
            .sub(&signal)
            .square()
            .mean()
            .item();
        assert!(trained < initial * 0.5, "{initial} -> {trained}");
    }
}
