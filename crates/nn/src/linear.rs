//! Affine layers: [`Linear`] and [`Embedding`].

use timekd_tensor::SeededRng;
use timekd_tensor::Tensor;

use crate::module::{Module, ParamVisitor};

/// Fully connected layer `y = x W + b` over the last axis.
///
/// The weight is stored `[in_features, out_features]` so the forward pass is
/// a plain matmul with no transpose.
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Xavier-initialised linear layer with bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Linear {
        Linear {
            weight: Tensor::xavier_uniform([in_features, out_features], rng),
            bias: Some(Tensor::zeros_param([out_features])),
            in_features,
            out_features,
        }
    }

    /// Linear layer without a bias term (used for attention projections).
    pub fn new_no_bias(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Linear {
        Linear {
            weight: Tensor::xavier_uniform([in_features, out_features], rng),
            bias: None,
            in_features,
            out_features,
        }
    }

    /// Applies the layer to a tensor whose last axis is `in_features`
    /// (rank 2 or 3).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let rank = x.shape().rank();
        assert!(
            rank == 2 || rank == 3,
            "Linear expects rank 2 or 3 input, got {}",
            x.shape()
        );
        assert_eq!(
            x.dims()[rank - 1],
            self.in_features,
            "Linear: input last dim {} != in_features {}",
            x.dims()[rank - 1],
            self.in_features
        );
        let y = x.matmul(&self.weight);
        match &self.bias {
            Some(b) => y.add(b),
            None => y,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight tensor (for tying or inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Module for Linear {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.param("weight", &self.weight);
        if let Some(b) = &self.bias {
            v.param("bias", b);
        }
    }
}

/// Token embedding table.
pub struct Embedding {
    weight: Tensor,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Normal(0, 0.02) initialised embedding, the GPT-2 convention.
    pub fn new(vocab: usize, dim: usize, rng: &mut SeededRng) -> Embedding {
        Embedding {
            weight: Tensor::randn_param([vocab, dim], 0.02, rng),
            vocab,
            dim,
        }
    }

    /// Looks up `ids`, producing `[ids.len(), dim]`.
    pub fn forward(&self, ids: &[usize]) -> Tensor {
        self.weight.index_select_rows(&Tensor::indices(ids))
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The full table (for weight tying with an output head).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Module for Embedding {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.param("weight", &self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn linear_shapes() {
        let mut rng = seeded_rng(0);
        let l = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn([5, 4], 1.0, &mut rng);
        assert_eq!(l.forward(&x).dims(), &[5, 3]);
        let x3 = Tensor::randn([2, 5, 4], 1.0, &mut rng);
        assert_eq!(l.forward(&x3).dims(), &[2, 5, 3]);
    }

    #[test]
    fn linear_param_count() {
        let mut rng = seeded_rng(0);
        assert_eq!(Linear::new(4, 3, &mut rng).num_params(), 15);
        assert_eq!(Linear::new_no_bias(4, 3, &mut rng).num_params(), 12);
    }

    #[test]
    fn linear_zero_weight_outputs_bias() {
        let mut rng = seeded_rng(0);
        let l = Linear::new(2, 2, &mut rng);
        l.weight().copy_from_slice(&[0.0; 4]);
        l.params()[1].copy_from_slice(&[1.5, -2.0]);
        let x = Tensor::randn([3, 2], 1.0, &mut rng);
        let y = l.forward(&x).to_vec();
        for r in 0..3 {
            assert_eq!(y[r * 2], 1.5);
            assert_eq!(y[r * 2 + 1], -2.0);
        }
    }

    #[test]
    fn linear_grad_check() {
        let mut rng = seeded_rng(1);
        let l = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        let w = l.params()[0].clone();
        timekd_tensor::assert_gradients_close(&w, || l.forward(&x).square().mean(), 1e-2);
        let b = l.params()[1].clone();
        timekd_tensor::assert_gradients_close(&b, || l.forward(&x).square().mean(), 1e-2);
    }

    #[test]
    #[should_panic(expected = "in_features")]
    fn linear_wrong_width_panics() {
        let mut rng = seeded_rng(0);
        let l = Linear::new(4, 3, &mut rng);
        let x = Tensor::zeros([5, 5]);
        let _ = l.forward(&x);
    }

    #[test]
    fn embedding_lookup_rows() {
        let mut rng = seeded_rng(2);
        let e = Embedding::new(10, 4, &mut rng);
        let out = e.forward(&[3, 3, 7]);
        assert_eq!(out.dims(), &[3, 4]);
        let v = out.to_vec();
        assert_eq!(&v[0..4], &v[4..8], "same id gives same row");
    }

    #[test]
    fn embedding_grad_accumulates_per_row() {
        let mut rng = seeded_rng(3);
        let e = Embedding::new(5, 2, &mut rng);
        e.forward(&[1, 1, 4]).sum().backward();
        let g = e.weight().grad().unwrap();
        assert_eq!(&g[2..4], &[2.0, 2.0]); // row 1 used twice
        assert_eq!(&g[8..10], &[1.0, 1.0]); // row 4 once
        assert_eq!(&g[0..2], &[0.0, 0.0]);
    }
}
