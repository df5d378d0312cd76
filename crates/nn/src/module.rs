//! Parameter registry and checkpointing shared by every layer.

use timekd_tensor::bytes::{Bytes, BytesMut};
use timekd_tensor::io::{decode_tensor, encode_tensor, DecodeError};
use timekd_tensor::Tensor;

/// The naming walk over a module tree: [`Module::visit_params`] reports
/// each parameter and submodule by name, and the visitor tracks the dotted
/// path (`encoder.layer0.attn.wq.weight`).
pub struct ParamVisitor<'a> {
    path: String,
    f: &'a mut dyn FnMut(&str, &Tensor),
}

impl ParamVisitor<'_> {
    /// Visits the parameter `name` of the current module.
    pub fn param(&mut self, name: &str, t: &Tensor) {
        self.scoped(name, |v| (v.f)(&v.path, t));
    }

    /// Visits every parameter of the submodule `name`.
    pub fn module(&mut self, name: &str, m: &dyn Module) {
        self.scoped(name, |v| m.visit_params(v));
    }

    fn scoped(&mut self, name: &str, body: impl FnOnce(&mut Self)) {
        let len = self.path.len();
        if len > 0 {
            self.path.push('.');
        }
        self.path.push_str(name);
        body(self);
        self.path.truncate(len);
    }
}

/// Anything that owns trainable parameters.
pub trait Module {
    /// The one naming walk: visits every trainable parameter in a stable
    /// order under its name within this module. [`Module::params`] and
    /// [`Module::named_params`] both derive from it, and its labels are
    /// the model registry's on-disk format.
    fn visit_params(&self, v: &mut ParamVisitor<'_>);

    /// All trainable parameters, in the walk's order (used by the
    /// optimizer and by checkpointing).
    fn params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut ParamVisitor {
            path: String::new(),
            f: &mut |_, t| out.push(t.clone()),
        });
        out
    }

    /// Every trainable parameter with its dotted label under `prefix`, in
    /// the walk's order.
    fn named_params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.visit_params(&mut ParamVisitor {
            path: prefix.to_string(),
            f: &mut |label, t| out.push((label.to_string(), t.clone())),
        });
        out
    }

    /// Total number of trainable scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(Tensor::num_elements).sum()
    }

    /// Clears gradients of all parameters.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Serialises all parameter tensors into one blob.
    fn save_params(&self) -> Bytes {
        let mut buf = BytesMut::new();
        for p in self.params() {
            buf.extend_from_slice(&encode_tensor(&p));
        }
        buf.freeze()
    }

    /// Restores parameter values from a blob produced by
    /// [`Module::save_params`] on an identically shaped module.
    fn load_params(&self, blob: &mut Bytes) -> Result<(), DecodeError> {
        for p in self.params() {
            let loaded = decode_tensor(blob)?;
            if loaded.dims() != p.dims() {
                return Err(DecodeError::BadShape);
            }
            p.copy_from_slice(&loaded.data());
        }
        Ok(())
    }
}

/// A plain bag of parameters (for ad-hoc composites).
pub struct ParamList(pub Vec<Tensor>);

impl Module for ParamList {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        for (i, p) in self.0.iter().enumerate() {
            v.param(&i.to_string(), p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_params_counts_scalars() {
        let list = ParamList(vec![Tensor::zeros_param([2, 3]), Tensor::zeros_param([4])]);
        assert_eq!(list.num_params(), 10);
    }

    #[test]
    fn zero_grad_clears() {
        let p = Tensor::zeros_param([2]);
        p.accumulate_grad(&[1.0, 1.0]);
        let list = ParamList(vec![p.clone()]);
        list.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn save_load_round_trip() {
        let a = Tensor::param(vec![1.0, 2.0, 3.0], [3]);
        let list = ParamList(vec![a.clone()]);
        let mut blob = list.save_params();

        let b = Tensor::zeros_param([3]);
        let list2 = ParamList(vec![b.clone()]);
        list2.load_params(&mut blob).unwrap();
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn load_shape_mismatch_rejected() {
        let a = Tensor::param(vec![1.0; 4], [4]);
        let mut blob = ParamList(vec![a]).save_params();
        let b = Tensor::zeros_param([2, 2]);
        let err = ParamList(vec![b]).load_params(&mut blob).unwrap_err();
        assert_eq!(err, DecodeError::BadShape);
    }
}
