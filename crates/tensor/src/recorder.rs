//! Replaying recorded real forwards as symbolic IR.
//!
//! The plan compiler and the static passes of `timekd-check` consume the
//! [`SymbolicTensor`] IR. That IR is not written by hand: the real modules
//! run inside a [`record`](crate::record) scope, where every op keeps its
//! parents and static payload, and a [`Recorder`] replays the recorded
//! graph in creation order. Replay copies each op node as it is — op name,
//! dims, payload ([`SymAttr`]), replayed parents — and applies the
//! gradient-tracking rule of `Tensor::from_op`. No op has a replay case of
//! its own, so shapes are checked exactly once, by the engine, when the
//! real forward runs; an op the plan compiler cannot execute fails in its
//! lowering, which names the op and its component.
//!
//! Labels: parameters are registered under the labels of the modules'
//! naming walk ([`Recorder::param`]), runtime leaves by the caller
//! ([`Recorder::name`]), and leaves a module creates itself by
//! [`Tensor::named`]. Each op is labelled with the module of its first
//! parameter operand, or else inherits the label of its first parent that
//! has one.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::symbolic::{module_of, SymAttr, SymCtx, SymbolicTensor};
use crate::tensor::Tensor;

/// A recorded node replay cannot turn into IR: a parameter no naming walk
/// labelled, or an op whose parents were not recorded (it was created
/// outside the [`record`](crate::record) scope without tracking).
#[derive(Clone, Debug)]
pub struct ReplayError {
    /// The recorded op.
    pub op: String,
    /// Component label the op replays under (e.g. `"teacher.sca.phi_q"`).
    pub label: String,
    /// What is missing.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot replay `{}` at `{}`: {}",
            self.op, self.label, self.message
        )
    }
}

impl std::error::Error for ReplayError {}

/// One recorded node as a [`Recorder::replay_with`] hook sees it.
#[derive(Debug)]
pub struct RecordedNode<'a> {
    /// The recorded tensor (op name, dims, recorded `requires_grad`).
    pub tensor: &'a Tensor,
    /// The inferred component label the node replays under.
    pub component: &'a str,
    /// Its parents, already replayed.
    pub parents: &'a [SymbolicTensor],
    /// The context the replay builds in (for [`SymCtx::detach`]).
    pub ctx: &'a SymCtx,
}

/// How a replay hook wants one recorded node replayed.
#[derive(Debug)]
pub enum Rewrite {
    /// Replay it as recorded.
    Keep,
    /// Replay it with gradient tracking even though it was recorded under
    /// `no_grad`.
    LiftNoGrad,
    /// Replay it as recorded, over these parents instead of its own.
    Reparent(Vec<SymbolicTensor>),
    /// Use this node instead.
    Replace(SymbolicTensor),
}

/// Replays recorded real forwards as symbolic IR. See the module docs.
#[derive(Debug, Default)]
pub struct Recorder {
    ctx: SymCtx,
    replayed: HashMap<u64, SymbolicTensor>,
    names: HashMap<u64, String>,
}

/// The component an op with these (replayed) parents belongs to.
fn component_of(parents: &[SymbolicTensor]) -> String {
    parents
        .iter()
        .find(|p| p.is_param())
        .map(SymbolicTensor::owner)
        .or_else(|| {
            parents
                .iter()
                .map(SymbolicTensor::owner)
                .find(|c| !c.is_empty())
        })
        .unwrap_or("")
        .to_string()
}

impl Recorder {
    /// An empty recorder with a fresh [`SymCtx`].
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// The context every replayed node lives in (its parameter registry
    /// lists the registered parameters in registration order).
    pub fn ctx(&self) -> &SymCtx {
        &self.ctx
    }

    /// Registers the parameter `t` under `label`; `frozen` marks it as a
    /// frozen (pretrained) weight for the gradient-flow proofs.
    pub fn param(&mut self, label: &str, t: &Tensor, frozen: bool) {
        let sym = self.ctx.param(label, t.dims().to_vec(), frozen);
        self.replayed.entry(t.id()).or_insert(sym);
    }

    /// Labels `t` as the constant leaf `label` (a runtime input, target or
    /// auxiliary feed); replay treats it as a leaf whatever produced it.
    pub fn name(&mut self, label: &str, t: &Tensor) {
        self.names.insert(t.id(), label.to_string());
    }

    /// Replays everything `roots` depend on and returns their IR nodes.
    pub fn replay(&mut self, roots: &[&Tensor]) -> Result<Vec<SymbolicTensor>, ReplayError> {
        self.replay_with(roots, &mut |_| Rewrite::Keep)
    }

    /// [`replay`](Self::replay), letting `hook` rewrite individual nodes —
    /// how the verifier's fault injection mutates a recording.
    pub fn replay_with(
        &mut self,
        roots: &[&Tensor],
        hook: &mut dyn FnMut(&RecordedNode<'_>) -> Rewrite,
    ) -> Result<Vec<SymbolicTensor>, ReplayError> {
        let mut seen = HashSet::new();
        let mut stack: Vec<Tensor> = roots.iter().map(|&t| t.clone()).collect();
        let mut nodes = Vec::new();
        while let Some(t) = stack.pop() {
            if self.replayed.contains_key(&t.id()) || !seen.insert(t.id()) {
                continue;
            }
            if !self.names.contains_key(&t.id()) {
                stack.extend(t.parents().iter().cloned());
                stack.extend(t.rec().and_then(|r| r.owner.clone()));
            }
            nodes.push(t);
        }
        // Ids grow with creation, so this is recording order: every parent
        // and owner replays before its consumer.
        nodes.sort_by_key(Tensor::id);
        for t in &nodes {
            let sym = self.replay_node(t, hook)?;
            self.replayed.insert(t.id(), sym);
        }
        Ok(roots
            .iter()
            .map(|t| self.replayed[&t.id()].clone())
            .collect())
    }

    fn replay_node(
        &self,
        t: &Tensor,
        hook: &mut dyn FnMut(&RecordedNode<'_>) -> Rewrite,
    ) -> Result<SymbolicTensor, ReplayError> {
        if let Some(label) = self.names.get(&t.id()) {
            return Ok(self.ctx.constant(label, t.dims().to_vec()));
        }
        let parents: Vec<SymbolicTensor> = t
            .parents()
            .iter()
            .map(|p| self.replayed[&p.id()].clone())
            .collect();
        let component = component_of(&parents);
        let node = RecordedNode {
            tensor: t,
            component: &component,
            parents: &parents,
            ctx: &self.ctx,
        };
        let (parents, lift) = match hook(&node) {
            Rewrite::Keep => (parents, false),
            Rewrite::LiftNoGrad => (parents, true),
            Rewrite::Reparent(parents) => (parents, false),
            Rewrite::Replace(sym) => return Ok(sym),
        };
        let op = t.op_name();
        let fail = |message: &str| ReplayError {
            op: op.to_string(),
            label: component.clone(),
            message: message.to_string(),
        };
        match (op, parents.first()) {
            ("param", _) => Err(fail("parameter has no label from the naming walk")),
            ("leaf", Some(source)) => Ok(self.ctx.detach(source)),
            ("leaf", None) => Ok(self.ctx.constant(&self.leaf_label(t), t.dims().to_vec())),
            (_, None) => Err(fail(
                "its parents were not recorded; was it created outside the recording?",
            )),
            _ => {
                // `Tensor::from_op`'s rule over the replayed parents: a
                // node recorded as tracked (or lifted out of `no_grad`)
                // tracks when some parent requires grad.
                let track =
                    (t.requires_grad() || lift) && parents.iter().any(|p| p.requires_grad());
                let attr = t.rec().map_or(SymAttr::None, |r| r.attr.clone());
                Ok(self
                    .ctx
                    .op(op, component, t.dims().to_vec(), attr, parents, track))
            }
        }
    }

    fn leaf_label(&self, t: &Tensor) -> String {
        match t.rec() {
            Some(rec) if !rec.name.is_empty() => {
                let owner = rec.owner.as_ref().and_then(|o| self.replayed.get(&o.id()));
                let module = owner.map_or("", |o| module_of(o.label()));
                format!("{module}.{}", rec.name)
            }
            _ => String::new(),
        }
    }
}

/// Records `f` and replays its output, with each tensor of `labelled`
/// registered under its label: a gradient-requiring one as a parameter,
/// any other as a named constant.
#[cfg(test)]
pub(crate) fn replay_labelled(
    labelled: &[(&str, &Tensor)],
    f: impl FnOnce() -> Tensor,
) -> SymbolicTensor {
    let mut rec = Recorder::new();
    for &(label, t) in labelled {
        if t.requires_grad() {
            rec.param(label, t, false);
        } else {
            rec.name(label, t);
        }
    }
    let out = crate::record(f);
    rec.replay(&[&out])
        .expect("recorded graph replays")
        .remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{no_grad, record, seeded_rng, NEG_INF};

    /// One op under test: its name and how to run it on real tensors.
    type Case = (&'static str, fn(&[Tensor]) -> Tensor);

    /// Operands: `w` a `[4, 6]` parameter, `c` a `[4, 6]` constant, `m` a
    /// `[6, 4]` constant, `q`/`k`/`v` `[2, 4, 3]` parameters, `mask` a
    /// `[4, 4]` causal bias and `t` a `[10, 6]` table parameter.
    fn operands() -> (Vec<Tensor>, Vec<&'static str>) {
        let mut rng = seeded_rng(3);
        let mut mask = vec![0.0f32; 16];
        for i in 0..4 {
            for j in i + 1..4 {
                mask[i * 4 + j] = NEG_INF;
            }
        }
        (
            vec![
                Tensor::randn_param([4, 6], 1.0, &mut rng),
                Tensor::randn([4, 6], 1.0, &mut rng).abs().add_scalar(0.5),
                Tensor::randn([6, 4], 1.0, &mut rng),
                Tensor::randn_param([2, 4, 3], 1.0, &mut rng),
                Tensor::randn_param([2, 4, 3], 1.0, &mut rng),
                Tensor::randn_param([2, 4, 3], 1.0, &mut rng),
                Tensor::from_vec(mask, [4, 4]),
                Tensor::randn_param([10, 6], 1.0, &mut rng),
            ],
            vec![
                "layer.w", "c", "m", "attn.q", "attn.k", "attn.v", "mask", "emb.t",
            ],
        )
    }

    fn cases() -> Vec<Case> {
        vec![
            ("add", |o| o[0].add(&o[1])),
            ("sub", |o| o[0].sub(&o[1])),
            ("mul", |o| o[0].mul(&o[1])),
            ("div", |o| o[0].div(&o[1])),
            ("add_scalar", |o| o[0].add_scalar(1e-5)),
            ("mul_scalar", |o| o[0].mul_scalar(0.25)),
            ("untracked mul_scalar", |o| o[1].mul_scalar(3.0)),
            ("no_grad mul_scalar", |o| no_grad(|| o[0].mul_scalar(2.0))),
            ("rsqrt", |o| o[1].rsqrt()),
            ("square", |o| o[0].square()),
            ("relu", |o| o[0].relu()),
            ("gelu", |o| o[0].gelu()),
            ("exp", |o| o[0].exp()),
            ("ln", |o| o[1].mul(&o[0].square().add_scalar(1.0)).ln()),
            ("sqrt", |o| o[0].square().sqrt()),
            ("abs", |o| o[0].abs()),
            ("tanh", |o| o[0].tanh()),
            ("sigmoid", |o| o[0].sigmoid()),
            ("clamp", |o| o[0].clamp(-0.5, 0.5)),
            ("softmax_last", |o| o[0].softmax_last()),
            ("sum_axis", |o| o[0].sum_axis(1, true)),
            ("sum", |o| o[0].sum()),
            ("smooth_l1", |o| o[0].smooth_l1(&o[1])),
            ("matmul_2d", |o| o[0].matmul(&o[2])),
            ("reshape", |o| o[0].reshape([4, 2, 3])),
            ("permute", |o| o[3].permute(&[1, 0, 2])),
            ("slice", |o| o[0].slice(1, 2, 3)),
            ("concat", |o| Tensor::concat(&o[..2], 0)),
            ("index_select_rows", |o| {
                o[7].index_select_rows(&Tensor::indices(&[3, 1, 3]))
            }),
            ("fused_attention", |o| {
                Tensor::fused_attention(&o[3], &o[4], &o[5], None).0
            }),
            ("fused_attention_map", |o| {
                Tensor::fused_attention(&o[3], &o[4], &o[5], None).1
            }),
            ("masked fused_attention", |o| {
                Tensor::fused_attention(&o[3], &o[4], &o[5], Some(&o[6])).0
            }),
            ("masked fused_attention_map", |o| {
                Tensor::fused_attention(&o[3], &o[4], &o[5], Some(&o[6])).1
            }),
        ]
    }

    #[test]
    fn every_replayed_op_copies_the_recorded_node() {
        let (ops, labels) = operands();
        for (name, real) in cases() {
            let labelled: Vec<(&str, &Tensor)> = labels.iter().copied().zip(&ops).collect();
            let mut out = None;
            let replayed = replay_labelled(&labelled, || out.insert(real(&ops)).clone());
            let out = out.expect("recorded");
            let payload = out.rec().map_or(&SymAttr::None, |r| &r.attr);
            assert_eq!(replayed.op_name(), out.op_name(), "{name}");
            assert_eq!(replayed.dims(), out.dims(), "{name}");
            assert_eq!(replayed.attr(), payload, "{name}");
            assert_eq!(replayed.requires_grad(), out.requires_grad(), "{name}");
            assert_eq!(replayed.is_leaf(), out.is_leaf(), "{name}");
            assert_eq!(replayed.parents().len(), out.parents().len(), "{name}");
        }
    }

    #[test]
    fn untracked_ops_keep_their_parents_only_while_recording() {
        let c = Tensor::ones([3]);
        assert!(c.mul_scalar(2.0).parents().is_empty());
        let recorded = record(|| c.mul_scalar(2.0));
        assert_eq!(recorded.parents().len(), 1);
        assert!(!recorded.requires_grad() && recorded.is_leaf());
    }

    #[test]
    fn unlabelled_parameter_is_an_error() {
        let w = Tensor::param(vec![0.5; 4], [4]);
        let out = record(|| w.relu());
        let err = Recorder::new().replay(&[&out]).unwrap_err();
        assert_eq!(err.op, "param");
    }

    #[test]
    fn op_with_unrecorded_parents_is_an_error() {
        let w = Tensor::param(vec![0.5; 4], [4]);
        let scale = Tensor::ones([4]).mul_scalar(2.0);
        let mut rec = Recorder::new();
        rec.param("encoder.proj.weight", &w, false);
        let out = record(|| w.mul(&scale));
        let err = rec.replay(&[&out]).unwrap_err();
        assert_eq!(err.op, "mul_scalar");
        assert!(err.message.contains("outside the recording"), "{err}");
    }

    #[test]
    fn named_leaves_and_detaches_replay_with_their_labels() {
        let gamma = Tensor::param(vec![1.0; 3], [3]);
        let mut rec = Recorder::new();
        rec.param("student.revin.gamma", &gamma, false);
        let (mu, cut) = record(|| {
            let mu = Tensor::zeros([1, 3]).named("mu", &gamma);
            (mu.clone(), gamma.mul(&mu).detach())
        });
        let syms = rec.replay(&[&mu, &cut]).unwrap();
        assert_eq!(syms[0].label(), "student.revin.mu");
        assert!(!syms[1].requires_grad() && syms[1].is_leaf());
        assert_eq!(syms[1].parents().len(), 1, "a detach keeps its provenance");
        assert!(syms[1].label().ends_with("detach"), "{}", syms[1].label());
    }
}
