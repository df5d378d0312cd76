//! Replaying recorded real forwards as symbolic IR.
//!
//! The plan compiler and the static passes of `timekd-check` consume the
//! [`SymbolicTensor`] IR. That IR is not written by hand: the real modules
//! run inside a [`record`](crate::record) scope, where every op keeps its
//! parents and static payload, and a [`Recorder`] replays the recorded
//! graph, in creation order, through the `SymbolicTensor` constructors. So
//! shape inference, [`ShapeError`] provenance and the gradient-tracking
//! rule come from the IR as before, while the graph comes from the one
//! forward definition the engine executes.
//!
//! Labels: parameters are registered under the labels of the modules'
//! naming walk ([`Recorder::param`]), runtime leaves by the caller
//! ([`Recorder::name`]), and leaves a module creates itself by
//! [`Tensor::named`]. Each op is labelled with the module of its first
//! parameter operand, or else inherits the label of its first parent that
//! has one — which is where shape errors report them.

use std::collections::{HashMap, HashSet};

use crate::symbolic::{ShapeError, SymAttr, SymCtx, SymbolicTensor};
use crate::tensor::Tensor;

type SymResult = Result<SymbolicTensor, ShapeError>;

/// One recorded node as a [`Recorder::replay_with`] hook sees it.
#[derive(Debug)]
pub struct RecordedNode<'a> {
    /// The recorded tensor (op name, dims, recorded `requires_grad`).
    pub tensor: &'a Tensor,
    /// The inferred component label the node replays under.
    pub component: &'a str,
    /// Its parents, already replayed.
    pub parents: &'a [SymbolicTensor],
}

/// How a replay hook wants one recorded node replayed.
#[derive(Debug)]
pub enum Rewrite {
    /// Replay it as recorded.
    Keep,
    /// Replay it with gradient tracking even though it was recorded under
    /// `no_grad`.
    LiftNoGrad,
    /// Use this node (or error) instead.
    Replace(SymResult),
}

/// Replays recorded real forwards as symbolic IR. See the module docs.
#[derive(Debug, Default)]
pub struct Recorder {
    ctx: SymCtx,
    replayed: HashMap<u64, SymbolicTensor>,
    names: HashMap<u64, String>,
    /// Attention maps produced alongside a context node, keyed by the
    /// context node's recorded id.
    maps: HashMap<u64, SymbolicTensor>,
}

/// The module part of a dotted label (`a.b.weight` → `a.b`).
fn module_of(label: &str) -> &str {
    label.rsplit_once('.').map_or("", |(m, _)| m)
}

/// The component an op with these (replayed) parents belongs to.
fn component_of(parents: &[SymbolicTensor]) -> String {
    fn own(p: &SymbolicTensor) -> &str {
        match p.op_name() {
            "param" | "leaf" => module_of(p.label()),
            _ => p.label(),
        }
    }
    parents
        .iter()
        .find(|p| p.is_param())
        .map(|p| module_of(p.label()))
        .or_else(|| parents.iter().map(own).find(|c| !c.is_empty()))
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
        let ctx = self.ctx.clone();
        let register = || ctx.with_label("", || ctx.param(label, t.dims().to_vec()));
        let sym = if frozen {
            ctx.frozen(register)
        } else {
            register()
        };
        self.replayed.entry(t.id()).or_insert(sym);
    }

    /// Labels `t` as the constant leaf `label` (a runtime input, target or
    /// auxiliary feed); replay treats it as a leaf whatever produced it.
    pub fn name(&mut self, label: &str, t: &Tensor) {
        self.names.insert(t.id(), label.to_string());
    }

    /// Replays everything `roots` depend on and returns their IR nodes.
    pub fn replay(&mut self, roots: &[&Tensor]) -> Result<Vec<SymbolicTensor>, ShapeError> {
        self.replay_with(roots, &mut |_| Rewrite::Keep)
    }

    /// [`replay`](Self::replay), letting `hook` rewrite individual nodes —
    /// how the verifier's fault injection mutates a recording.
    pub fn replay_with(
        &mut self,
        roots: &[&Tensor],
        hook: &mut dyn FnMut(&RecordedNode<'_>) -> Rewrite,
    ) -> Result<Vec<SymbolicTensor>, ShapeError> {
        let mut seen = HashSet::new();
        let mut stack: Vec<Tensor> = roots.iter().map(|&t| t.clone()).collect();
        let mut nodes = Vec::new();
        while let Some(t) = stack.pop() {
            if self.replayed.contains_key(&t.id()) || !seen.insert(t.id()) {
                continue;
            }
            if !self.names.contains_key(&t.id()) {
                stack.extend(t.parents().iter().cloned());
                stack.extend(t.rec().and_then(|r| r.side.clone()));
            }
            nodes.push(t);
        }
        // Ids grow with creation, so this is recording order: every parent
        // and side input replays before its consumer.
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
        &mut self,
        t: &Tensor,
        hook: &mut dyn FnMut(&RecordedNode<'_>) -> Rewrite,
    ) -> SymResult {
        let ctx = self.ctx.clone();
        if let Some(label) = self.names.get(&t.id()) {
            return Ok(ctx.with_label("", || ctx.constant(label, t.dims().to_vec())));
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
        };
        // Hooks and ops alike run under the node's component label, so
        // shape errors name the module they occur in.
        ctx.with_label(&component, || {
            let lift = match hook(&node) {
                Rewrite::Keep => false,
                Rewrite::LiftNoGrad => true,
                Rewrite::Replace(result) => return result,
            };
            if t.op_name() == "leaf" && parents.is_empty() {
                let label = self.leaf_label(t);
                Ok(ctx.with_label("", || ctx.constant(&label, t.dims().to_vec())))
            } else if t.requires_grad() || lift {
                self.replay_op(t, &parents, &component)
            } else {
                ctx.no_grad(|| self.replay_op(t, &parents, &component))
            }
        })
    }

    fn leaf_label(&self, t: &Tensor) -> String {
        match t.rec() {
            Some(rec) if !rec.name.is_empty() => {
                let owner = rec.side.as_ref().and_then(|o| self.replayed.get(&o.id()));
                let module = owner.map_or("", |o| module_of(o.label()));
                format!("{module}.{}", rec.name)
            }
            _ => String::new(),
        }
    }

    fn replay_op(&mut self, t: &Tensor, parents: &[SymbolicTensor], component: &str) -> SymResult {
        let op = t.op_name();
        let fail = |message: String| ShapeError {
            op: op.to_string(),
            label: component.to_string(),
            message,
            provenance: parents
                .first()
                .map(|p| p.provenance_lines(8))
                .unwrap_or_default(),
        };
        let arg = |i: usize| {
            parents.get(i).ok_or_else(|| {
                fail(format!(
                    "recorded `{op}` has {} parent(s); was it created outside the recording?",
                    parents.len()
                ))
            })
        };
        let attr = t.rec().map_or(&SymAttr::None, |r| &r.attr);
        let side = t.rec().and_then(|r| r.side.as_ref());
        match (op, attr) {
            ("param", _) => Err(fail(
                "parameter has no label from the naming walk".to_string(),
            )),
            ("leaf", _) => Ok(arg(0)?.detach()),
            ("add", _) => arg(0)?.add(arg(1)?),
            ("sub", _) => arg(0)?.sub(arg(1)?),
            ("mul", _) => arg(0)?.mul(arg(1)?),
            ("div", _) => arg(0)?.div(arg(1)?),
            ("smooth_l1", _) => arg(0)?.smooth_l1(arg(1)?),
            ("add_scalar", &SymAttr::Scalar(c)) => Ok(arg(0)?.add_scalar(c)),
            ("mul_scalar", &SymAttr::Scalar(c)) => Ok(arg(0)?.mul_scalar(c)),
            ("rsqrt", _) => Ok(arg(0)?.rsqrt()),
            ("square", _) => Ok(arg(0)?.square()),
            ("relu", _) => Ok(arg(0)?.relu()),
            ("gelu", _) => Ok(arg(0)?.gelu()),
            ("softmax_last", _) => Ok(arg(0)?.softmax_last()),
            ("sum", _) => Ok(arg(0)?.sum()),
            ("sum_axis", &SymAttr::Axis { axis, keepdim }) => arg(0)?.sum_axis(axis, keepdim),
            ("matmul_2d" | "matmul_batched" | "matmul_3d_2d", _) => arg(0)?.matmul(arg(1)?),
            ("reshape", _) => arg(0)?.reshape(t.dims().to_vec()),
            ("permute", SymAttr::Perm(perm)) => arg(0)?.permute(perm),
            ("slice", &SymAttr::Slice { axis, start, len }) => arg(0)?.slice(axis, start, len),
            ("concat", &SymAttr::Concat { axis }) => {
                arg(0)?;
                SymbolicTensor::concat(parents, axis)
            }
            ("index_select_rows", _) => arg(0)?.index_select_rows(t.dims()[0]),
            ("fused_attention", _) => {
                let mask = side.map(|m| self.replayed[&m.id()].clone());
                let (out, map) =
                    SymbolicTensor::fused_attention(arg(0)?, arg(1)?, arg(2)?, mask.as_ref())?;
                self.maps.insert(t.id(), map);
                Ok(out)
            }
            ("fused_attention_map", _) => side
                .and_then(|out| self.maps.remove(&out.id()))
                .ok_or_else(|| fail("attention map replayed without its context".to_string())),
            _ => Err(fail(format!("recorded op `{op}` has no replay case"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, seeded_rng, NEG_INF};

    /// One op under test: its name, how to run it on real tensors, and how
    /// to build it directly on the IR, over the same operands.
    type Case = (
        &'static str,
        fn(&[Tensor]) -> Tensor,
        fn(&[SymbolicTensor]) -> SymResult,
    );

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
        type S = SymbolicTensor;
        vec![
            ("add", |o| o[0].add(&o[1]), |o| o[0].add(&o[1])),
            ("sub", |o| o[0].sub(&o[1]), |o| o[0].sub(&o[1])),
            ("mul", |o| o[0].mul(&o[1]), |o| o[0].mul(&o[1])),
            ("div", |o| o[0].div(&o[1]), |o| o[0].div(&o[1])),
            (
                "add_scalar",
                |o| o[0].add_scalar(1e-5),
                |o| Ok(o[0].add_scalar(1e-5)),
            ),
            (
                "mul_scalar",
                |o| o[0].mul_scalar(0.25),
                |o| Ok(o[0].mul_scalar(0.25)),
            ),
            (
                "untracked mul_scalar",
                |o| o[1].mul_scalar(3.0),
                |o| Ok(o[1].mul_scalar(3.0)),
            ),
            ("rsqrt", |o| o[1].rsqrt(), |o| Ok(o[1].rsqrt())),
            ("square", |o| o[0].square(), |o| Ok(o[0].square())),
            ("relu", |o| o[0].relu(), |o| Ok(o[0].relu())),
            ("gelu", |o| o[0].gelu(), |o| Ok(o[0].gelu())),
            (
                "sum_axis",
                |o| o[0].sum_axis(1, true),
                |o| o[0].sum_axis(1, true),
            ),
            ("sum", |o| o[0].sum(), |o| Ok(o[0].sum())),
            (
                "smooth_l1",
                |o| o[0].smooth_l1(&o[1]),
                |o| o[0].smooth_l1(&o[1]),
            ),
            ("matmul_2d", |o| o[0].matmul(&o[2]), |o| o[0].matmul(&o[2])),
            (
                "reshape",
                |o| o[0].reshape([4, 2, 3]),
                |o| o[0].reshape(vec![4, 2, 3]),
            ),
            (
                "permute",
                |o| o[3].permute(&[1, 0, 2]),
                |o| o[3].permute(&[1, 0, 2]),
            ),
            ("slice", |o| o[0].slice(1, 2, 3), |o| o[0].slice(1, 2, 3)),
            (
                "concat",
                |o| Tensor::concat(&o[..2], 0),
                |o| S::concat(&o[..2], 0),
            ),
            (
                "index_select_rows",
                |o| o[7].index_select_rows(&[3, 1, 3]),
                |o| o[7].index_select_rows(3),
            ),
            (
                "fused_attention",
                |o| Tensor::fused_attention(&o[3], &o[4], &o[5], None).0,
                |o| Ok(S::fused_attention(&o[3], &o[4], &o[5], None)?.0),
            ),
            (
                "fused_attention_map",
                |o| Tensor::fused_attention(&o[3], &o[4], &o[5], None).1,
                |o| Ok(S::fused_attention(&o[3], &o[4], &o[5], None)?.1),
            ),
            (
                "masked fused_attention",
                |o| Tensor::fused_attention(&o[3], &o[4], &o[5], Some(&o[6])).0,
                |o| Ok(S::fused_attention(&o[3], &o[4], &o[5], Some(&o[6]))?.0),
            ),
            (
                "masked fused_attention_map",
                |o| Tensor::fused_attention(&o[3], &o[4], &o[5], Some(&o[6])).1,
                |o| Ok(S::fused_attention(&o[3], &o[4], &o[5], Some(&o[6]))?.1),
            ),
        ]
    }

    #[test]
    fn every_replayed_op_equals_the_directly_built_ir_node() {
        let (ops, labels) = operands();
        for (name, real, sym) in cases() {
            let mut rec = Recorder::new();
            let direct_ctx = SymCtx::new();
            let mut direct = Vec::new();
            for (t, &label) in ops.iter().zip(&labels) {
                let dims = t.dims().to_vec();
                if t.requires_grad() {
                    rec.param(label, t, false);
                    direct.push(direct_ctx.param(label, dims));
                } else {
                    rec.name(label, t);
                    direct.push(direct_ctx.constant(label, dims));
                }
            }
            let out = record(|| real(&ops));
            let replayed = rec.replay(&[&out]).unwrap().remove(0);
            let built = sym(&direct).unwrap();
            assert_eq!(replayed.op_name(), built.op_name(), "{name}");
            assert_eq!(replayed.op_name(), out.op_name(), "{name}");
            assert_eq!(replayed.dims(), built.dims(), "{name}");
            assert_eq!(replayed.dims(), out.dims(), "{name}");
            assert_eq!(replayed.attr(), built.attr(), "{name}");
            assert_eq!(replayed.requires_grad(), built.requires_grad(), "{name}");
            assert_eq!(replayed.requires_grad(), out.requires_grad(), "{name}");
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
    fn unreplayable_op_is_an_error_naming_op_and_component() {
        let w = Tensor::param(vec![0.5; 4], [2, 2]);
        let mut rec = Recorder::new();
        rec.param("encoder.proj.weight", &w, false);
        let out = record(|| w.exp());
        let err = rec.replay(&[&out]).unwrap_err();
        assert_eq!(err.op, "exp");
        assert_eq!(err.label, "encoder.proj");
        assert!(err.message.contains("no replay case"), "{}", err.message);
    }

    #[test]
    fn unlabelled_parameter_is_an_error() {
        let w = Tensor::param(vec![0.5; 4], [4]);
        let out = record(|| w.relu());
        let err = Recorder::new().replay(&[&out]).unwrap_err();
        assert_eq!(err.op, "param");
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
