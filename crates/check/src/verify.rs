//! The symbolic pipeline verifier — static passes over the IR replayed
//! from a recording of one real TimeKD training step
//! ([`record_pipeline`]).
//!
//! Three passes per configuration of the matrix (LM size presets × head
//! counts × prompt budgets × ablation arms):
//!
//! 1. **shape** — the real forward of teacher → CLM → SCA → student →
//!    losses runs while it is recorded, and the engine checks every op's
//!    shapes as it executes. A mismatch panics there, naming the op; the
//!    panic is caught and becomes that configuration's finding, so one bad
//!    configuration does not hide the rest of the matrix. A recording the
//!    replay cannot turn into IR (an unlabelled parameter, an op whose
//!    parents were not recorded) is reported by this pass too.
//! 2. **gradient-flow** — walks gradient edges from each loss root and
//!    proves: every student trainable is reachable from the combined
//!    student loss, every teacher trainable from the reconstruction loss,
//!    no frozen CLM parameter from *any* loss, and each PKD loss is wired
//!    to exactly its intended layers (correlation → last-layer `wq`/`wk`
//!    only; feature → encoder + embedding but not the forecast head).
//! 3. **dead-param** — any registered trainable parameter no loss reaches
//!    is reported (the optimizer would step it to no effect). Parameters a
//!    specific ablation arm deliberately idles (the SCA projections under
//!    `w/o_SCA`) are exempt.
//!
//! Every finding carries the configuration label, a message naming the
//! offending parameter/op, and — where a path exists — the gradient route
//! or provenance chain that proves it.
//!
//! [`Fault`] injects known-bad wirings so the verifier's detection power is
//! itself testable: each mutates the configuration, the recording or its
//! replay (never the real modules) and must be caught by exactly the pass
//! designed for it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use timekd::{record_pipeline, AblationConfig, SymbolicPipeline, TimeKdConfig};
use timekd_lm::LmSize;
use timekd_tensor::{find_path, reachable_params, RecordedNode, Rewrite, SymbolicTensor, Tensor};

/// Deliberate mis-wirings for fault-injection tests of the verifier.
/// [`Fault::None`] replays the recording as it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fault {
    /// Faithful replay — what `timekd-check --verify` proves clean.
    #[default]
    None,
    /// The *student* attention edge into `L_cd` is cut by a detach: the
    /// loss is computed but can no longer update any student parameter.
    /// Must be caught by the gradient-flow wiring pass.
    DetachedDistillationTarget,
    /// Each constant CLM embedding the teacher consumes is replaced by a
    /// grad-enabled replay of a `CausalLm::last_token_embedding` forward
    /// (the real bug would be a `FrozenLm` miss path that hands out a
    /// live graph instead of its compiled forward's constants): frozen LM
    /// parameters become reachable from the losses. Must be caught by the
    /// frozen-parameter pass.
    UnfrozenLm,
    /// The head count is raised to the next count that does not divide
    /// the model width, which `MultiHeadAttention::new` rejects when the
    /// real modules are built. Must be caught by the shape pass.
    MismatchedHeadDim,
    /// An extra trainable parameter is registered under the student but
    /// never used by any forward. Must be caught by the dead-parameter
    /// pass.
    DanglingParam,
}

/// How `fault` rewrites one recorded node on replay; `live_clm` is the
/// gradient-tracking CLM embedding the unfrozen-LM fault splices in.
fn rewrite(fault: Fault, node: &RecordedNode<'_>, live_clm: Option<&SymbolicTensor>) -> Rewrite {
    let op = node.tensor.op_name();
    let first = node.parents.first();
    let from_clm = |t: &SymbolicTensor| t.label().starts_with("teacher.clm");
    match (fault, live_clm) {
        (Fault::DetachedDistillationTarget, _)
            if op == "smooth_l1" && first.is_some_and(|a| a.op_name() == "fused_attention_map") =>
        {
            Rewrite::Reparent(vec![
                node.ctx.detach(&node.parents[0]),
                node.parents[1].clone(),
            ])
        }
        // The teacher reshapes each constant embedding leaf `FrozenLm`
        // hands out to `[1, D]`: take a live CLM forward's instead, and
        // track gradients through what consumes it.
        (Fault::UnfrozenLm, Some(live))
            if first.is_some_and(|p| p.op_name() == "leaf" && from_clm(p)) =>
        {
            Rewrite::Replace(live.clone())
        }
        (Fault::UnfrozenLm, _) if node.component.starts_with("teacher.clm") => Rewrite::LiftNoGrad,
        _ => Rewrite::Keep,
    }
}

/// One verifier finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Pass that produced it: `shape`, `gradient-flow` or `dead-param`.
    pub pass: &'static str,
    /// Stable kebab-case kind: `shape-error`, `replay-error`,
    /// `frozen-reachable`, `unreachable-trainable`, `wrong-wiring`,
    /// `dead-param`.
    pub kind: &'static str,
    /// Configuration label the finding occurred under.
    pub config: String,
    /// Human-readable description naming the offending parameter/op.
    pub message: String,
    /// Gradient route or provenance chain supporting the finding.
    pub provenance: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}/{}] {}: {}",
            self.pass, self.kind, self.config, self.message
        )?;
        for line in &self.provenance {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Aggregate result of a verification run.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Number of (config, ablation) combinations traced.
    pub configs_checked: usize,
    /// Invariants proven (summary lines, only meaningful when clean).
    pub proofs: Vec<String>,
    /// All findings across all passes and configurations.
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    /// True when no pass produced a finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings sorted into the stable order used for reporting and JSON.
    fn sorted_findings(&self) -> Vec<&Finding> {
        let mut v: Vec<&Finding> = self.findings.iter().collect();
        v.sort_by(|a, b| {
            (a.pass, a.kind, &a.config, &a.message).cmp(&(b.pass, b.kind, &b.config, &b.message))
        });
        v
    }

    /// Renders the report as stable, diffable JSON: keys in fixed order,
    /// findings sorted by (pass, kind, config, message), no timestamps.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"configs_checked\": {},\n  \"clean\": {},\n  \"findings\": [",
            self.configs_checked,
            self.is_clean()
        ));
        let sorted = self.sorted_findings();
        for (i, f) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"pass\": {}, ", json_str(f.pass)));
            out.push_str(&format!("\"kind\": {}, ", json_str(f.kind)));
            out.push_str(&format!("\"config\": {}, ", json_str(&f.config)));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            out.push_str("\"provenance\": [");
            for (j, line) in f.provenance.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(line));
            }
            out.push_str("]}");
        }
        if !sorted.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"proofs\": [");
        for (i, p) in self.proofs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_str(p));
        }
        if !self.proofs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Label prefixes of parameters a given ablation arm deliberately leaves
/// without gradient flow. `w/o_SCA` swaps `forward_direct` in but the real
/// `Module::params` still registers the SCA projections, so the optimizer
/// carries them as dead weight by design — documented here, not a finding.
fn ablation_idle_prefixes(cfg: &TimeKdConfig) -> Vec<&'static str> {
    if cfg.ablation.use_sca {
        Vec::new()
    } else {
        vec![
            "teacher.sca.phi_q.",
            "teacher.sca.phi_k.",
            "teacher.sca.phi_v.",
            "teacher.sca.theta_c.",
        ]
    }
}

fn is_idle(label: &str, idle: &[&str]) -> bool {
    idle.iter().any(|p| label.starts_with(p))
}

/// Runs all three passes on one configuration. `label` tags findings;
/// `fault` is [`Fault::None`] in production and a specific fault in the
/// verifier's own injection tests.
pub fn verify_pipeline(
    cfg: &TimeKdConfig,
    label: &str,
    input_len: usize,
    horizon: usize,
    num_vars: usize,
    fault: Fault,
) -> Vec<Finding> {
    let shape_finding = |kind, message| {
        vec![Finding {
            pass: "shape",
            kind,
            config: label.to_string(),
            message,
            provenance: Vec::new(),
        }]
    };
    let mut cfg = *cfg;
    if fault == Fault::MismatchedHeadDim {
        let dim = cfg.dim;
        cfg.num_heads = (cfg.num_heads + 1..=dim + 1)
            .find(|h| !dim.is_multiple_of(*h))
            .expect("dim + 1 never divides a nonzero dim");
    }
    let recorded = catch_unwind(AssertUnwindSafe(|| {
        record_pipeline(&cfg, input_len, horizon, num_vars)
    }));
    let mut recording = match recorded {
        Ok(recording) => recording,
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-text panic payload");
            return shape_finding(
                "shape-error",
                format!("recording the real training step panicked: {message}"),
            );
        }
    };
    if fault == Fault::DanglingParam {
        let dangling = Tensor::zeros_param([cfg.dim, cfg.dim]);
        recording
            .recorder_mut()
            .param("student.dangling.weight", &dangling, false);
    }
    let live_clm = match fault {
        Fault::UnfrozenLm => match recording.replay_live_clm_embedding() {
            Ok(live) => Some(live),
            Err(e) => return shape_finding("replay-error", e.to_string()),
        },
        _ => None,
    };
    let p = match recording.replay_with(&mut |node| rewrite(fault, node, live_clm.as_ref())) {
        Ok(p) => p,
        Err(e) => return shape_finding("replay-error", e.to_string()),
    };
    let mut findings = gradient_flow_findings(&p, &cfg, label);
    findings.extend(dead_param_findings(&p, &cfg, label));
    findings
}

/// Pass 2: the loss→parameter flow matrix and its invariants.
fn gradient_flow_findings(p: &SymbolicPipeline, cfg: &TimeKdConfig, label: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let params = p.ctx.params();
    let by_label: HashMap<String, u64> = params
        .iter()
        .map(|q| (q.label().to_string(), q.id()))
        .collect();

    // Reachable parameter sets per loss root.
    let mut reach: BTreeMap<&'static str, HashMap<u64, String>> = BTreeMap::new();
    for (name, root) in p.loss_roots() {
        reach.insert(
            name,
            reachable_params(root)
                .iter()
                .map(|q| (q.id(), q.label().to_string()))
                .collect(),
        );
    }

    // (a) No loss may reach a frozen CLM parameter.
    for (name, root) in p.loss_roots() {
        for q in reachable_params(root) {
            if q.is_frozen() {
                findings.push(Finding {
                    pass: "gradient-flow",
                    kind: "frozen-reachable",
                    config: label.to_string(),
                    message: format!(
                        "loss `{name}` reaches frozen CLM parameter `{}` — the backward \
                         pass would update pretrained weights",
                        q.label()
                    ),
                    provenance: find_path(root, q.id()).unwrap_or_default(),
                });
            }
        }
    }

    let idle = ablation_idle_prefixes(cfg);
    let student_total = &reach["student_total"];
    let reconstruction = &reach["reconstruction"];

    // (b) Coverage: the combined student loss must update every student
    // trainable; the reconstruction loss every (non-idle) teacher trainable.
    for q in &params {
        if q.is_frozen() {
            continue;
        }
        let l = q.label();
        if l.starts_with("student.") && !student_total.contains_key(&q.id()) {
            findings.push(Finding {
                pass: "gradient-flow",
                kind: "unreachable-trainable",
                config: label.to_string(),
                message: format!(
                    "student parameter `{l}` is not reachable from the combined student \
                     loss — it would never train"
                ),
                provenance: p.student_total.provenance_lines(6),
            });
        }
        if l.starts_with("teacher.") && !is_idle(l, &idle) && !reconstruction.contains_key(&q.id())
        {
            findings.push(Finding {
                pass: "gradient-flow",
                kind: "unreachable-trainable",
                config: label.to_string(),
                message: format!(
                    "teacher parameter `{l}` is not reachable from the reconstruction \
                     loss — Algorithm 1 would never train it"
                ),
                provenance: p.reconstruction.provenance_lines(6),
            });
        }
    }

    // (c) PKD wiring: correlation distills the attention map, so it must
    // reach the last student layer's query/key projections and nothing
    // downstream of the attention weights (values, output proj, forecast
    // head).
    let last = cfg.num_layers.saturating_sub(1);
    if cfg.ablation.correlation_distillation {
        let corr = &reach["correlation"];
        for name in ["wq", "wk"] {
            let want = format!("student.encoder.layer{last}.attn.{name}.weight");
            let ok = by_label.get(&want).is_some_and(|id| corr.contains_key(id));
            if !ok {
                findings.push(Finding {
                    pass: "gradient-flow",
                    kind: "wrong-wiring",
                    config: label.to_string(),
                    message: format!(
                        "correlation loss does not reach `{want}` — attention-map \
                         distillation is severed from the student (e.g. a detached \
                         student attention)"
                    ),
                    provenance: p.correlation.provenance_lines(6),
                });
            }
        }
        let forbidden = [
            format!("student.encoder.layer{last}.attn.wv.weight"),
            format!("student.encoder.layer{last}.attn.wo.weight"),
        ];
        for (id, l) in corr {
            let beyond_attention = forbidden.iter().any(|f| l == f)
                || l.starts_with("student.projection.")
                || l.starts_with("student.encoder.final_ln.");
            if beyond_attention || l.starts_with("teacher.") {
                findings.push(Finding {
                    pass: "gradient-flow",
                    kind: "wrong-wiring",
                    config: label.to_string(),
                    message: format!(
                        "correlation loss unexpectedly reaches `{l}` — the attention-map \
                         target leaks beyond the student's query/key path"
                    ),
                    provenance: find_path(&p.correlation, *id).unwrap_or_default(),
                });
            }
        }
    }
    if cfg.ablation.feature_distillation {
        let feat = &reach["feature"];
        for want in [
            "student.inverted_embedding.weight".to_string(),
            "student.encoder.final_ln.gamma".to_string(),
        ] {
            let ok = by_label.get(&want).is_some_and(|id| feat.contains_key(id));
            if !ok {
                findings.push(Finding {
                    pass: "gradient-flow",
                    kind: "wrong-wiring",
                    config: label.to_string(),
                    message: format!(
                        "feature loss does not reach `{want}` — embedding distillation is \
                         severed from the student encoder"
                    ),
                    provenance: p.feature.provenance_lines(6),
                });
            }
        }
        for (id, l) in feat {
            if l.starts_with("student.projection.") || l.starts_with("teacher.") {
                findings.push(Finding {
                    pass: "gradient-flow",
                    kind: "wrong-wiring",
                    config: label.to_string(),
                    message: format!(
                        "feature loss unexpectedly reaches `{l}` — embedding distillation \
                         must stop at the encoder output"
                    ),
                    provenance: find_path(&p.feature, *id).unwrap_or_default(),
                });
            }
        }
    }
    // (d) The student objective must never update the teacher (detach
    // proof), in any arm.
    for (id, l) in student_total {
        if l.starts_with("teacher.") {
            findings.push(Finding {
                pass: "gradient-flow",
                kind: "wrong-wiring",
                config: label.to_string(),
                message: format!(
                    "combined student loss reaches teacher parameter `{l}` — the \
                     distillation targets are not detached"
                ),
                provenance: find_path(&p.student_total, *id).unwrap_or_default(),
            });
        }
    }
    findings
}

/// Pass 3: registered-but-unreachable trainable parameters.
fn dead_param_findings(p: &SymbolicPipeline, cfg: &TimeKdConfig, label: &str) -> Vec<Finding> {
    let mut reached: HashSet<u64> = HashSet::new();
    for (_, root) in p.loss_roots() {
        reached.extend(reachable_params(root).iter().map(|q| q.id()));
    }
    let idle = ablation_idle_prefixes(cfg);
    p.ctx
        .params()
        .iter()
        .filter(|q| !q.is_frozen() && !reached.contains(&q.id()) && !is_idle(q.label(), &idle))
        .map(|q| Finding {
            pass: "dead-param",
            kind: "dead-param",
            config: label.to_string(),
            message: format!(
                "parameter `{}` is registered (the optimizer would step it) but no loss \
                 reaches it",
                q.label()
            ),
            provenance: Vec::new(),
        })
        .collect()
}

/// Every ablation arm of Fig. 6.
fn all_ablations() -> Vec<AblationConfig> {
    vec![
        AblationConfig::full(),
        AblationConfig::without_privileged_info(),
        AblationConfig::without_calibrated_attention(),
        AblationConfig::without_clm(),
        AblationConfig::without_sca(),
        AblationConfig::without_correlation_distillation(),
        AblationConfig::without_feature_distillation(),
    ]
}

/// The verification matrix: LM presets × head counts × prompt budgets ×
/// ablation arms, over the paper's default window geometry.
pub(crate) fn config_matrix() -> Vec<(TimeKdConfig, String)> {
    let mut out = Vec::new();
    for lm_size in [LmSize::Small, LmSize::Base, LmSize::Large] {
        for num_heads in [2usize, 4, 8] {
            for (max_history, max_future) in [(4usize, 4usize), (16, 16)] {
                for ablation in all_ablations() {
                    let mut cfg = TimeKdConfig::with_lm_size(lm_size);
                    cfg.num_heads = num_heads;
                    cfg.ablation = ablation;
                    if !ablation.calibrated_attention {
                        cfg.lm.calibration_delta = 0.0;
                    }
                    cfg.prompt.max_history = max_history;
                    cfg.prompt.max_future = max_future;
                    let label = format!(
                        "lm={lm_size:?} heads={num_heads} prompt={max_history}x{max_future} \
                         ablation={}",
                        ablation.label()
                    );
                    out.push((cfg, label));
                }
            }
        }
    }
    out
}

/// Runs the full matrix (paper default geometry: 96-step history, 24-step
/// horizon, 7 ETT variables) through all three passes.
pub fn verify_all() -> VerifyReport {
    let (input_len, horizon, num_vars) = (96, 24, 7);
    let mut report = VerifyReport::default();
    for (cfg, label) in config_matrix() {
        report.configs_checked += 1;
        report.findings.extend(verify_pipeline(
            &cfg,
            &label,
            input_len,
            horizon,
            num_vars,
            Fault::None,
        ));
    }
    if report.is_clean() {
        let n = report.configs_checked;
        report.proofs = vec![
            format!(
                "every student trainable parameter is reachable from the combined \
                 student loss ({n}/{n} configs)"
            ),
            format!(
                "every teacher trainable parameter is reachable from the reconstruction \
                 loss ({n}/{n} configs)"
            ),
            format!("no frozen CLM parameter is reachable from any loss ({n}/{n} configs)"),
            format!(
                "correlation distillation is wired to the last student layer's \
                 query/key path and feature distillation to the encoder output, in \
                 every arm that enables them ({n}/{n} configs)"
            ),
            format!("no registered parameter is dead ({n}/{n} configs)"),
        ];
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::field_reassign_with_default)]
    fn tiny_cfg(ablation: AblationConfig) -> TimeKdConfig {
        let mut cfg = TimeKdConfig::with_ablation(ablation);
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        cfg.lm = timekd_lm::LmConfig::for_size(LmSize::Small);
        cfg.prompt.max_history = 4;
        cfg.prompt.max_future = 4;
        cfg
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        for ablation in all_ablations() {
            let cfg = tiny_cfg(ablation);
            let fs = verify_pipeline(&cfg, ablation.label(), 24, 8, 3, Fault::None);
            assert!(fs.is_empty(), "{}: {fs:?}", ablation.label());
        }
    }

    #[test]
    fn detached_target_fault_is_caught_by_wiring_pass() {
        let cfg = tiny_cfg(AblationConfig::full());
        let fs = verify_pipeline(&cfg, "t", 24, 8, 3, Fault::DetachedDistillationTarget);
        let hit = fs
            .iter()
            .find(|f| f.kind == "wrong-wiring" && f.message.contains("attn.wq.weight"))
            .unwrap_or_else(|| panic!("detached target not caught: {fs:?}"));
        assert_eq!(hit.pass, "gradient-flow");
        // The provenance chain exposes the severing detach leaf.
        assert!(
            hit.provenance.iter().any(|l| l.contains("detach")),
            "provenance must name the offending detach: {:?}",
            hit.provenance
        );
    }

    #[test]
    fn unfrozen_lm_fault_is_caught_by_frozen_pass() {
        let cfg = tiny_cfg(AblationConfig::full());
        let fs = verify_pipeline(&cfg, "t", 24, 8, 3, Fault::UnfrozenLm);
        let hit = fs
            .iter()
            .find(|f| f.kind == "frozen-reachable")
            .unwrap_or_else(|| panic!("unfrozen LM not caught: {fs:?}"));
        assert!(hit.message.contains("teacher.clm."), "{}", hit.message);
        // The gradient route from the loss down to the frozen parameter is
        // reported in full.
        assert!(hit.provenance.len() > 2, "{:?}", hit.provenance);
        assert!(
            hit.provenance.last().unwrap().contains("teacher.clm."),
            "{:?}",
            hit.provenance
        );
    }

    #[test]
    fn mismatched_head_dim_fault_is_caught_by_shape_pass() {
        let cfg = tiny_cfg(AblationConfig::full());
        let fs = verify_pipeline(&cfg, "t", 24, 8, 3, Fault::MismatchedHeadDim);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].pass, fs[0].kind), ("shape", "shape-error"));
        assert!(
            fs[0].message.contains("dim 16 not divisible by heads 3"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn dangling_param_fault_is_caught_by_dead_pass() {
        let cfg = tiny_cfg(AblationConfig::full());
        let fs = verify_pipeline(&cfg, "t", 24, 8, 3, Fault::DanglingParam);
        let hit = fs
            .iter()
            .find(|f| f.kind == "dead-param")
            .unwrap_or_else(|| panic!("dangling param not caught: {fs:?}"));
        assert!(
            hit.message.contains("student.dangling.weight"),
            "{}",
            hit.message
        );
    }

    #[test]
    fn wo_sca_idles_projections_without_findings() {
        // The w/o_SCA arm leaves the SCA projections registered but
        // unreachable by design; the dead-param pass must not flag them.
        let cfg = tiny_cfg(AblationConfig::without_sca());
        let fs = verify_pipeline(&cfg, "wo_sca", 24, 8, 3, Fault::None);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn json_output_is_stable_and_ordered() {
        let cfg = tiny_cfg(AblationConfig::full());
        let mk = || {
            let mut r = VerifyReport {
                configs_checked: 1,
                proofs: Vec::new(),
                findings: verify_pipeline(&cfg, "t", 24, 8, 3, Fault::DanglingParam),
            };
            // Scramble insertion order; to_json must sort.
            r.findings.reverse();
            r.to_json()
        };
        let a = mk();
        assert_eq!(a, mk(), "JSON must be deterministic across runs");
        assert!(a.contains("\"configs_checked\": 1"));
        assert!(a.contains("\"clean\": false"));
        assert!(a.contains("\"pass\": \"dead-param\""));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
