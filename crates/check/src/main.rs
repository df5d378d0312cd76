//! `cargo run -p timekd-check` — the workspace's static-analysis
//! entrypoint. Three layers, selectable by flag (a bare run executes all):
//!
//! - `--lints`: the source lint pass over `crates/*/src` (rules +
//!   allowlist in `timekd_check`), stale-allowlist detection, and a check
//!   that no `target/` build artifact is tracked by git;
//! - `--verify`: the symbolic verifier (`timekd_check::verify`) — the
//!   shape check of a recorded real TimeKD training step (the engine's,
//!   as the forward runs) and gradient-flow reachability over the IR
//!   replayed from that recording, for the whole configuration matrix;
//! - `--graph`: dynamic autograd-graph sanity checks — a [`GraphAudit`]
//!   over a real student loss graph, and the frozen-LM invariant after a
//!   genuine backward pass (the symbolic graph needs no cross-check: it is
//!   replayed from a recording of the same modules);
//! - `--plan`: the execution-plan verifier (`timekd_check::plan`) —
//!   independently re-derives liveness over each compiled student plan and
//!   proves slot interference soundness, def-before-use, the arena bound,
//!   and a clean diff against the recorded graph and dynamic execution,
//!   for the whole configuration matrix. The trainer's objective plans
//!   (PKD + forecast, clip, AdamW) and the teacher's warm-up plans
//!   (reconstruction, clip, AdamW) additionally get the chained backward
//!   passes: adjoint completeness (frozen parameters provably receive no
//!   update), reverse-topological validity, saved-activation liveness
//!   over the combined forward+backward timeline, and a bitwise
//!   plan-vs-dynamic training diff.
//!
//! Modifiers: `--json` renders the verifier report as stable, diffable
//! JSON; `--strict` turns stale-allowlist warnings into failures.
//!
//! Exits non-zero if any selected layer finds a problem, so CI can gate
//! on it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::rc::Rc;

use timekd::{Forecaster, TimeKd, TimeKdConfig};
use timekd_check::plan::verify_plans;
use timekd_check::verify::verify_all;
use timekd_check::{scan_workspace_with_stale, Allowlist};
use timekd_data::{DatasetKind, Split, SplitDataset};
use timekd_lm::{pretrain_lm, FrozenLm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};
use timekd_nn::smooth_l1_loss;
use timekd_tensor::GraphAudit;

fn repo_root() -> PathBuf {
    // crates/check/ -> repo root is two levels up from this manifest.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has two ancestors")
        .to_path_buf()
}

#[derive(Clone, Copy, Debug, Default)]
struct Options {
    lints: bool,
    graph: bool,
    verify: bool,
    plan: bool,
    json: bool,
    strict: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    for a in args {
        match a.as_str() {
            "--lints" => opts.lints = true,
            "--graph" => opts.graph = true,
            "--verify" => opts.verify = true,
            "--plan" => opts.plan = true,
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            other => {
                return Err(format!(
                    "unknown flag `{other}`\nusage: timekd-check [--lints] [--graph] \
                     [--verify] [--plan] [--json] [--strict]\n(no selection flag runs all layers)"
                ));
            }
        }
    }
    if !opts.lints && !opts.graph && !opts.verify && !opts.plan {
        opts.lints = true;
        opts.graph = true;
        opts.verify = true;
        opts.plan = true;
    }
    Ok(opts)
}

/// Fails if git tracks anything under a `target/` directory — build
/// artifacts must stay out of the repository (`.gitignore` covers them).
fn check_tracked_target(root: &Path) -> Result<(), String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["ls-files", "--", "target/", "crates/*/target/"])
        .output();
    let out = match out {
        Ok(o) if o.status.success() => o,
        // Not a git checkout (e.g. an exported tarball) — nothing to check.
        _ => {
            println!("lint: tracked-target check skipped (git unavailable)");
            return Ok(());
        }
    };
    let listed = String::from_utf8_lossy(&out.stdout);
    let tracked: Vec<&str> = listed.lines().collect();
    if tracked.is_empty() {
        println!("lint: no target/ artifacts tracked");
        return Ok(());
    }
    for p in tracked.iter().take(5) {
        println!("lint: tracked build artifact: {p}");
    }
    Err(format!(
        "lint: {} build artifact(s) under target/ are tracked by git — \
         run `git rm -r --cached target/`",
        tracked.len()
    ))
}

fn run_lints(root: &Path, strict: bool) -> Result<(), String> {
    let allow = Allowlist::load(&root.join("lint-allow.txt"));
    println!(
        "lint: scanning crates/*/src and src/ ({} allowlist entries)",
        allow.len()
    );
    let outcome =
        scan_workspace_with_stale(root, &allow).map_err(|e| format!("lint: scan failed: {e}"))?;
    for entry in &outcome.stale_allowlist {
        println!("lint: stale allowlist entry (matches no current violation): {entry}");
    }
    let mut failures = Vec::new();
    if !outcome.violations.is_empty() {
        for v in &outcome.violations {
            println!("lint: {v}");
        }
        failures.push(format!("{} violation(s)", outcome.violations.len()));
    }
    if !outcome.stale_allowlist.is_empty() && strict {
        failures.push(format!(
            "{} stale allowlist entr(ies) under --strict",
            outcome.stale_allowlist.len()
        ));
    }
    if let Err(e) = check_tracked_target(root) {
        failures.push(e);
    }
    if failures.is_empty() {
        println!("lint: clean");
        Ok(())
    } else {
        Err(format!("lint: {}", failures.join("; ")))
    }
}

fn run_verify(json: bool) -> Result<(), String> {
    let report = verify_all();
    if json {
        print!("{}", report.to_json());
    } else {
        println!(
            "verify: traced {} configurations (LM sizes x heads x prompt budgets x ablations)",
            report.configs_checked
        );
        for f in &report.findings {
            print!("verify: {f}");
        }
        for p in &report.proofs {
            println!("verify: proved {p}");
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("verify: {} finding(s)", report.findings.len()))
    }
}

fn run_plan_checks() -> Result<(), String> {
    let report = verify_plans();
    println!(
        "plan: verified {} configs' forward, objective and teacher training plans ({} \
         geometries executed against the dynamic engine)",
        report.configs_checked, report.geometries_executed
    );
    for f in &report.findings {
        print!("plan: {f}");
    }
    for p in &report.proofs {
        println!("plan: proved {p}");
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("plan: {} finding(s)", report.findings.len()))
    }
}

#[allow(clippy::field_reassign_with_default)]
fn tiny_model() -> (TimeKd, SplitDataset) {
    let mut cfg = TimeKdConfig::default();
    cfg.dim = 16;
    cfg.ffn_hidden = 32;
    cfg.num_heads = 2;
    cfg.lm = LmConfig::for_size(LmSize::Small);
    cfg.prompt.max_history = 4;
    cfg.prompt.max_future = 4;
    let ds = SplitDataset::new(DatasetKind::EttH1, 500, 7, 24, 8);
    let tokenizer = Rc::new(PromptTokenizer::new());
    let (lm, _) = pretrain_lm(
        &tokenizer,
        cfg.lm,
        PretrainConfig {
            steps: 3,
            ..Default::default()
        },
    );
    let model = TimeKd::with_frozen_lm(
        Rc::new(FrozenLm::new(lm)),
        tokenizer,
        cfg,
        24,
        8,
        ds.num_vars(),
    );
    (model, ds)
}

fn run_graph_checks() -> Result<(), String> {
    let (mut model, ds) = tiny_model();
    let windows = ds.windows(Split::Train, 32);

    // Audit the student's real loss graph before any training.
    let w = &windows[0];
    let out = model.student().forward(&w.x);
    let loss = smooth_l1_loss(&out.forecast, &w.y);
    let audit = GraphAudit::run(&loss);
    print!("{}", audit.report());
    if !audit.is_clean() {
        return Err(format!("graph: {} issue(s)", audit.issues.len()));
    }

    // One genuine training epoch, then the frozen-LM invariant (it also
    // runs inside the loop after every backward; this is the final gate).
    model.train_epoch(&windows[..2.min(windows.len())]);
    model.assert_frozen_lm_invariant();
    println!("graph: frozen-LM invariant holds after training");

    // Audit again after training: backward must leave no interior grads.
    let out = model.student().forward(&w.x);
    let loss = smooth_l1_loss(&out.forecast, &w.y);
    loss.backward();
    let audit = GraphAudit::run(&loss);
    if !audit.is_clean() {
        print!("{}", audit.report());
        return Err("graph: post-backward audit failed".to_string());
    }
    println!("graph: post-backward audit clean");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let root = repo_root();
    let mut results = Vec::new();
    if opts.lints {
        results.push(run_lints(&root, opts.strict));
    }
    if opts.verify {
        results.push(run_verify(opts.json));
    }
    if opts.graph {
        results.push(run_graph_checks());
    }
    if opts.plan {
        results.push(run_plan_checks());
    }
    let mut failed = false;
    for result in results {
        if let Err(msg) = result {
            eprintln!("FAIL {msg}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else if !opts.json {
        println!("timekd-check: all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::SUCCESS
    }
}
