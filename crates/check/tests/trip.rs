//! Fault-injection tests for the source linter: each rule must trip on a
//! fixture source that violates it, and the allowlist must be able to
//! suppress a violation. Fixtures live in `tests/fixtures/` and are never
//! compiled — they are scanned as text, exactly like `scan_workspace`
//! scans the real crates.

use std::path::Path;

use timekd_check::{scan_source, Allowlist, Violation};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

fn rules_of(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn unwrap_in_kernel_trips() {
    // The kernel rules are scoped to tensor/src/ops/, so label the fixture
    // as if it lived there.
    let vs = scan_source(
        "crates/tensor/src/ops/bad_kernel.rs",
        &fixture("bad_kernel.rs"),
    );
    let rules = rules_of(&vs);
    // .unwrap() on line 8 and .expect(...) on line 9.
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "no-unwrap-in-kernels")
            .count(),
        2,
        "expected both unwrap and expect to trip: {vs:?}"
    );
    let unwrap_v = vs.iter().find(|v| v.text.contains(".unwrap()")).unwrap();
    assert_eq!(
        unwrap_v.line, 8,
        "line numbers must point at the offence: {unwrap_v}"
    );
}

#[test]
fn instant_in_kernel_trips() {
    let vs = scan_source(
        "crates/tensor/src/ops/bad_kernel.rs",
        &fixture("bad_kernel.rs"),
    );
    assert!(
        rules_of(&vs).contains(&"no-instant-in-kernels"),
        "Instant::now in a kernel must trip: {vs:?}"
    );
}

#[test]
fn kernel_rules_do_not_trip_outside_ops() {
    // Same source, but labelled outside tensor/src/ops/: the kernel-scoped
    // rules must stay quiet (the fixture has no forward/predict fns).
    let vs = scan_source("crates/data/src/bad_kernel.rs", &fixture("bad_kernel.rs"));
    assert!(
        vs.is_empty(),
        "kernel rules are scoped to tensor ops: {vs:?}"
    );
}

#[test]
fn unwrap_in_test_module_is_exempt() {
    let vs = scan_source(
        "crates/tensor/src/ops/bad_kernel.rs",
        &fixture("bad_kernel.rs"),
    );
    // The fixture's #[cfg(test)] module uses unwrap() on line 21; no
    // violation may point there.
    assert!(
        vs.iter().all(|v| v.line < 15),
        "violations inside #[cfg(test)] must be exempt: {vs:?}"
    );
}

#[test]
fn tensor_clone_in_forward_trips() {
    let vs = scan_source("crates/core/src/bad_forward.rs", &fixture("bad_forward.rs"));
    let clones: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-clone-in-forward")
        .collect();
    // .to_vec() and .data().clone() inside fn forward; the .to_vec() in
    // the non-forward helper must not trip.
    assert_eq!(clones.len(), 2, "both copies in forward must trip: {vs:?}");
    assert!(
        clones.iter().all(|v| v.line <= 8),
        "the helper fn is out of scope: {clones:?}"
    );
}

#[test]
fn inference_without_no_grad_trips() {
    let vs = scan_source(
        "crates/core/src/bad_inference.rs",
        &fixture("bad_inference.rs"),
    );
    let grads: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-grad-in-inference")
        .collect();
    // BadModel::predict and BadModel::evaluate both lack no_grad;
    // GoodModel::predict wraps its body and must not trip.
    assert_eq!(
        grads.len(),
        2,
        "both graph-building entrypoints must trip: {vs:?}"
    );
    assert!(
        grads.iter().all(|v| v.line < 19),
        "a no_grad-wrapped predict must pass: {grads:?}"
    );
}

#[test]
fn allowlist_suppresses_matching_violation() {
    let source = fixture("bad_kernel.rs");
    let label = "crates/tensor/src/ops/bad_kernel.rs";
    let all = scan_source(label, &source);
    assert!(!all.is_empty());

    let allow = Allowlist::parse(
        "# narrow exception for the broadcast unwrap\n\
         no-unwrap-in-kernels bad_kernel.rs broadcast_with\n",
    );
    assert_eq!(allow.len(), 1);
    let kept: Vec<_> = all.iter().filter(|v| !allow.allows(v)).collect();
    assert_eq!(
        kept.len(),
        all.len() - 1,
        "exactly the broadcast unwrap is suppressed: {kept:?}"
    );
    assert!(kept.iter().all(|v| !v.text.contains("broadcast_with")));

    // A `*` rule with a broad line fragment suppresses across rules.
    let wild = Allowlist::parse("* bad_kernel.rs (\n");
    assert!(
        all.iter().all(|v| wild.allows(v)),
        "wildcard entry suppresses all"
    );
}

#[test]
fn allowlist_ignores_comments_and_blank_lines() {
    let allow = Allowlist::parse(
        "\n   \n# a full-line comment\n\t\n  # indented comment\n\
         no-clone-in-forward a.rs .to_vec()\n\n# trailing\n",
    );
    assert_eq!(allow.len(), 1, "only the real entry survives parsing");
}

#[test]
fn rule_text_inside_string_literals_does_not_trip() {
    // A kernel whose *error message* mentions .unwrap() / Instant::now —
    // the scanner strips string literals before matching, so none of the
    // rules may fire on the quoted text.
    let src = "\
fn kernel_add(a: &[f32]) -> f32 {
    let msg = \"never call .unwrap() or .expect( here; Instant::now is banned\";
    assert!(!msg.is_empty(), \"x.data().clone() and .to_vec() are quoted\");
    a[0]
}
";
    let vs = scan_source("crates/tensor/src/ops/strings.rs", src);
    assert!(vs.is_empty(), "quoted rule text must not trip: {vs:?}");
}

#[test]
fn stale_allowlist_entries_are_reported() {
    use timekd_check::scan_workspace_with_stale;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    // An entry that can never match (bogus path) must come back stale
    // without creating violations.
    let allow = Allowlist::parse("no-unwrap-in-kernels no_such_file.rs no_such_fragment\n");
    let outcome = scan_workspace_with_stale(&root, &allow).expect("scan");
    assert!(
        outcome.violations.is_empty(),
        "workspace must stay lint-clean: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.stale_allowlist.len(), 1, "{outcome:?}");
    assert!(
        outcome.stale_allowlist[0].contains("no_such_file.rs"),
        "stale report names the entry: {:?}",
        outcome.stale_allowlist
    );

    // With no entries there is nothing to go stale.
    let outcome = scan_workspace_with_stale(&root, &Allowlist::parse("")).expect("scan");
    assert!(outcome.stale_allowlist.is_empty());
}

#[test]
fn repo_allowlist_file_parses() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint-allow.txt");
    let allow = Allowlist::load(&path);
    // The checked-in file is documentation-only today; parsing must not
    // invent entries from comments.
    assert!(
        allow.is_empty(),
        "lint-allow.txt should have no live entries"
    );
}

#[test]
fn lock_in_worker_loop_trips() {
    let vs = scan_source("crates/tensor/src/ops/matmul.rs", &fixture("bad_worker.rs"));
    let locks: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-lock-in-worker")
        .collect();
    // `.lock(` in evil_row_block (line 6) and `.wait(` in
    // drain_queue_block (line 15); nothing in setup_ranges or the test
    // module.
    assert_eq!(locks.len(), 2, "{vs:?}");
    assert_eq!(locks[0].line, 6, "{locks:?}");
    assert_eq!(locks[1].line, 15, "{locks:?}");
}

#[test]
fn alloc_in_worker_loop_trips() {
    let vs = scan_source(
        "crates/tensor/src/ops/kernels.rs",
        &fixture("bad_worker.rs"),
    );
    let allocs: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-alloc-in-worker")
        .collect();
    // Only the `vec![` on line 7 — the allocations in setup_ranges (not a
    // worker fn) and the test module are out of scope.
    assert_eq!(allocs.len(), 1, "{vs:?}");
    assert_eq!(allocs[0].line, 7, "{allocs:?}");
}

#[test]
fn println_in_worker_loop_trips() {
    let vs = scan_source("crates/tensor/src/ops/matmul.rs", &fixture("bad_worker.rs"));
    let prints: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-println-in-worker")
        .collect();
    // Only line 8 (inside evil_row_block); the println! in setup_ranges
    // and the test module must not trip.
    assert_eq!(prints.len(), 1, "{vs:?}");
    assert_eq!(prints[0].line, 8, "{prints:?}");
}

#[test]
fn worker_rules_do_not_trip_outside_worker_files() {
    // Same source labelled as a file outside the kernel files: worker-loop
    // fns there are not subject to the rules.
    let vs = scan_source("crates/nn/src/bad_worker.rs", &fixture("bad_worker.rs"));
    assert!(
        vs.iter().all(|v| !v.rule.ends_with("-in-worker")),
        "worker rules are scoped to the kernel files: {vs:?}"
    );
}

#[test]
fn attention_kernel_rules_trip() {
    // ops/attention.rs is a kernel file: the unwrap/expect and
    // Instant::now bans apply file-wide.
    let vs = scan_source(
        "crates/tensor/src/ops/attention.rs",
        &fixture("bad_attention.rs"),
    );
    let unwraps: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-unwrap-in-kernels")
        .collect();
    // `.unwrap()` on line 9 (worker fn) and `.expect(` on line 22
    // (non-worker fn — the kernel rules are path-scoped, not fn-scoped).
    assert_eq!(unwraps.len(), 2, "{vs:?}");
    assert_eq!(unwraps[0].line, 9, "{unwraps:?}");
    assert_eq!(unwraps[1].line, 22, "{unwraps:?}");
    let instants: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == "no-instant-in-kernels")
        .collect();
    assert_eq!(instants.len(), 1, "{vs:?}");
    assert_eq!(instants[0].line, 10, "{instants:?}");
}

#[test]
fn attention_worker_rules_trip() {
    // The worker-loop rules now cover ops/attention.rs `_block` fns: the
    // lock (line 6), the allocation (line 7) and the println (line 8)
    // inside attn_fwd_row_block each trip exactly once; the allocation and
    // println in plan_attention (not a worker fn) stay quiet.
    let vs = scan_source(
        "crates/tensor/src/ops/attention.rs",
        &fixture("bad_attention.rs"),
    );
    let of_rule = |rule: &str| -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(of_rule("no-lock-in-worker"), vec![6], "{vs:?}");
    assert_eq!(of_rule("no-alloc-in-worker"), vec![7], "{vs:?}");
    assert_eq!(of_rule("no-println-in-worker"), vec![8], "{vs:?}");
}

#[test]
fn attention_test_module_is_exempt() {
    let vs = scan_source(
        "crates/tensor/src/ops/attention.rs",
        &fixture("bad_attention.rs"),
    );
    assert!(
        vs.iter().all(|v| v.line < 26),
        "violations inside #[cfg(test)] must be exempt: {vs:?}"
    );
}

#[test]
fn attention_rules_do_not_trip_outside_kernel_files() {
    // Same source labelled outside the kernel/worker paths: no rule
    // applies (the fixture has no forward/predict fns).
    let vs = scan_source(
        "crates/nn/src/bad_attention.rs",
        &fixture("bad_attention.rs"),
    );
    assert!(
        vs.is_empty(),
        "kernel and worker rules are path-scoped: {vs:?}"
    );
}

#[test]
fn obs_hooks_in_worker_loop_trip() {
    let vs = scan_source("crates/tensor/src/ops/attention.rs", &fixture("bad_obs.rs"));
    let spans: Vec<usize> = vs
        .iter()
        .filter(|v| v.rule == "no-span-in-worker")
        .map(|v| v.line)
        .collect();
    // span + count_op inside traced_row_block (lines 6-7) and the aliased
    // `obs::span(` in drain_queue_block (line 14). The same hooks in
    // op_boundary (not a worker fn) and the test module are legal, as is
    // the bare counter add in fast_path_block.
    assert_eq!(spans, vec![6, 7, 14], "{vs:?}");
    assert!(
        vs.iter()
            .all(|v| v.rule != "no-span-in-worker" || !v.text.contains(".add(")),
        "counter adds are a lone atomic and must stay legal: {vs:?}"
    );
}

#[test]
fn obs_rule_does_not_trip_outside_worker_files() {
    // Same source labelled outside the kernel files: the rule is scoped
    // to worker files, and instrumented library code (nn, lm, core)
    // uses these hooks freely.
    let vs = scan_source("crates/nn/src/bad_obs.rs", &fixture("bad_obs.rs"));
    assert!(
        vs.iter().all(|v| v.rule != "no-span-in-worker"),
        "no-span-in-worker is scoped to worker files: {vs:?}"
    );
}

#[test]
fn plan_loop_rules_trip_on_exact_lines() {
    // The *-in-plan-loop rules are scoped to `*_plan_loop` fns in
    // tensor/src/plan.rs: the vec! (line 6) and .push( (line 7) trip the
    // alloc rule, the .unwrap() (line 8) the unwrap rule, and the span
    // (line 9) the span rule. Nothing in build_plan (construction-time
    // code) or the test module may trip.
    let vs = scan_source("crates/tensor/src/plan.rs", &fixture("bad_plan.rs"));
    let of_rule = |rule: &str| -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(of_rule("no-alloc-in-plan-loop"), vec![6, 7], "{vs:?}");
    assert_eq!(of_rule("no-unwrap-in-plan-loop"), vec![8], "{vs:?}");
    assert_eq!(of_rule("no-span-in-plan-loop"), vec![9], "{vs:?}");
    assert!(
        vs.iter().all(|v| v.line < 15),
        "build_plan and the test module are out of scope: {vs:?}"
    );
}

#[test]
fn plan_loop_rules_do_not_trip_outside_plan_file() {
    // Same source labelled outside tensor/src/plan.rs: the plan rules are
    // path-scoped, like the worker rules.
    let vs = scan_source("crates/nn/src/bad_plan.rs", &fixture("bad_plan.rs"));
    assert!(
        vs.iter().all(|v| !v.rule.ends_with("-in-plan-loop")),
        "plan rules are scoped to tensor/src/plan.rs: {vs:?}"
    );
}

#[test]
fn real_plan_module_passes_its_own_lint() {
    // The shipped executor promises a zero-alloc, unwrap-free,
    // uninstrumented hot loop — it must stay clean under its own rules.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tensor/src/plan.rs");
    let source = std::fs::read_to_string(&path).expect("read plan.rs");
    let vs = scan_source("crates/tensor/src/plan.rs", &source);
    assert!(
        vs.is_empty(),
        "shipped plan executor violates its own lint: {vs:?}"
    );
}

#[test]
fn backward_plan_loop_rules_trip_on_exact_lines() {
    // The *-in-plan-loop rules extend to the backward/optimizer replay
    // loops in tensor/src/plan_train.rs: the vec! (line 6) and .push(
    // (line 7) trip the alloc rule inside backward_plan_loop, as does the
    // .to_vec() (line 17) inside optimizer_plan_loop; the .unwrap() (line
    // 8) trips the unwrap rule and the span (line 9) the span rule.
    // Nothing in bind_training (bind-time code) or the test module may
    // trip.
    let vs = scan_source(
        "crates/tensor/src/plan_train.rs",
        &fixture("bad_backward_plan.rs"),
    );
    let of_rule = |rule: &str| -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(of_rule("no-alloc-in-plan-loop"), vec![6, 7, 17], "{vs:?}");
    assert_eq!(of_rule("no-unwrap-in-plan-loop"), vec![8], "{vs:?}");
    assert_eq!(of_rule("no-span-in-plan-loop"), vec![9], "{vs:?}");
    assert!(
        vs.iter().all(|v| v.line < 21),
        "bind_training and the test module are out of scope: {vs:?}"
    );
}

#[test]
fn backward_plan_loop_rules_do_not_trip_outside_plan_files() {
    // Same source labelled outside tensor/src/plan*.rs: the plan rules
    // are path-scoped, like the worker rules.
    let vs = scan_source(
        "crates/nn/src/bad_backward_plan.rs",
        &fixture("bad_backward_plan.rs"),
    );
    assert!(
        vs.iter().all(|v| !v.rule.ends_with("-in-plan-loop")),
        "plan rules are scoped to tensor/src/plan.rs and plan_train.rs: {vs:?}"
    );
}

#[test]
fn real_train_plan_module_passes_its_own_lint() {
    // The shipped training executor promises zero-alloc, unwrap-free,
    // uninstrumented backward and optimizer loops — it must stay clean
    // under its own rules.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tensor/src/plan_train.rs");
    let source = std::fs::read_to_string(&path).expect("read plan_train.rs");
    let vs = scan_source("crates/tensor/src/plan_train.rs", &source);
    assert!(
        vs.is_empty(),
        "shipped training executor violates its own lint: {vs:?}"
    );
}

#[test]
fn simd_lane_loop_rules_trip_on_exact_lines() {
    // tensor/src/simd.rs is both a kernel file (no-unwrap/no-Instant
    // file-wide) and a worker file whose `_lanes` fns are worker loops:
    // the lock (line 7), vec! (line 8) and println (line 9) inside
    // dot_lanes trip the worker rules, the `.collect()` inside the second
    // `_block` fn (line 15) trips the alloc rule, and the unwrap/expect
    // (lines 10, 25) and Instant::now (line 24) trip the kernel rules —
    // even in simd_enabled_cached, which is not a worker fn.
    let vs = scan_source("crates/tensor/src/simd.rs", &fixture("bad_simd.rs"));
    let of_rule = |rule: &str| -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(of_rule("no-lock-in-worker"), vec![7], "{vs:?}");
    assert_eq!(of_rule("no-alloc-in-worker"), vec![8, 15], "{vs:?}");
    assert_eq!(of_rule("no-println-in-worker"), vec![9], "{vs:?}");
    assert_eq!(of_rule("no-unwrap-in-kernels"), vec![10, 25], "{vs:?}");
    assert_eq!(of_rule("no-instant-in-kernels"), vec![24], "{vs:?}");
    assert!(
        vs.iter().all(|v| v.line < 30),
        "violations inside #[cfg(test)] must be exempt: {vs:?}"
    );
}

#[test]
fn simd_rules_do_not_trip_outside_kernel_files() {
    // Same source labelled outside the kernel/worker paths: no rule
    // applies (the fixture has no forward/predict fns).
    let vs = scan_source("crates/nn/src/bad_simd.rs", &fixture("bad_simd.rs"));
    assert!(
        vs.is_empty(),
        "kernel and worker rules are path-scoped: {vs:?}"
    );
}

#[test]
fn real_simd_module_passes_its_own_lint() {
    // The shipped microkernels promise lock-free, alloc-free, I/O-free
    // lane loops — they must stay clean under their own rules.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tensor/src/simd.rs");
    let source = std::fs::read_to_string(&path).expect("read simd.rs");
    let vs = scan_source("crates/tensor/src/simd.rs", &source);
    assert!(
        vs.is_empty(),
        "shipped simd module violates its own lint: {vs:?}"
    );
}

#[test]
fn allowlist_suppresses_worker_rules() {
    let source = fixture("bad_worker.rs");
    let label = "crates/tensor/src/ops/matmul.rs";
    let all = scan_source(label, &source);
    let allow = Allowlist::parse("no-alloc-in-worker matmul.rs scratch\n");
    let kept: Vec<_> = all.iter().filter(|v| !allow.allows(v)).collect();
    assert_eq!(
        kept.len(),
        all.len() - 1,
        "exactly the scratch allocation is suppressed: {kept:?}"
    );
    assert!(kept.iter().all(|v| v.rule != "no-alloc-in-worker"));
}

#[test]
fn serve_loop_rules_trip_on_exact_lines() {
    // The *-in-serve-loop rules are scoped to `*_serve_loop` fns anywhere
    // under serve/src/: the vec! (line 6) and .push( (line 7) trip the
    // alloc rule, the .unwrap() (line 8) the unwrap rule, and the
    // println! (line 9) the println rule. Nothing in handle_request
    // (per-connection handler code) or the test module may trip.
    let vs = scan_source("crates/serve/src/registry.rs", &fixture("bad_serve.rs"));
    let of_rule = |rule: &str| -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(of_rule("no-alloc-in-serve-loop"), vec![6, 7], "{vs:?}");
    assert_eq!(of_rule("no-unwrap-in-serve-loop"), vec![8], "{vs:?}");
    assert_eq!(of_rule("no-println-in-serve-loop"), vec![9], "{vs:?}");
    assert!(
        vs.iter().all(|v| v.line < 15),
        "handle_request and the test module are out of scope: {vs:?}"
    );
}

#[test]
fn serve_loop_rules_cover_every_serve_module() {
    // Unlike the plan rules, which name specific tensor files, the serve
    // rules apply to any module of the serving crate — a new
    // `*_serve_loop` fn in server.rs is held to the same contract.
    let vs = scan_source("crates/serve/src/server.rs", &fixture("bad_serve.rs"));
    assert!(
        vs.iter().any(|v| v.rule == "no-alloc-in-serve-loop"),
        "serve rules cover all of serve/src/: {vs:?}"
    );
}

#[test]
fn serve_loop_rules_do_not_trip_outside_serve_files() {
    // Same source labelled outside serve/src/: the serve rules are
    // path-scoped, like the worker and plan rules.
    let vs = scan_source("crates/nn/src/bad_serve.rs", &fixture("bad_serve.rs"));
    assert!(
        vs.iter().all(|v| !v.rule.ends_with("-in-serve-loop")),
        "serve rules are scoped to serve/src/: {vs:?}"
    );
}

#[test]
fn real_serve_modules_pass_their_own_lint() {
    // The shipped plan replay (replay_serve_loop) and listener
    // (accept_serve_loop) promise alloc-free, unwrap-free, I/O-free hot
    // loops — they must stay clean under their own rules.
    for file in ["registry.rs", "server.rs"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../serve/src")
            .join(file);
        let source =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read serve/src/{file}: {e}"));
        let vs = scan_source(&format!("crates/serve/src/{file}"), &source);
        assert!(
            vs.is_empty(),
            "shipped serve module {file} violates its own lint: {vs:?}"
        );
    }
}

#[test]
fn slice_kernel_worker_rules_trip() {
    // ops/kernels.rs `_block` fns run inside the plan replay loops, which
    // the plan rules check only by name: the lock (line 7), the
    // allocation (line 8) and the println (line 9) in binary_block each
    // trip; the geometry builder's allocation (line 17) stays legal.
    let vs = scan_source(
        "crates/tensor/src/ops/kernels.rs",
        &fixture("bad_slice_kernel.rs"),
    );
    let of_rule = |rule: &str| -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(of_rule("no-lock-in-worker"), vec![7], "{vs:?}");
    assert_eq!(of_rule("no-alloc-in-worker"), vec![8], "{vs:?}");
    assert_eq!(of_rule("no-println-in-worker"), vec![9], "{vs:?}");
    assert_eq!(vs.len(), 3, "test module and geometry stay quiet: {vs:?}");
}

#[test]
fn slice_kernel_worker_rules_are_path_scoped() {
    let vs = scan_source(
        "crates/tensor/src/ops/elementwise.rs",
        &fixture("bad_slice_kernel.rs"),
    );
    assert!(
        vs.iter().all(|v| !v.rule.ends_with("-in-worker")),
        "worker rules cover only the worker files: {vs:?}"
    );
}

#[test]
fn real_slice_kernel_module_passes_its_own_lint() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tensor/src/ops/kernels.rs");
    let source = std::fs::read_to_string(&path).expect("read ops/kernels.rs");
    let vs = scan_source("crates/tensor/src/ops/kernels.rs", &source);
    assert!(
        vs.is_empty(),
        "shipped slice kernels violate their own lint: {vs:?}"
    );
}

#[test]
fn libm_transcendentals_in_kernel_files_trip_on_exact_lines() {
    // `.exp()` (line 7), `.tanh()` (line 12) and `.exp_m1()` (line 16)
    // trip in every file of the pinned-math scope; the comment, the
    // string, the pinned calls and the test module stay quiet.
    for label in [
        "crates/tensor/src/ops/kernels.rs",
        "crates/tensor/src/ops/softmax.rs",
        "crates/tensor/src/simd.rs",
        "crates/tensor/src/plan.rs",
        "crates/tensor/src/plan_train.rs",
    ] {
        let vs = scan_source(label, &fixture("bad_libm.rs"));
        let lines: Vec<usize> = vs
            .iter()
            .filter(|v| v.rule == "no-libm-exp-in-kernels")
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, vec![7, 12, 16], "{label}: {vs:?}");
    }
}

#[test]
fn libm_transcendental_rule_is_path_scoped() {
    // Outside the kernel layer (model code, data generators, the
    // thread-count module, the recorder) libm stays allowed.
    for label in [
        "crates/nn/src/bad_libm.rs",
        "crates/data/src/generators.rs",
        "crates/tensor/src/parallel.rs",
        "crates/tensor/src/recorder.rs",
    ] {
        let vs = scan_source(label, &fixture("bad_libm.rs"));
        assert!(
            vs.iter().all(|v| v.rule != "no-libm-exp-in-kernels"),
            "{label}: {vs:?}"
        );
    }
}

#[test]
fn real_kernel_files_use_only_pinned_transcendentals() {
    // Every shipped file in the rule's scope is clean under it.
    let tensor_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tensor/src");
    let mut files: Vec<String> = ["simd.rs", "plan.rs", "plan_train.rs"]
        .iter()
        .map(|f| f.to_string())
        .collect();
    for entry in std::fs::read_dir(tensor_src.join("ops")).expect("read ops/") {
        let name = entry.expect("ops/ entry").file_name();
        files.push(format!("ops/{}", name.to_string_lossy()));
    }
    assert!(files.len() >= 10, "scanned {files:?}");
    for file in &files {
        let source = std::fs::read_to_string(tensor_src.join(file))
            .unwrap_or_else(|e| panic!("read {file}: {e}"));
        let vs = scan_source(&format!("crates/tensor/src/{file}"), &source);
        assert!(
            vs.iter().all(|v| v.rule != "no-libm-exp-in-kernels"),
            "shipped {file} calls a libm transcendental: {vs:?}"
        );
    }
}
