//! # timekd-check
//!
//! Dependency-free source linter for the TimeKD workspace, plus the
//! entrypoint that runs the autograd-graph sanity checks (see `main.rs`).
//!
//! The linter is a hand-rolled line scanner — no `syn`, no regex crate —
//! that tracks just enough structure (brace depth, current function,
//! `#[cfg(test)]` regions, strings and comments) to enforce a small set of
//! repo rules over `crates/*/src`:
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | `no-unwrap-in-kernels` | `tensor/src/ops/*`, `tensor/src/parallel.rs`, `tensor/src/simd.rs` | no `.unwrap()` / `.expect(` in hot kernels |
//! | `no-instant-in-kernels` | `tensor/src/ops/*`, `tensor/src/parallel.rs`, `tensor/src/simd.rs` | no `Instant::now` timing inside kernels |
//! | `no-libm-exp-in-kernels` | `tensor/src/ops/*`, `tensor/src/simd.rs`, `tensor/src/plan.rs`, `tensor/src/plan_train.rs` | no `.exp()` / `.tanh()` / `.exp_m1()`: kernel transcendentals go through the pinned `simd::exp` / `simd::tanh` |
//! | `no-clone-in-forward` | all crates | no tensor-data copies (`.to_vec()`, `.data().clone()`) inside `forward*` fns |
//! | `no-grad-in-inference` | all crates | `predict` / `evaluate` fns must run under `no_grad` (directly or by delegating to `predict`) |
//! | `no-lock-in-worker` | worker loops | no lock/condvar acquisition (`.lock(`, `.wait(`) in per-block worker loops |
//! | `no-alloc-in-worker` | worker loops | no allocation (`vec![`, `Vec::`, `Box::new`, `.to_vec()`, `.collect()`) in per-block worker loops |
//! | `no-println-in-worker` | worker loops | no `print!`/`println!`/`dbg!` I/O in per-block worker loops |
//! | `no-span-in-worker` | worker loops | no `timekd_obs` span/count hooks in per-block worker loops |
//! | `no-alloc-in-plan-loop` | plan loops | no allocation (`vec![`, `Vec::`, `.push(`, `Box::new`, `.to_vec()`, `.collect()`) in the plan executors' step loops |
//! | `no-unwrap-in-plan-loop` | plan loops | no `.unwrap()` / `.expect(` in the plan executors' step loops |
//! | `no-span-in-plan-loop` | plan loops | no `timekd_obs` span/count hooks in the plan executors' step loops |
//! | `no-alloc-in-serve-loop` | serve loops | no allocation (`vec![`, `Vec::`, `.push(`, `Box::new`, `.to_vec()`, `.collect()`) in the serving hot loops |
//! | `no-unwrap-in-serve-loop` | serve loops | no `.unwrap()` / `.expect(` in the serving hot loops |
//! | `no-println-in-serve-loop` | serve loops | no `print!`/`println!`/`dbg!` I/O in the serving hot loops |
//!
//! "Worker loops" are the hot per-block functions of the parallel kernel
//! path — functions in `tensor/src/parallel.rs`,
//! `tensor/src/ops/matmul.rs`, `tensor/src/ops/attention.rs`,
//! `tensor/src/ops/kernels.rs` (the slice kernels both engines call), or
//! `tensor/src/simd.rs` whose name ends in
//! `_block` or `_lanes` or is `drain_tasks` (the naming contract those
//! files document; `_lanes` fns are the `f32x8` microkernel loops the
//! `_block` kernels call). They run on
//! pool threads inside a claimed task, where a lock could deadlock the
//! pool, an allocation serialises on the global allocator, and console
//! I/O both blocks and interleaves.
//!
//! "Plan loops" are the hot schedule-replay functions of the static plan
//! executors — functions in `tensor/src/plan.rs` (forward replay) or
//! `tensor/src/plan_train.rs` (backward and optimizer replay) whose
//! name ends in `_plan_loop` (the naming contract those files document).
//! The executors' whole point is zero per-call allocation and zero
//! instrumentation; a stray `Vec::push`, panic path, or span there
//! silently voids the plan's performance contract — for training plans,
//! on every forward, backward, *and* optimizer step of every epoch.
//!
//! "Serve loops" are the hot per-request functions of the forecast server
//! — functions in `serve/src/` whose name ends in `_serve_loop` (the
//! naming contract `timekd-serve` documents): the per-request plan
//! replay and the listener accept loop. They sit on the serving critical
//! path of every request, where an allocation serialises concurrent
//! connections on the global allocator, an `unwrap` turns one bad request
//! into a dead accept thread for *all* tenants, and console I/O blocks
//! the accept thread. Fallible work belongs in the per-connection
//! handlers, which reply with an HTTP error instead of panicking.
//!
//! The `no-libm-exp-in-kernels` rule keeps the kernel layer on one numeric
//! contract: libm's `exp`/`tanh` (and the `expm1` its `tanh` calls) give
//! bits that depend on the host's libm and CPU, while the pinned lane
//! kernels give the same bits everywhere. It matches the method-call text,
//! so a `Tensor::exp` call in those files trips it too; none exists
//! outside tests.
//!
//! Test modules are exempt from every rule. Justified exceptions go in the
//! repo-root `lint-allow.txt` allowlist (see [`Allowlist`]).

#![deny(
    unused_must_use,
    unused_imports,
    unused_variables,
    dead_code,
    unreachable_patterns,
    missing_debug_implementations
)]
#![warn(missing_docs)]

pub mod plan;
pub mod verify;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule identifier (kebab-case, stable — used in the allowlist).
    pub rule: &'static str,
    /// Path of the offending file as scanned.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.text
        )
    }
}

/// Allowlist for justified rule exceptions.
///
/// Format, one entry per line: `rule path-fragment line-fragment`, where
/// `rule` is a rule id or `*`, `path-fragment` must be contained in the
/// violation's path, and the rest of the line must be contained in the
/// offending source line. `#` starts a comment.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String, String)>,
}

impl Allowlist {
    /// Parses allowlist text. Malformed lines (fewer than 3 fields) are
    /// ignored rather than fatal so a stale allowlist cannot break CI.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            if let (Some(rule), Some(path), Some(frag)) = (parts.next(), parts.next(), parts.next())
            {
                entries.push((rule.to_string(), path.to_string(), frag.trim().to_string()));
            }
        }
        Allowlist { entries }
    }

    /// Loads the allowlist from `path`; a missing file means no exceptions.
    pub fn load(path: &Path) -> Allowlist {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    /// True if `v` matches an entry and should be suppressed.
    pub fn allows(&self, v: &Violation) -> bool {
        self.match_entry(v).is_some()
    }

    /// Index of the first entry matching `v`, if any. The scanner uses the
    /// index to track which entries actually fire, so stale entries (ones
    /// matching no current violation) can be reported.
    pub fn match_entry(&self, v: &Violation) -> Option<usize> {
        self.entries.iter().position(|(rule, path, frag)| {
            (rule == "*" || rule == v.rule)
                && v.path.contains(path.as_str())
                && v.text.contains(frag.as_str())
        })
    }

    /// Renders entry `idx` back in the file's `rule path fragment` form.
    pub fn describe(&self, idx: usize) -> String {
        let (rule, path, frag) = &self.entries[idx];
        format!("{rule} {path} {frag}")
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Strips comments and string/char literal *contents* from one line,
/// carrying block-comment state across lines. Literal delimiters are kept
/// so brace counting still sees code structure, but braces and rule
/// keywords inside strings or comments are ignored.
fn code_only(line: &str, in_block_comment: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block_comment = true;
                i += 2;
            }
            b'"' => {
                // Skip string contents (with escapes).
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push_str("\"\"");
            }
            b'\'' => {
                // Char literal like '{' or '\n'; lifetimes ('a) have no
                // closing quote within a few bytes — treat those as code.
                let close = if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    (bytes[i + 3] == b'\'').then_some(i + 3)
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    Some(i + 2)
                } else {
                    None
                };
                if let Some(end) = close {
                    out.push_str("' '");
                    i = end + 1;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// Extracts the name following a `fn ` keyword, if the line declares one.
fn fn_name(code: &str) -> Option<String> {
    let idx = code.find("fn ")?;
    // Require a word boundary before `fn` (start, space, or punctuation).
    if idx > 0 {
        let prev = code.as_bytes()[idx - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return None;
        }
    }
    let rest = &code[idx + 3..];
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

struct OpenFn {
    name: String,
    start_line: usize,
    depth: usize,
    body: String,
}

/// Scans one file's source text and returns every rule violation,
/// un-filtered by any allowlist. `path_label` is used for reporting and
/// for path-scoped rules, so pass a repo-relative path.
pub fn scan_source(path_label: &str, source: &str) -> Vec<Violation> {
    let in_kernels = path_label.contains("tensor/src/ops/")
        || path_label.contains("tensor/src/parallel.rs")
        || path_label.contains("tensor/src/simd.rs");
    // Files whose element-wise transcendentals must be the pinned lane
    // kernels: the ops, the lane kernels themselves, and both plan
    // executors.
    let in_pinned_math = path_label.contains("tensor/src/ops/")
        || path_label.contains("tensor/src/simd.rs")
        || path_label.contains("tensor/src/plan.rs")
        || path_label.contains("tensor/src/plan_train.rs");
    // Files that may define per-block worker-loop fns (`*_block`,
    // `*_lanes`, `drain_tasks`) subject to the no-lock/no-alloc/no-println
    // rules. `simd.rs` hosts the `_lanes` microkernel loops the `_block`
    // kernels call; they run inside claimed pool tasks just like the
    // kernels themselves.
    // `ops/kernels.rs` hosts the element-wise, reduction and permute
    // `_block` kernels the `*_plan_loop` replays call: the plan rules see
    // only the loop's own body, so these rules keep the kernels alloc-free.
    let in_worker_file = path_label.contains("tensor/src/parallel.rs")
        || path_label.contains("tensor/src/ops/matmul.rs")
        || path_label.contains("tensor/src/ops/attention.rs")
        || path_label.contains("tensor/src/ops/kernels.rs")
        || path_label.contains("tensor/src/simd.rs");
    // Files that may define plan-executor hot loops (`*_plan_loop`),
    // subject to the no-alloc/no-unwrap/no-span plan rules. `plan.rs`
    // hosts the forward replay loop, `plan_train.rs` the backward and
    // optimizer replay loops of training plans.
    let in_plan_file = path_label.contains("tensor/src/plan.rs")
        || path_label.contains("tensor/src/plan_train.rs");
    // Any module of the serving crate may define `*_serve_loop` fns —
    // the per-request plan replay and the accept loop — subject to the
    // no-alloc/no-unwrap/no-println serve rules. They run on the serving
    // critical path of every request; fallible work belongs in the
    // per-connection handlers, which answer with an HTTP error instead.
    let in_serve_file = path_label.contains("serve/src/");
    let mut violations = Vec::new();
    let mut depth = 0usize;
    let mut in_block_comment = false;
    // `Some(d)` = inside a `#[cfg(test)]` item whose brace opened at depth d.
    let mut test_region: Option<usize> = None;
    let mut test_pending = false;
    let mut pending_fn: Option<(String, usize)> = None;
    let mut open_fns: Vec<OpenFn> = Vec::new();

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let code = code_only(raw, &mut in_block_comment);
        let trimmed = raw.trim();
        if trimmed.starts_with("#[cfg(test)]") && test_region.is_none() {
            test_pending = true;
        }
        let in_test = test_region.is_some();

        if !in_test {
            if let Some(name) = fn_name(&code) {
                pending_fn = Some((name, lineno));
            }
        }

        // Per-line rules run before brace processing so a violation on the
        // closing line of a fn still attributes to it.
        if !in_test && !test_pending {
            let current_fn = open_fns.last().map(|f| f.name.as_str()).unwrap_or("");
            if in_kernels && (code.contains(".unwrap()") || code.contains(".expect(")) {
                violations.push(Violation {
                    rule: "no-unwrap-in-kernels",
                    path: path_label.to_string(),
                    line: lineno,
                    text: trimmed.to_string(),
                });
            }
            if in_kernels && code.contains("Instant::now") {
                violations.push(Violation {
                    rule: "no-instant-in-kernels",
                    path: path_label.to_string(),
                    line: lineno,
                    text: trimmed.to_string(),
                });
            }
            if in_pinned_math
                && (code.contains(".exp()")
                    || code.contains(".tanh()")
                    || code.contains(".exp_m1()"))
            {
                violations.push(Violation {
                    rule: "no-libm-exp-in-kernels",
                    path: path_label.to_string(),
                    line: lineno,
                    text: trimmed.to_string(),
                });
            }
            if current_fn.starts_with("forward")
                && (code.contains(".to_vec()") || code.contains(".data().clone()"))
            {
                violations.push(Violation {
                    rule: "no-clone-in-forward",
                    path: path_label.to_string(),
                    line: lineno,
                    text: trimmed.to_string(),
                });
            }
            let in_worker_fn = in_worker_file
                && (current_fn.ends_with("_block")
                    || current_fn.ends_with("_lanes")
                    || current_fn == "drain_tasks");
            if in_worker_fn {
                if code.contains(".lock(") || code.contains(".wait(") {
                    violations.push(Violation {
                        rule: "no-lock-in-worker",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                if code.contains("vec![")
                    || code.contains("Vec::")
                    || code.contains("Box::new")
                    || code.contains(".to_vec()")
                    || code.contains(".collect()")
                {
                    violations.push(Violation {
                        rule: "no-alloc-in-worker",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                if code.contains("println!") || code.contains("print!") || code.contains("dbg!") {
                    violations.push(Violation {
                        rule: "no-println-in-worker",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                // Observability hooks stay at the job boundary (worker_loop,
                // parallel_for): a span records through a thread-local trie
                // and an op count through a thread-local map, both of which
                // may allocate on first touch — never inside a claimed
                // block. Counter `.add(` is a lone atomic and stays legal.
                if code.contains("obs::span(") || code.contains("obs::count_op(") {
                    violations.push(Violation {
                        rule: "no-span-in-worker",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
            }
            // The plan executor's schedule-replay loop promises zero
            // per-call allocation, no panic paths, and no instrumentation
            // — that promise is the whole reason the plan exists.
            if in_plan_file && current_fn.ends_with("_plan_loop") {
                if code.contains("vec![")
                    || code.contains("Vec::")
                    || code.contains(".push(")
                    || code.contains("Box::new")
                    || code.contains(".to_vec()")
                    || code.contains(".collect()")
                {
                    violations.push(Violation {
                        rule: "no-alloc-in-plan-loop",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                if code.contains(".unwrap()") || code.contains(".expect(") {
                    violations.push(Violation {
                        rule: "no-unwrap-in-plan-loop",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                if code.contains("obs::span(") || code.contains("obs::count_op(") {
                    violations.push(Violation {
                        rule: "no-span-in-plan-loop",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
            }
            // The serving hot loops (plan replay, listener accept)
            // promise the same: no per-request allocation, no panic paths
            // that could kill a handler or the shared accept thread, and
            // no console I/O on the critical path.
            let in_serve_fn = in_serve_file && current_fn.ends_with("_serve_loop");
            if in_serve_fn {
                if code.contains("vec![")
                    || code.contains("Vec::")
                    || code.contains(".push(")
                    || code.contains("Box::new")
                    || code.contains(".to_vec()")
                    || code.contains(".collect()")
                {
                    violations.push(Violation {
                        rule: "no-alloc-in-serve-loop",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                if code.contains(".unwrap()") || code.contains(".expect(") {
                    violations.push(Violation {
                        rule: "no-unwrap-in-serve-loop",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
                if code.contains("println!") || code.contains("print!") || code.contains("dbg!") {
                    violations.push(Violation {
                        rule: "no-println-in-serve-loop",
                        path: path_label.to_string(),
                        line: lineno,
                        text: trimmed.to_string(),
                    });
                }
            }
        }

        for ch in code.chars() {
            match ch {
                '{' => {
                    if test_pending {
                        test_region = Some(depth);
                        test_pending = false;
                    }
                    if let Some((name, start)) = pending_fn.take() {
                        open_fns.push(OpenFn {
                            name,
                            start_line: start,
                            depth,
                            body: String::new(),
                        });
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if open_fns.last().is_some_and(|f| f.depth == depth) {
                        let f = open_fns.pop().unwrap_or_else(|| unreachable!());
                        let inference = f.name == "predict" || f.name == "evaluate";
                        if inference
                            && test_region.is_none()
                            && !f.body.contains("no_grad")
                            && !f.body.contains(".predict(")
                        {
                            violations.push(Violation {
                                rule: "no-grad-in-inference",
                                path: path_label.to_string(),
                                line: f.start_line,
                                text: format!("fn {} runs without a no_grad scope", f.name),
                            });
                        }
                    }
                    if test_region == Some(depth) {
                        test_region = None;
                    }
                }
                // A `;` before any `{` means the pending decl was bodyless
                // (trait method): drop it so the next block is not
                // mis-attributed.
                ';' if pending_fn.is_some() => pending_fn = None,
                _ => {}
            }
        }
        for f in &mut open_fns {
            f.body.push_str(&code);
            f.body.push('\n');
        }
    }
    violations
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of a workspace scan: live violations plus allowlist entries that
/// matched nothing (stale — the exception they document no longer exists
/// and should be deleted).
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Violations not suppressed by the allowlist.
    pub violations: Vec<Violation>,
    /// Allowlist entries (rendered back in file form) that suppressed no
    /// violation anywhere in the workspace.
    pub stale_allowlist: Vec<String>,
}

/// As [`scan_workspace`], but also reports stale allowlist entries.
pub fn scan_workspace_with_stale(repo_root: &Path, allow: &Allowlist) -> io::Result<ScanOutcome> {
    let mut files = Vec::new();
    let crates_dir = repo_root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files)?;
        }
    }
    let root_src = repo_root.join("src");
    if root_src.is_dir() {
        rust_files(&root_src, &mut files)?;
    }
    files.sort();
    let mut outcome = ScanOutcome::default();
    let mut used = vec![false; allow.len()];
    for file in files {
        let label = file
            .strip_prefix(repo_root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&file)?;
        for v in scan_source(&label, &source) {
            match allow.match_entry(&v) {
                Some(idx) => used[idx] = true,
                None => outcome.violations.push(v),
            }
        }
    }
    outcome.stale_allowlist = used
        .iter()
        .enumerate()
        .filter(|(_, fired)| !**fired)
        .map(|(idx, _)| allow.describe(idx))
        .collect();
    Ok(outcome)
}

/// Scans every `crates/*/src` tree (and the root package `src/` if
/// present) under `repo_root`. Returns violations not covered by `allow`,
/// with repo-relative paths.
pub fn scan_workspace(repo_root: &Path, allow: &Allowlist) -> io::Result<Vec<Violation>> {
    Ok(scan_workspace_with_stale(repo_root, allow)?.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_only_strips_comments_and_strings() {
        let mut blk = false;
        assert_eq!(
            code_only("let x = 1; // .unwrap()", &mut blk),
            "let x = 1; "
        );
        assert_eq!(
            code_only("let s = \".unwrap()\";", &mut blk),
            "let s = \"\";"
        );
        assert_eq!(code_only("a /* x.unwrap() */ b", &mut blk), "a  b");
        assert!(!blk);
        assert_eq!(code_only("start /* spans", &mut blk), "start ");
        assert!(blk);
        assert_eq!(code_only("still } comment */ after", &mut blk), " after");
        assert!(!blk);
    }

    #[test]
    fn code_only_handles_char_literals() {
        let mut blk = false;
        // A '{' char literal must not look like an opening brace.
        assert_eq!(code_only("if c == '{' {", &mut blk), "if c == ' ' {");
        // Lifetimes pass through.
        assert_eq!(
            code_only("fn f<'a>(x: &'a str)", &mut blk),
            "fn f<'a>(x: &'a str)"
        );
    }

    #[test]
    fn fn_name_extraction() {
        assert_eq!(fn_name("pub fn forward(&self)").as_deref(), Some("forward"));
        assert_eq!(fn_name("    fn predict(").as_deref(), Some("predict"));
        assert_eq!(fn_name("let fnord = 3;"), None);
        assert_eq!(fn_name("no function here"), None);
    }

    #[test]
    fn allowlist_matches_rule_path_and_fragment() {
        let allow = Allowlist::parse(
            "# comment\nno-clone-in-forward student.rs .to_vec()\n* teacher.rs Instant\n",
        );
        assert_eq!(allow.len(), 2);
        let v = Violation {
            rule: "no-clone-in-forward",
            path: "crates/core/src/student.rs".into(),
            line: 3,
            text: "let v = x.to_vec();".into(),
        };
        assert!(allow.allows(&v));
        let other = Violation {
            rule: "no-unwrap-in-kernels",
            ..v.clone()
        };
        assert!(!allow.allows(&other), "rule must match unless wildcard");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
impl Tensor {
    fn kernel(&self) -> f32 { self.data.first().copied().unwrap_or(0.0) }
}
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
";
        let v = scan_source("crates/tensor/src/ops/fake.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }
}
