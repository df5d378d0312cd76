#!/usr/bin/env bash
# The full CI gate, in the order cheapest-to-fail-first. Run from anywhere;
# works offline (the workspace has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting is advisory when rustfmt is not installed in the toolchain.
if cargo fmt --version >/dev/null 2>&1; then
  echo "==> cargo fmt --check"
  cargo fmt --all --check
else
  echo "==> cargo fmt not available; skipping format check"
fi

echo "==> timekd-check --lints (source rules, allowlist, tracked artifacts)"
cargo run -q -p timekd-check -- --lints --strict

echo "==> timekd-check --verify (symbolic shape + gradient-flow proofs)"
cargo run -q -p timekd-check -- --verify

echo "==> timekd-check --graph (dynamic audits + symbolic cross-check)"
cargo run -q -p timekd-check -- --graph

echo "==> timekd-check --plan (forward: liveness, arena, graph diff; training: adjoint completeness, reverse schedule, saved-activation liveness, bitwise plan-vs-dynamic updates; batched: reduction completeness, per-lane arena disjointness — all configs)"
cargo run -q -p timekd-check -- --plan --strict

echo "==> release build"
cargo build --release --workspace

echo "==> tests"
cargo test -q --workspace

echo "==> batched training determinism suite (planned vs dynamic oracle, thread invariance, zero-alloc replay)"
# Re-run the bitwise gates by name so a filtered or flaky-skipped workspace
# run can never silently drop them: the planned epoch must reproduce the
# dynamic per-window loop bit for bit, and the batched fold must be
# thread-count invariant.
cargo test -q -p timekd -- --exact \
  trainer::tests::planned_student_epoch_is_bitwise_identical_to_dynamic \
  trainer::tests::batched_student_epoch_is_thread_invariant_with_uneven_tail \
  plan::tests::batch_trainer_reuses_cached_plan_across_rebuilds
cargo test -q -p timekd-bench --test planned_alloc

echo "==> serving integration suite (bitwise parity, hot-swap under load, registry faults)"
# Same rationale as the determinism gates: re-run the serving contract
# tests by name so a filtered workspace run can never silently drop them.
cargo test -q -p timekd-serve --test http_serving
cargo test -q -p timekd-serve --test registry_faults

echo "==> benchmark package tests (result-line schema, metric tables)"
# The benchmark package is its own workspace, so the workspace run above
# never reaches its tests; run them here.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> bench smoke (QUICK kernel bench + schema validation)"
# Explicit propagation: a validator failure inside the smoke must fail CI
# even if this script is ever sourced or run without `set -e` semantics.
if ! scripts/bench.sh; then
  echo "ci.sh: bench smoke failed (bench crash or schema-validator rejection)" >&2
  exit 1
fi

echo "==> observability gate (golden trace + overhead guard + traced quickstart)"
if ! scripts/trace.sh; then
  echo "ci.sh: observability gate failed" >&2
  exit 1
fi

echo "CI gate passed."
