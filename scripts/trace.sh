#!/usr/bin/env bash
# Observability gate: the golden-trace regression suite, the tracing
# overhead guard, and one traced QUICK quickstart. The quickstart checks
# the JSON report it writes against the timekd-trace/v1 schema and for
# full pipeline coverage (teacher, SCA, student, both PKD losses, pool,
# LM cache), and exits 1 if either check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> golden-trace regression suite"
cargo test -q --test golden_trace

echo "==> obs overhead guard (<1% disabled-path cost, zero graph delta)"
cargo test -q --test obs_overhead

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

echo "==> traced QUICK quickstart (TIMEKD_TRACE=1, report to $out_dir)"
if ! QUICK=1 TIMEKD_TRACE=1 TIMEKD_TRACE_OUT="$out_dir/trace.json" \
    cargo run -q --release --example quickstart >"$out_dir/quickstart.log"; then
  echo "trace.sh: traced quickstart failed; last log lines:" >&2
  tail -n 20 "$out_dir/quickstart.log" >&2 || true
  exit 1
fi
if [ ! -f "$out_dir/trace.json" ]; then
  echo "trace.sh: quickstart emitted no trace report" >&2
  exit 1
fi

echo "trace gate passed."
