#!/usr/bin/env bash
# Perf-baseline smoke gate: runs the kernel bench bin on the QUICK profile
# into a scratch directory, then re-invokes it with --validate to check the
# emitted JSON against the timekd-kernel-bench/v8 schema (which requires
# the per-shape kernel rows, the quantized_student section —
# int8 weights vs the f32 plan, accuracy-gated inside the bin itself —
# the batched_training section: on QUICK that is one B=4 row comparing
# the per-window planned epoch against the data-parallel batched replay,
# thread-invariance asserted bitwise inside the bin — and the serving
# section produced by the timekd-serve closed-loop load harness, latency
# quantiles read back from the server's own /metrics histograms).
# Fails if the bin crashes, trips the quantization MSE gate, sees a
# serving request error, emits nothing, or emits a file that does not
# conform. A standalone QUICK serve_load smoke also runs first so a
# serving regression fails fast with its own output.
#
# Full (committed) baselines are produced by running with QUICK=0 and with
# no TIMEKD_BENCH_DIR override, which writes BENCH_<unix-seconds>.json at
# the repo root:
#   QUICK=0 cargo run -p timekd-bench --release --bin kernels
set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

echo "==> serve_load smoke run (QUICK)"
QUICK=1 cargo run -q -p timekd-bench --release --bin serve_load

echo "==> bench smoke run (QUICK, TIMEKD_BENCH_DIR=$out_dir)"
QUICK=1 TIMEKD_BENCH_DIR="$out_dir" cargo run -q -p timekd-bench --release --bin kernels

emitted=("$out_dir"/BENCH_*.json)
if [ ! -f "${emitted[0]}" ]; then
  echo "bench.sh: no BENCH_*.json emitted into $out_dir" >&2
  exit 1
fi

echo "==> validating ${emitted[0]##*/} against the kernel-bench schema"
cargo run -q -p timekd-bench --release --bin kernels -- --validate "${emitted[0]}"

echo "bench gate passed."
