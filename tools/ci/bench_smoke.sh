#!/usr/bin/env bash
# bench_smoke.sh — run the two tracked figure benchmarks in their smallest
# (--smoke) configuration and diff the timings against the committed
# BENCH_2.json baseline. Regressions print warnings but never fail the
# job (shared-runner noise); use the warnings as a trend signal.
#
# Usage: tools/ci/bench_smoke.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}

cmake --build "$BUILD_DIR" -j"$JOBS" \
  --target fig13b_fault_scaling fig14_simulation serve_latency fleet_overhead

mkdir -p bench-artifacts
"$BUILD_DIR/bench/fig13b_fault_scaling" --smoke --json bench-artifacts/fig13b.json
"$BUILD_DIR/bench/fig14_simulation" --smoke --json bench-artifacts/fig14.json
# The saturation record tracks admission behavior (shed_rate by absolute
# drift, accepted_p99_ms like any timing) against the baseline.
"$BUILD_DIR/bench/serve_latency" --smoke --saturate \
  --json bench-artifacts/serve_saturation.json
# Fleet dispatch tax: in-process vs 1-worker fleet wall time per job.
"$BUILD_DIR/bench/fleet_overhead" --smoke \
  --json bench-artifacts/fleet_overhead.json

python3 tools/ci/bench_compare.py BENCH_2.json \
  bench-artifacts/fig13b.json bench-artifacts/fig14.json \
  bench-artifacts/serve_saturation.json bench-artifacts/fleet_overhead.json
