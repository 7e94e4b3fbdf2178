#!/usr/bin/env bash
# fault_inject.sh — run-governance smoke stage: arms every NV_FAULT_INJECT
# safe-point site against the nv CLI on the example networks and asserts
# that each run terminates with the documented resource-exhausted exit
# code (3) — never an abort, never a crash — and that a clean budget-flag
# run degrades the same way, and that malformed numeric flags of nv,
# nv-fuzz and the benchmarks are usage errors (2). Finally replays the
# committed budget corpus seed through nv-fuzz: its FT legs hit the step
# budget and must reduce to the structured skip verdict (exit 0, no
# divergence).
#
# Usage: tools/ci/fault_inject.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release ${CMAKE_EXTRA:-}
cmake --build "$BUILD_DIR" -j"$JOBS" --target nv nv-fuzz \
  fig13b_fault_scaling fig12_smt serve_latency

NV="$BUILD_DIR/tools/nv"
NV_FUZZ="$BUILD_DIR/tools/nv-fuzz"

# expect_code CODE DESC CMD...: run CMD, require exit code CODE exactly.
# Signal deaths (abort = 134, segfault = 139) show up as wrong codes.
expect_code() {
  local want=$1 desc=$2
  shift 2
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got: $*" >&2
    exit 1
  fi
  echo "ok: $desc (exit $got)"
}

EXAMPLE=examples/nv/sp_diamond.nv

# Every injection site, against the engine most likely to reach it. A site
# a command never reaches simply leaves the countdown unfired, and the run
# must then succeed with its normal code — so pair each site with a
# command that does reach it.
expect_code 3 "inject sim-pop into sim" \
  env NV_FAULT_INJECT=sim-pop:1 "$NV" sim "$EXAMPLE"
expect_code 3 "inject alloc into sim" \
  env NV_FAULT_INJECT=alloc:1 "$NV" sim "$EXAMPLE"
expect_code 3 "inject apply-cache-miss into ft" \
  env NV_FAULT_INJECT=apply-cache-miss:1 "$NV" ft "$EXAMPLE"
expect_code 3 "inject smt-encode into verify" \
  env NV_FAULT_INJECT=smt-encode:1 "$NV" verify "$EXAMPLE"
expect_code 3 "inject solver-check into verify" \
  env NV_FAULT_INJECT=solver-check:1 "$NV" verify "$EXAMPLE"

# table-grow needs an MTBDD arena that actually outgrows its initial
# tables: a generator-produced fat tree under a 2-failure meta-simulation
# (seed-derived, so the run is deterministic).
BIG=$(mktemp --suffix=.nv)
trap 'rm -f "$BIG"' EXIT
"$NV_FUZZ" --emit 12 > "$BIG"
expect_code 3 "inject table-grow into 2-failure ft" \
  env NV_FAULT_INJECT=table-grow:1 "$NV" ft "$BIG" --links 2

# An armed site a run never reaches must leave the verdict untouched
# (sp_diamond's arena never grows; ft still reports its real violations).
expect_code 1 "armed-but-unreached table-grow keeps the verdict" \
  env NV_FAULT_INJECT=table-grow:1 "$NV" ft "$EXAMPLE"

# Late countdowns fire mid-run rather than at the first safe point.
expect_code 3 "inject sim-pop:3 mid-simulation" \
  env NV_FAULT_INJECT=sim-pop:3 "$NV" sim "$EXAMPLE"
expect_code 3 "inject alloc:100 mid-ft" \
  env NV_FAULT_INJECT=alloc:100 "$NV" ft "$EXAMPLE"

# Budget flags degrade the same way without injection.
expect_code 3 "50ms deadline on verify" \
  "$NV" verify "$EXAMPLE" --deadline-ms 0.0001
expect_code 3 "step budget on sim" \
  "$NV" sim "$EXAMPLE" --max-steps 1
expect_code 3 "node budget on ft" \
  "$NV" ft "$EXAMPLE" --node-budget 4

# Ungoverned runs keep their normal verdict codes (0 = holds; ft on the
# diamond reports real violations = 1).
expect_code 0 "ungoverned sim" "$NV" sim "$EXAMPLE"
expect_code 1 "ungoverned ft (violations)" "$NV" ft "$EXAMPLE"

# Bad failure counts are usage errors (2), never a silently different
# sweep; --links 0 --node is a valid node-failure sweep (violations: 1).
for CMD in ft naive; do
  expect_code 2 "$CMD: non-numeric --links" "$NV" $CMD "$EXAMPLE" --links abc
  expect_code 2 "$CMD: negative --links" "$NV" $CMD "$EXAMPLE" --links -1
  expect_code 2 "$CMD: no failure at all" "$NV" $CMD "$EXAMPLE" --links 0
  expect_code 1 "$CMD: --links 0 --node" "$NV" $CMD "$EXAMPLE" --links 0 --node
done
expect_code 2 "ft: --chunk 0" "$NV" ft "$EXAMPLE" --chunk 0

# Every numeric flag parses strictly: "abc" and "3x" are usage errors
# (exit 2 with the usage text), never 0 or 3. Only values that would be
# harmless if accepted are tried here; "-1" and overflow are covered by
# the parser's unit test, since an accepted "-1" would ask for 2^32-1
# threads or workers. A daemon that wrongly accepts a value is stopped by
# the timeout and fails the check.
SOCK_DIR=$(mktemp -d)
expect_usage() { # DESC CMD...
  local desc=$1 got=0
  shift
  timeout 20 "$@" > "$SOCK_DIR/usage.out" 2>&1 || got=$?
  if [ "$got" -ne 2 ] || ! grep -q "usage:" "$SOCK_DIR/usage.out"; then
    echo "FAIL: $desc: expected the usage error (exit 2), got $got: $*" >&2
    exit 1
  fi
}
for BAD in abc 3x; do
  for FLAG in --threads --retry --workers --deadline-ms --max-steps \
      --node-budget; do
    expect_usage "naive $FLAG $BAD" "$NV" naive "$EXAMPLE" "$FLAG" "$BAD"
  done
  expect_usage "verify --timeout $BAD" "$NV" verify "$EXAMPLE" --timeout "$BAD"
  for FLAG in --threads --max-sessions --max-inflight --queue-depth \
      --heap-budget-mb --memo-cap --idle-timeout-ms --max-line-bytes \
      --restart-backoff-ms --restart-cap-ms --max-restarts; do
    expect_usage "serve $FLAG $BAD" "$NV" serve "$SOCK_DIR/s" "$FLAG" "$BAD"
  done
  for FLAG in --timeout-ms --retries; do
    expect_usage "req $FLAG $BAD" "$NV" req "$SOCK_DIR/s" "$FLAG" "$BAD" '{}'
  done
  for FLAG in --threads --retry --workers --time-budget; do
    expect_usage "nv-fuzz $FLAG $BAD" "$NV_FUZZ" --count 0 "$FLAG" "$BAD"
  done
done
# The benchmarks' numeric flags exit before any work starts.
expect_usage "fig13b_fault_scaling --threads abc" \
  "$BUILD_DIR/bench/fig13b_fault_scaling" --threads abc
expect_usage "fig13b_fault_scaling --gc-watermark abc" \
  "$BUILD_DIR/bench/fig13b_fault_scaling" --cell 4:1 --gc-watermark abc
expect_usage "fig13b_fault_scaling with a valueless trailing --threads" \
  "$BUILD_DIR/bench/fig13b_fault_scaling" --cell 4:1 --threads
expect_usage "fig12_smt --timeout 3x" "$BUILD_DIR/bench/fig12_smt" --timeout 3x
expect_usage "serve_latency --repeats abc" \
  "$BUILD_DIR/bench/serve_latency" --repeats abc
expect_usage "serve_latency --min-speedup 2x" \
  "$BUILD_DIR/bench/serve_latency" --min-speedup 2x
rm -rf "$SOCK_DIR"
echo "ok: numeric flags of nv, nv serve/req, nv-fuzz and the benchmarks" \
  "reject abc and 3x"

# The committed budget corpus seed: its non-monotone FT meta-simulation
# hits the oracle's step budget and must reduce to the canonical skip
# verdict — a structured outcome, not a divergence or a hang.
"$NV_FUZZ" --replay tests/corpus/seed_ft_budget_record-bgp.nv

# Fault injection composed with the full differential oracle: a corpus
# replay with a mid-run fault must still agree (the hit leg skips).
NV_FAULT_INJECT=sim-pop:50 "$NV_FUZZ" --replay tests/corpus

echo "fault-injection smoke passed"
