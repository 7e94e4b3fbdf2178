#!/usr/bin/env bash
# ft_golden.sh — golden fault-tolerance answers: runs `nv ft --json` and
# `nv naive --json` on every examples/nv/*.nv at --links 1, --links 2 and
# --node, strips the *_ms timing lines, and diffs the result against
# tests/golden/ft_answers.txt (scenario and violation counts, the
# violations hash, the outcome, and each run's exit code). Every run is
# repeated at --threads 4 and on a 2-worker fleet with 64-scenario check
# chunks; those must give the same answer as the golden too.
#
# The golden comes from an earlier implementation of the check and the
# naive baselines, so a refactor of either must keep every answer
# bit-identical. Regenerate it only for an intended change of answers,
# and say why in CHANGES.md:
#   tools/ci/ft_golden.sh build --print > tests/golden/ft_answers.txt
#
# Usage: tools/ci/ft_golden.sh [BUILD_DIR] [--print]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
PRINT=${2:-}
JOBS=${JOBS:-$(nproc)}
GOLDEN=tests/golden/ft_answers.txt

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . ${CMAKE_EXTRA:-} > /dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target nv > /dev/null

NV="$BUILD_DIR/tools/nv"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# answer CMD FILE ARGS...: the run's exit code and its --json record
# without the *_ms lines.
answer() {
  local cmd=$1 file=$2
  shift 2
  local code=0
  rm -f "$WORK/out.json"
  "$NV" "$cmd" "$file" "$@" --json "$WORK/out.json" > /dev/null 2>&1 ||
    code=$?
  echo "exit $code"
  if [ -f "$WORK/out.json" ]; then
    grep -v '_ms' "$WORK/out.json"
  fi
}

FAILED=0
(
  failed=0
  for file in examples/nv/*.nv; do
    for cmd in ft naive; do
      for cfg in "--links 1" "--links 2" "--node"; do
        # shellcheck disable=SC2086  # cfg is a flag list
        base=$(answer "$cmd" "$file" $cfg)
        echo "== $cmd $file $cfg"
        echo "$base"
        for variant in "--threads 4" "--workers 2 --chunk 64"; do
          # shellcheck disable=SC2086
          got=$(answer "$cmd" "$file" $cfg $variant)
          if [ "$got" != "$base" ]; then
            echo "FAIL: $cmd $file $cfg $variant differs from $cfg:" >&2
            diff <(echo "$base") <(echo "$got") >&2 || true
            failed=1
          fi
        done
      done
    done
  done
  exit "$failed"
) > "$WORK/answers.txt" || FAILED=1

if [ "$PRINT" = "--print" ]; then
  cat "$WORK/answers.txt"
  exit "$FAILED"
fi
if ! diff -u "$GOLDEN" "$WORK/answers.txt"; then
  echo "FAIL: fault-tolerance answers differ from $GOLDEN" >&2
  exit 1
fi
[ "$FAILED" -eq 0 ] || exit 1
echo "ok: $(grep -c '^== ' "$GOLDEN") golden fault-tolerance answers match," \
  "at 1 and 4 threads and on a 2-worker fleet"
