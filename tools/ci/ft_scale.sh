#!/usr/bin/env bash
# ft_scale.sh — fault-tolerance scale gate: Fig. 13b's Fat20 cell at 3
# link failures (generateSpSingle(20): 500 nodes, 4,000 links), assertion
# check on, under a 1 GiB address-space limit. The check must cover all
# C(4002, 3) = 10,674,668,000 scenarios, far past a 32-bit index, without
# memory that grows with the scenario count, and end with outcome ok.
#
# Usage: tools/ci/ft_scale.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release ${CMAKE_EXTRA:-} \
  > /dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target fig13b_fault_scaling > /dev/null

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

(
  ulimit -v 1048576
  "$BUILD_DIR/bench/fig13b_fault_scaling" --cell 20:3 --json "$WORK/out.json"
)

python3 - "$WORK/out.json" <<'PY'
import json, sys
[r] = json.load(open(sys.argv[1]))
print(f"Fat20, 3 links: outcome {r['outcome']}, {r['scenarios']} scenarios, "
      f"{r['violations']} violations, simulate {r['simulate_ms']:.0f} ms, "
      f"check {r['check_ms']:.1f} ms")
if r["outcome"] != "ok" or r["scenarios"] != 10674668000:
    sys.exit("FAIL: want outcome ok and 10674668000 scenarios")
PY
echo "ok: Fat20 at 3 link failures checked within 1 GiB"
