#!/usr/bin/env bash
# ft_scale.sh — fault-tolerance scale gate: Fig. 13b's Fat20 cell at 3
# link failures (generateSpSingle(20): 500 nodes, 4,000 links), assertion
# check on, under a 1 GiB address-space limit. The check must cover all
# C(4002, 3) = 10,674,668,000 scenarios, far past a 32-bit index, without
# memory that grows with the scenario count, and end with outcome ok.
#
# Second stage, same limit: an all-failing policy whose violations do
# not fit. A 200-node ring with +7 chords (400 links) and `assert = false`
# at 2 link failures has C(401, 2) = 80,200 scenarios and 16,040,000
# violations, over 1 GiB to list. `nv ft` must count them, refuse the
# listing and exit 3 with a heap-budget outcome and the exact count.
#
# Usage: tools/ci/ft_scale.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release ${CMAKE_EXTRA:-} \
  > /dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target fig13b_fault_scaling nv > /dev/null

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

python3 - "$WORK/allfail.nv" <<'PY'
import sys
n = 200
links = [(u, (u + 1) % n) for u in range(n)] + [(u, (u + 7) % n) for u in range(n)]
edges = ";".join(f"{u}n={v}n" for u, v in links)
open(sys.argv[1], "w").write(f"""let nodes = {n}
let edges = {{{edges}}}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) =
  match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) =
  match x, y with
  | _, None -> x
  | None, _ -> y
  | Some a, Some b -> if a <= b then x else y
let assert u x = false
""")
PY
code=0
(
  ulimit -v 1048576
  "$BUILD_DIR/tools/nv" ft "$WORK/allfail.nv" --links 2 --native \
    --json "$WORK/allfail.json" > "$WORK/allfail.out"
) || code=$?
python3 - "$WORK/allfail.json" "$code" <<'PY'
import json, sys
[r] = json.load(open(sys.argv[1]))
code = int(sys.argv[2])
print(f"all-failing ring, 2 links: exit {code}, outcome {r['outcome']!r}, "
      f"{r['scenarios']} scenarios, {r['violations']} violations, "
      f"check {r['check_ms']:.0f} ms")
if (code != 3 or not r["outcome"].startswith("heap-budget-exceeded")
        or r["scenarios"] != 80200 or r["violations"] != 16040000):
    sys.exit("FAIL: want exit 3, a heap-budget-exceeded outcome, 80200 "
             "scenarios and 16040000 violations")
PY
echo "ok: the all-failing ring ends with a heap-budget outcome and the exact count"
