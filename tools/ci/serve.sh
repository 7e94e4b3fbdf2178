#!/usr/bin/env bash
# serve.sh — end-to-end exercise of the `nv serve` daemon: start it on a
# Unix socket with a request journal, run a scripted session (load, warm
# and memoized repeat queries, concurrent queries, a budget-tripped
# request, health, stats, shutdown), and assert both the JSON response
# fields and the `nv req` exit codes against the CLI taxonomy (0 ok,
# 1 falsified, 2 user error, 3 resource, 4 internal). Ends with the
# serve_latency saturation smoke: admission control must shed with retry
# hints while every accepted request completes.
#
# Usage: tools/ci/serve.sh [BUILD_DIR]
# Env:   JOBS (parallelism), SANITIZE (e.g. "address,undefined" builds the
#        daemon under ASan+UBSan), CMAKE_EXTRA (extra configure flags).
# Daemon stderr and all responses land in serve-artifacts/ for upload.
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}

if [ -n "${SANITIZE:-}" ]; then
  # shellcheck disable=SC2086  # CMAKE_EXTRA is a flag list
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNV_WERROR="${NV_WERROR:-OFF}" \
    -DCMAKE_CXX_FLAGS="-fsanitize=$SANITIZE -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$SANITIZE" \
    ${CMAKE_EXTRA:-}
else
  # shellcheck disable=SC2086
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DNV_WERROR="${NV_WERROR:-OFF}" ${CMAKE_EXTRA:-}
fi
cmake --build "$BUILD_DIR" -j"$JOBS" --target nv

NV="$BUILD_DIR/tools/nv"
ART=serve-artifacts
mkdir -p "$ART"
# Socket paths are length-limited (sun_path), so keep it in /tmp.
SOCK=$(mktemp -u /tmp/nv-serve-ci.XXXXXX.sock)
JOURNAL="$ART/serve.journal"
rm -f "$JOURNAL"

cat > "$ART/net.nv" <<'EOF'
let nodes = 4
let edges = {0n=1n;1n=2n;2n=3n}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) = match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) = match x, y with | _, None -> x | None, _ -> y | Some a, Some b -> if a <= b then x else y
let assert (u : node) (x : option[int]) = match x with | None -> false | Some d -> true
EOF

"$NV" serve "$SOCK" --threads 4 --journal "$JOURNAL" 2> "$ART/daemon.log" &
DAEMON=$!
cleanup() {
  kill "$DAEMON" 2>/dev/null || true
  rm -f "$SOCK"
}
trap cleanup EXIT

# Wait for the socket to come up.
for _ in $(seq 1 100); do
  if "$NV" req "$SOCK" '{"verb":"ping"}' >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DAEMON" 2>/dev/null; then
    echo "FAIL: daemon died during startup" >&2
    cat "$ART/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done

# req_expect <want-exit-code> <request-json>: runs `nv req`, asserts its
# exit code (which mirrors the response's "code"), echoes the response.
req_expect() {
  local want=$1 body=$2 resp rc=0
  resp=$("$NV" req "$SOCK" "$body" 2>>"$ART/req-errors.log") || rc=$?
  echo "$resp" >> "$ART/responses.jsonl"
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: exit $rc (want $want) for: $body" >&2
    echo "  response: $resp" >&2
    exit 1
  fi
  echo "$resp"
}

# field <json> <key...>: prints the (possibly nested) field value.
field() {
  local json=$1
  shift
  echo "$json" | python3 -c '
import json, sys
v = json.loads(sys.stdin.read())
for k in sys.argv[1:]:
    v = v[k]
print(json.dumps(v) if isinstance(v, (dict, list)) else v)' "$@"
}

# assert_eq <actual> <expected> <what>
assert_eq() {
  if [ "$1" != "$2" ]; then
    echo "FAIL: $3: got '$1', want '$2'" >&2
    exit 1
  fi
}

echo "== load"
R=$(req_expect 0 "{\"verb\":\"load\",\"session\":\"net\",\"path\":\"$ART/net.nv\"}")
assert_eq "$(field "$R" nodes)" 4 "load nodes"
assert_eq "$(field "$R" edges)" 3 "load edges"

echo "== protocol errors are code 2"
req_expect 2 'not json' >/dev/null
req_expect 2 '{"verb":"frobnicate"}' >/dev/null
req_expect 2 '{"verb":"sim","session":"ghost"}' >/dev/null

echo "== cold ft: the line network has real violations (exit 1)"
R=$(req_expect 1 '{"verb":"ft","session":"net"}')
assert_eq "$(field "$R" warm)" False "cold ft warm flag"
HASH=$(field "$R" violations_hash)

echo "== warm recompute (fresh) is bit-identical"
R=$(req_expect 1 '{"verb":"ft","session":"net","fresh":true}')
assert_eq "$(field "$R" warm)" True "fresh ft warm flag"
assert_eq "$(field "$R" violations_hash)" "$HASH" "fresh ft hash"

echo "== memoized repeat is bit-identical"
R=$(req_expect 1 '{"verb":"ft","session":"net"}')
assert_eq "$(field "$R" cached)" True "repeat ft cached flag"
assert_eq "$(field "$R" violations_hash)" "$HASH" "repeat ft hash"

echo "== sim converges (exit 0)"
R=$(req_expect 0 '{"verb":"sim","session":"net"}')
assert_eq "$(field "$R" converged)" True "sim converged"

echo "== concurrent queries from parallel clients"
PIDS=()
for i in 1 2 3 4; do
  "$NV" req "$SOCK" "{\"verb\":\"ft\",\"session\":\"net\",\"links\":1,\"fresh\":true}" \
    > "$ART/conc.$i.json" &
  PIDS+=($!)
done
for pid in "${PIDS[@]}"; do
  rc=0
  wait "$pid" || rc=$?
  assert_eq "$rc" 1 "concurrent ft exit code"
done
CONC_HASH=$(field "$(cat "$ART/conc.1.json")" violations_hash)
for i in 2 3 4; do
  assert_eq "$(field "$(cat "$ART/conc.$i.json")" violations_hash)" \
    "$CONC_HASH" "concurrent ft hash $i"
done

echo "== budget-tripped request is exit 3, session survives"
R=$(req_expect 3 '{"verb":"ft","session":"net","max_steps":1}')
assert_eq "$(field "$R" outcome_status)" step-budget-exceeded "trip status"
req_expect 0 '{"verb":"sim","session":"net"}' >/dev/null

echo "== health reports ready with the worker's generation"
R=$(req_expect 0 '{"verb":"health"}')
assert_eq "$(field "$R" state)" ready "health state"
assert_eq "$(field "$R" generation)" 0 "health generation (no restarts)"

echo "== stats"
R=$(req_expect 0 '{"verb":"stats"}')
assert_eq "$(field "$R" pool threads)" 4 "pool threads"
HITS=$(field "$R" result_cache hits)
[ "$HITS" -ge 1 ] || { echo "FAIL: result-cache hits $HITS < 1" >&2; exit 1; }
ACTIVE=$(field "$R" requests active)
COMPLETED=$(field "$R" requests completed)
[ "$COMPLETED" -ge 10 ] || { echo "FAIL: completed $COMPLETED < 10" >&2; exit 1; }
assert_eq "$ACTIVE" 1 "active requests (just the stats call)"

echo "== shutdown (daemon exits 0)"
req_expect 0 '{"verb":"shutdown"}' >/dev/null
rc=0
wait "$DAEMON" || rc=$?
assert_eq "$rc" 0 "daemon exit code"
trap - EXIT

echo "== journal inspect shows a drained queue"
SUMMARY=$("$NV" journal "$JOURNAL")
echo "$SUMMARY"
echo "$SUMMARY" | grep -q "serve queue:" || {
  echo "FAIL: journal summary lacks the serve queue line" >&2
  exit 1
}
echo "$SUMMARY" | grep -q "0 pending" || {
  echo "FAIL: request queue did not drain" >&2
  exit 1
}

echo "== saturation smoke: admission sheds with retry hints, accepted work completes"
cmake --build "$BUILD_DIR" -j"$JOBS" --target serve_latency
"$BUILD_DIR/bench/serve_latency" --smoke --saturate \
  --json "$ART/serve_saturation.json"

echo "serve e2e: all checks passed"
