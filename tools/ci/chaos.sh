#!/usr/bin/env bash
# chaos.sh — crash-chaos gate for the supervised `nv serve` daemon: kill
# the worker with SIGKILL twenty times, mid-request, and require that the
# supervisor restarts it every time, that the restarted worker replays
# the journal, that post-crash verdicts stay bit-identical to an
# uninterrupted reference run, and that the journal ends fully drained.
# A second stage arms each serve-layer NV_FAULT_INJECT site against a
# live daemon and asserts the structured fault response (exit 3) with
# the daemon surviving to answer the next request.
#
# Usage: tools/ci/chaos.sh [BUILD_DIR]
# Env:   JOBS (parallelism), CMAKE_EXTRA (extra configure flags).
# Supervisor stderr and responses land in chaos-artifacts/ for upload.
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}
KILLS=${KILLS:-20}

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DNV_WERROR="${NV_WERROR:-OFF}" ${CMAKE_EXTRA:-}
cmake --build "$BUILD_DIR" -j"$JOBS" --target nv

NV="$BUILD_DIR/tools/nv"
ART=chaos-artifacts
mkdir -p "$ART"

cat > "$ART/net.nv" <<'EOF'
let nodes = 4
let edges = {0n=1n;1n=2n;2n=3n}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) = match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) = match x, y with | _, None -> x | None, _ -> y | Some a, Some b -> if a <= b then x else y
let assert (u : node) (x : option[int]) = match x with | None -> false | Some d -> true
EOF
# Count-to-infinity: diverges until its deadline trips, giving every
# SIGKILL a wide in-flight window to land in.
cat > "$ART/div.nv" <<'EOF'
let nodes = 2
let edges = {0n=1n;1n=0n}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) = match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) = match x, y with | _, None -> x | None, _ -> y | Some a, Some b -> if a <= b then y else x
EOF

# wait_sock SOCK: poll until a raw connect to the socket is accepted. A
# bare connect consumes no requests, so armed fault-injection countdowns
# and admission counters are untouched by readiness probing.
wait_sock() {
  local sock=$1
  for _ in $(seq 1 200); do
    if python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(0.2)
try:
    s.connect(sys.argv[1])
except OSError:
    sys.exit(1)
s.close()' "$sock" 2>/dev/null; then
      return 0
    fi
    sleep 0.05
  done
  echo "FAIL: socket $sock never came up" >&2
  return 1
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

assert_eq() {
  if [ "$1" != "$2" ]; then
    echo "FAIL: $3: got '$1', want '$2'" >&2
    exit 1
  fi
}

#===----------------------------------------------------------------------===#
# Stage 0: uninterrupted reference run — the hash every post-crash
# verdict must reproduce bit-for-bit.
#===----------------------------------------------------------------------===#

echo "== reference run (no chaos)"
REF_SOCK=$(mktemp -u /tmp/nv-chaos-ref.XXXXXX.sock)
"$NV" serve "$REF_SOCK" --threads 2 2> "$ART/ref-daemon.log" &
REF_PID=$!
trap 'kill "$REF_PID" 2>/dev/null || true' EXIT
wait_sock "$REF_SOCK"
rc=0
"$NV" req "$REF_SOCK" \
  "{\"verb\":\"load\",\"session\":\"net\",\"path\":\"$ART/net.nv\"}" \
  > /dev/null || { echo "FAIL: reference load" >&2; exit 1; }
R=$("$NV" req "$REF_SOCK" '{"verb":"ft","session":"net"}') || rc=$?
assert_eq "$rc" 1 "reference ft exit (real violations)"
REF_HASH=$(field "$R" violations_hash)
"$NV" req "$REF_SOCK" '{"verb":"shutdown"}' > /dev/null
rc=0; wait "$REF_PID" || rc=$?
assert_eq "$rc" 0 "reference daemon exit"
trap - EXIT
echo "reference hash: $REF_HASH"

#===----------------------------------------------------------------------===#
# Stage 1: SIGKILL the supervised worker mid-request, $KILLS times.
#===----------------------------------------------------------------------===#

echo "== supervised chaos: $KILLS SIGKILLs mid-request"
SOCK=$(mktemp -u /tmp/nv-chaos.XXXXXX.sock)
JOURNAL="$ART/chaos.journal"
rm -f "$JOURNAL"
"$NV" serve "$SOCK" --threads 2 --journal "$JOURNAL" --supervise \
  --restart-backoff-ms 10 --restart-cap-ms 100 \
  2> "$ART/daemon.log" &
SUP_PID=$!
cleanup() {
  kill "$SUP_PID" 2>/dev/null || true
  rm -f "$SOCK"
}
trap cleanup EXIT

for i in $(seq 1 "$KILLS"); do
  wait_sock "$SOCK"
  # Sessions are resident state, not journal state: each restarted worker
  # starts empty, so the client reloads. --retries rides out the races
  # around a restart (stale socket, connect refused, overload).
  "$NV" req "$SOCK" \
    --retries 8 "{\"verb\":\"load\",\"session\":\"div\",\"path\":\"$ART/div.nv\"}" > /dev/null \
    || { echo "FAIL: kill $i: div load" >&2; exit 1; }
  # A request that is still running when the SIGKILL lands: journaled as
  # accepted, so the restarted worker must replay and retire it.
  "$NV" req "$SOCK" \
    '{"verb":"sim","session":"div","deadline_ms":300}' \
    > "$ART/inflight.$i.json" 2>/dev/null &
  REQ_PID=$!
  sleep 0.08
  WORKER=$(sed -n 's/.*worker pid \([0-9]*\) .*/\1/p' "$ART/daemon.log" | tail -1)
  [ -n "$WORKER" ] || { echo "FAIL: kill $i: no worker pid in log" >&2; exit 1; }
  kill -9 "$WORKER" 2>/dev/null || true
  wait "$REQ_PID" || true # any exit is fine; the worker just died on it

  # The supervisor must bring a fresh worker up, and its verdicts must
  # be bit-identical to the uninterrupted reference.
  wait_sock "$SOCK"
  "$NV" req "$SOCK" \
    --retries 8 "{\"verb\":\"load\",\"session\":\"net\",\"path\":\"$ART/net.nv\"}" > /dev/null \
    || { echo "FAIL: kill $i: net load after restart" >&2; exit 1; }
  rc=0
  R=$("$NV" req "$SOCK" --retries 8 '{"verb":"ft","session":"net"}') || rc=$?
  assert_eq "$rc" 1 "kill $i: post-restart ft exit"
  assert_eq "$(field "$R" violations_hash)" "$REF_HASH" "kill $i: post-restart ft hash"
done

echo "== supervision did the restarts (generation advanced)"
R=$("$NV" req "$SOCK" --retries 8 '{"verb":"health"}')
GEN=$(field "$R" generation)
[ "$GEN" -ge "$KILLS" ] || {
  echo "FAIL: generation $GEN after $KILLS kills" >&2
  exit 1
}
assert_eq "$(field "$R" state)" ready "final health state"

echo "== graceful shutdown ends supervision"
"$NV" req "$SOCK" --retries 8 '{"verb":"shutdown"}' > /dev/null
rc=0; wait "$SUP_PID" || rc=$?
assert_eq "$rc" 0 "supervisor exit code"
trap - EXIT
rm -f "$SOCK"

echo "== journal drained: every accepted request was retired"
SUMMARY=$("$NV" journal "$JOURNAL")
echo "$SUMMARY"
echo "$SUMMARY" | grep -q "0 pending" || {
  echo "FAIL: journal still has pending requests after chaos" >&2
  exit 1
}

#===----------------------------------------------------------------------===#
# Stage 2: serve-layer fault injection against a live daemon. Each site
# yields a structured exit-3 fault response — never a crash — and the
# daemon answers the very next request normally.
#===----------------------------------------------------------------------===#

echo "== serve-layer fault injection"
for SITE in serve-accept serve-enqueue serve-respond; do
  FSOCK=$(mktemp -u /tmp/nv-chaos-fi.XXXXXX.sock)
  env NV_FAULT_INJECT="$SITE:1" \
    "$NV" serve "$FSOCK" --threads 2 2> "$ART/fi-$SITE.log" &
  FPID=$!
  trap 'kill "$FPID" 2>/dev/null || true' EXIT
  wait_sock "$FSOCK"
  # The first request through the socket consumes the countdown and gets
  # the structured fault outcome (exit 3, resource taxonomy).
  rc=0
  R=$("$NV" req "$FSOCK" \
    "{\"verb\":\"load\",\"session\":\"net\",\"path\":\"$ART/net.nv\"}") || rc=$?
  assert_eq "$rc" 3 "$SITE: faulted request exit"
  echo "$R" | grep -q "fault-injected@$SITE" || {
    echo "FAIL: $SITE: response lacks fault-injected@$SITE: $R" >&2
    exit 1
  }
  # The daemon survives: the retried load and a query work normally.
  "$NV" req "$FSOCK" \
    "{\"verb\":\"load\",\"session\":\"net\",\"path\":\"$ART/net.nv\"}" \
    > /dev/null || { echo "FAIL: $SITE: load after fault" >&2; exit 1; }
  rc=0
  R=$("$NV" req "$FSOCK" '{"verb":"ft","session":"net"}') || rc=$?
  assert_eq "$rc" 1 "$SITE: ft after fault exit"
  assert_eq "$(field "$R" violations_hash)" "$REF_HASH" "$SITE: ft after fault hash"
  "$NV" req "$FSOCK" '{"verb":"shutdown"}' > /dev/null
  rc=0; wait "$FPID" || rc=$?
  assert_eq "$rc" 0 "$SITE: daemon exit after fault"
  trap - EXIT
  rm -f "$FSOCK"
  echo "ok: $SITE"
done

echo "chaos gate: all checks passed"
