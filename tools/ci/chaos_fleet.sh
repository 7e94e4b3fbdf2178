#!/usr/bin/env bash
# chaos_fleet.sh — crash-chaos gate for the --workers fleet: a killer
# loop SIGKILLs random workers mid-run and the final aggregate must stay
# bit-identical to the uninterrupted in-process reference; ft and fuzz
# fleets must match their in-process runs the same way; each fleet-layer
# NV_FAULT_INJECT site is armed and must degrade (requeue/respawn) to the
# reference verdict; and a planted always-crashing job must be
# quarantined — the run completes, prints the QUARANTINED line, exits
# with the documented resource code 3, and leaves a runnable repro
# script behind, also in an artifact directory that does not exist yet.
#
# Usage: tools/ci/chaos_fleet.sh [BUILD_DIR]
# Env:   JOBS (parallelism), KILLS (SIGKILL budget), CMAKE_EXTRA.
# Logs, JSON aggregates, and quarantine repros land in
# fleet-chaos-artifacts/ for upload.
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}
KILLS=${KILLS:-12}

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DNV_WERROR="${NV_WERROR:-OFF}" ${CMAKE_EXTRA:-}
cmake --build "$BUILD_DIR" -j"$JOBS" --target nv nv-fuzz

NV="$BUILD_DIR/tools/nv"
NV_FUZZ="$BUILD_DIR/tools/nv-fuzz"
ART=fleet-chaos-artifacts
mkdir -p "$ART"

NET="$ART/net.nv"
# Seed-derived fat tree (deterministic): 528 two-failure scenarios for
# the stages below, and 5,984 three-failure scenarios (about 0.6 s of
# fleet work) for the killer loop, enough runway for a dozen SIGKILLs to
# land mid-job.
"$NV_FUZZ" --emit 12 > "$NET"

strip_ms() { grep -v '_ms' "$1"; }

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

#===----------------------------------------------------------------------===#
# Stage 0: uninterrupted in-process references — the aggregates every
# fleet run below must reproduce bit-for-bit (modulo *_ms timings).
#===----------------------------------------------------------------------===#

echo "== in-process references (--workers 0)"
REF_NAIVE=0
"$NV" naive "$NET" --links 2 --threads 4 --json "$ART/ref-naive.json" \
  > /dev/null || REF_NAIVE=$?
[ "$REF_NAIVE" -le 1 ] || fail "naive reference died (exit $REF_NAIVE)"
REF_KILL=0
"$NV" naive "$NET" --links 3 --threads 4 --json "$ART/ref-kill.json" \
  > /dev/null || REF_KILL=$?
[ "$REF_KILL" -le 1 ] || fail "3-link naive reference died (exit $REF_KILL)"
REF_FT=0
"$NV" ft "$NET" --links 2 --threads 4 --json "$ART/ref-ft.json" \
  > /dev/null || REF_FT=$?
[ "$REF_FT" -le 1 ] || fail "ft reference died (exit $REF_FT)"
echo "ok: references (naive exit $REF_NAIVE, ft exit $REF_FT)"

#===----------------------------------------------------------------------===#
# Stage 1: killer loop. SIGKILL every worker the coordinator announces
# (up to $KILLS), forcing requeue + respawn over and over; the merged
# aggregate must still equal the reference. The poison threshold is
# raised far above the kill budget so random murder never quarantines —
# quarantine is for jobs that kill workers, not workers that get killed.
#===----------------------------------------------------------------------===#

echo "== killer loop: SIGKILL up to $KILLS workers mid-run"
env NV_FLEET_POISON_THRESHOLD=1000 \
  NV_FLEET_BACKOFF_BASE_MS=10 NV_FLEET_BACKOFF_CAP_MS=80 \
  "$NV" naive "$NET" --links 3 --workers 3 --json "$ART/kill.json" \
  > "$ART/kill.out" 2> "$ART/kill.err" &
PID=$!
KILLED=0
declare -A SEEN
while kill -0 "$PID" 2>/dev/null; do
  if [ "$KILLED" -lt "$KILLS" ]; then
    # The coordinator logs "nv fleet: worker pid N slot S generation G"
    # for every spawn; kill each announced pid exactly once.
    for W in $(sed -n 's/.*worker pid \([0-9]*\) slot.*/\1/p' \
        "$ART/kill.err"); do
      [ -n "${SEEN[$W]:-}" ] && continue
      SEEN[$W]=1
      if kill -9 "$W" 2>/dev/null; then
        KILLED=$((KILLED + 1))
        [ "$KILLED" -ge "$KILLS" ] && break
      fi
    done
  fi
  sleep 0.05
done
GOT=0
wait "$PID" || GOT=$?
echo "killed $KILLED workers"
[ "$KILLED" -ge 2 ] || fail "killer loop landed only $KILLED kills"
[ "$GOT" -eq "$REF_KILL" ] || {
  cat "$ART/kill.err" >&2
  fail "chaos run exit $GOT != reference $REF_KILL"
}
DEATHS=$(sed -n 's/^fleet: .* \([0-9]*\) deaths.*/\1/p' "$ART/kill.out")
[ -n "$DEATHS" ] && [ "$DEATHS" -ge 1 ] \
  || fail "fleet stats report no worker deaths after $KILLED SIGKILLs"
diff <(strip_ms "$ART/ref-kill.json") <(strip_ms "$ART/kill.json") \
  || fail "post-chaos aggregate differs from in-process reference"
echo "ok: $KILLED SIGKILLs, $DEATHS deaths survived, aggregate identical"

#===----------------------------------------------------------------------===#
# Stage 2: an ft run on the fleet (one unit, run by a worker) matches the
# in-process run.
#===----------------------------------------------------------------------===#

echo "== ft --workers 2 vs in-process"
GOT=0
"$NV" ft "$NET" --links 2 --workers 2 --json "$ART/ft-w2.json" \
  > /dev/null || GOT=$?
[ "$GOT" -eq "$REF_FT" ] || fail "ft fleet exit $GOT != reference $REF_FT"
diff <(strip_ms "$ART/ref-ft.json") <(strip_ms "$ART/ft-w2.json") \
  || fail "ft fleet JSON differs from in-process reference"
echo "ok: ft fleet aggregate identical"

#===----------------------------------------------------------------------===#
# Stage 3: arm each fleet-layer fault site. fleet-spawn degrades to a
# backoff-retried spawn, fleet-dispatch kills a worker on job receipt
# (requeue + respawn with the injection stripped), fleet-result drops a
# landed result and requeues. All three must end at the reference
# verdict with an identical aggregate.
#===----------------------------------------------------------------------===#

echo "== fleet-layer fault injection"
for SITE in fleet-spawn fleet-dispatch fleet-result; do
  GOT=0
  env NV_FAULT_INJECT="$SITE:1" \
    "$NV" naive "$NET" --links 2 --workers 2 --json "$ART/fi-$SITE.json" \
    > "$ART/fi-$SITE.out" 2> "$ART/fi-$SITE.err" || GOT=$?
  [ "$GOT" -eq "$REF_NAIVE" ] \
    || fail "$SITE: exit $GOT != reference $REF_NAIVE"
  diff <(strip_ms "$ART/ref-naive.json") <(strip_ms "$ART/fi-$SITE.json") \
    || fail "$SITE: aggregate differs from reference"
  echo "ok: $SITE"
done

#===----------------------------------------------------------------------===#
# Stage 4: poison-job quarantine. A planted job that abort()s its worker
# on every dispatch must be quarantined after the threshold: the run
# COMPLETES (every other unit checked), reports the quarantined unit,
# exits with the documented resource code 3, and leaves an executable
# repro script that reproduces the crash outside the fleet.
#===----------------------------------------------------------------------===#

echo "== poison-job quarantine"
GOT=0
env NV_FLEET_POISON_KEY=s100 NV_FLEET_POISON_THRESHOLD=2 \
  NV_FLEET_QUARANTINE_DIR="$ART" \
  "$NV" naive "$NET" --links 2 --workers 2 --json "$ART/quar.json" \
  > "$ART/quar.out" 2> "$ART/quar.err" || GOT=$?
[ "$GOT" -eq 3 ] || {
  cat "$ART/quar.out" "$ART/quar.err" >&2
  fail "quarantine run: expected exit 3, got $GOT"
}
grep -q "QUARANTINED unit s100" "$ART/quar.out" \
  || fail "no QUARANTINED line for the planted poison job"
REPRO="$ART/nv-quarantine-s100.sh"
[ -x "$REPRO" ] || fail "quarantine repro script $REPRO missing/not executable"
RGOT=0
"$REPRO" > /dev/null 2>&1 || RGOT=$?
[ "$RGOT" -ne 0 ] || fail "repro script did not reproduce the crash"
# Exactly one unit lost: skipped=1, one fewer checked than the reference.
grep -q '"skipped": 1' "$ART/quar.json" \
  || fail "quarantine JSON does not report exactly one skipped scenario"
echo "ok: quarantined after 2 deaths, run completed, repro exits $RGOT"

#===----------------------------------------------------------------------===#
# Stage 5: fuzz-campaign fleet matches the in-process campaign (same
# seed, planted bug) — same tally, same divergence repros.
#===----------------------------------------------------------------------===#

echo "== nv-fuzz --workers 3 vs in-process campaign"
GOT0=0
"$NV_FUZZ" --count 16 --seed 7 --inject-bug-for-testing \
  --artifact-dir "$ART/fuzz" --json "$ART/fuzz-ref.json" \
  > /dev/null || GOT0=$?
GOTW=0
"$NV_FUZZ" --count 16 --seed 7 --inject-bug-for-testing --workers 3 \
  --artifact-dir "$ART/fuzz" --json "$ART/fuzz-w3.json" \
  > /dev/null || GOTW=$?
[ "$GOTW" -eq "$GOT0" ] || fail "fuzz fleet exit $GOTW != in-process $GOT0"
diff <(strip_ms "$ART/fuzz-ref.json") <(strip_ms "$ART/fuzz-w3.json") \
  || fail "fuzz fleet summary differs from in-process campaign"
echo "ok: fuzz fleet tally identical (exit $GOTW)"

#===----------------------------------------------------------------------===#
# Stage 6: a quarantine repro whose --artifact-dir does not exist yet (a
# nested path) is still written: the log names the script, not
# "(unwritable)", and the script is executable.
#===----------------------------------------------------------------------===#

echo "== quarantine repro into a new nested --artifact-dir"
rm -rf "$ART/nested"
NEST="$ART/nested/not/yet"
GOT=0
env NV_FLEET_POISON_KEY=i2 \
  "$NV_FUZZ" --seed 3 --count 6 --no-smt --workers 2 --artifact-dir "$NEST" \
  > "$ART/nest.out" 2> "$ART/nest.err" || GOT=$?
[ "$GOT" -le 1 ] || {
  cat "$ART/nest.out" "$ART/nest.err" >&2
  fail "nested artifact-dir campaign died (exit $GOT)"
}
REPRO="$NEST/nv-quarantine-i2.sh"
grep -qF "repro: $REPRO" "$ART/nest.err" \
  || fail "fleet log does not name the repro script $REPRO"
[ -x "$REPRO" ] || fail "quarantine repro script $REPRO missing/not executable"
echo "ok: repro written to a new nested directory"

echo "fleet chaos gate: all checks passed"
