#!/usr/bin/env bash
# resume.sh — crash-resilience smoke stage: starts a governed sharded
# naive-failures run on a generator-produced fat tree, SIGTERMs it
# mid-flight, resumes from the checkpoint journal at a different thread
# count, and diffs the final JSON against an uninterrupted reference —
# the resumed aggregate must be identical modulo the *_ms timing fields.
# Also proves the journal failure modes (torn tail tolerated, interior
# corruption and binding mismatch hard exit 2), retry semantics under
# NV_FAULT_INJECT, that `nv ft` agrees with the naive reference (also on
# a dict-attribute route-map instance), that an ft journal holds its run
# as one unit record and replays it, that a fleet ft journal resumes in
# process and an in-process naive journal on a fleet, that a journal of
# the earlier chunked ft check is refused, that `nv ft --retry` recovers
# from a one-shot injected fault, that replaying
# tests/corpus twice under --resume shows no fingerprint drift, that an
# interrupted nv-fuzz campaign resumes on a fleet and past a torn tail,
# and that a corpus replay journal is refused once the file list changes.
#
# Usage: tools/ci/resume.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
JOBS=${JOBS:-$(nproc)}

# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release ${CMAKE_EXTRA:-}
cmake --build "$BUILD_DIR" -j"$JOBS" --target nv nv-fuzz

NV="$BUILD_DIR/tools/nv"
NV_FUZZ="$BUILD_DIR/tools/nv-fuzz"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
NET="$WORK/net.nv"
# Seed-derived fat tree (deterministic): 528 two-failure scenarios, a few
# hundred ms of sharded work — enough runway to interrupt mid-flight.
"$NV_FUZZ" --emit 12 > "$NET"

strip_ms() { grep -v '_ms' "$1"; }

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

expect_code() {
  local want=$1 desc=$2
  shift 2
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  [ "$got" -eq "$want" ] || fail "$desc: expected exit $want, got $got: $*"
  echo "ok: $desc (exit $got)"
}

echo "== uninterrupted reference (4 threads) =="
REF_CODE=0
"$NV" naive "$NET" --links 2 --threads 4 --json "$WORK/ref.json" \
  > /dev/null || REF_CODE=$?
[ "$REF_CODE" -le 1 ] || fail "reference run died (exit $REF_CODE)"
echo "ok: reference (exit $REF_CODE)"

echo "== ft agrees with the naive reference =="
# The meta-simulation's answer at two failures must equal the naive
# per-scenario sweep's: same scenario count, violations and hash.
json_fields() { grep -E '"(scenarios|violations|violations_hash)"' "$1"; }
FT_CODE=0
"$NV" ft "$NET" --links 2 --json "$WORK/ftcheck.json" > /dev/null || FT_CODE=$?
[ "$FT_CODE" -eq "$REF_CODE" ] || fail "ft exit $FT_CODE != naive $REF_CODE"
[ "$(json_fields "$WORK/ftcheck.json" | wc -l)" -eq 3 ] \
  || fail "ft JSON lacks scenarios/violations/violations_hash"
diff <(json_fields "$WORK/ref.json") <(json_fields "$WORK/ftcheck.json") \
  || fail "ft scenarios/violations/hash differ from the naive reference"
echo "ok: ft matches naive (scenarios, violations, violations_hash)"

echo "== ft agrees with naive on a dict attribute (route-map-cfg) =="
# Seed 7 is a route-map-cfg instance: its attribute is a dict of option
# routes, so both engines derive the drop value createDict (None).
RMAP="$WORK/rmap.nv"
"$NV_FUZZ" --emit 7 > "$RMAP"
RM_FT=0
RM_NAIVE=0
"$NV" ft "$RMAP" --links 1 --json "$WORK/rmft.json" > /dev/null || RM_FT=$?
"$NV" naive "$RMAP" --links 1 --json "$WORK/rmnaive.json" > /dev/null \
  || RM_NAIVE=$?
[ "$RM_FT" -le 1 ] || fail "route-map ft died (exit $RM_FT)"
[ "$RM_FT" -eq "$RM_NAIVE" ] \
  || fail "route-map ft exit $RM_FT != naive $RM_NAIVE"
grep -q '"skipped": 0,' "$WORK/rmnaive.json" \
  || fail "route-map naive skipped scenarios"
[ "$(json_fields "$WORK/rmft.json" | wc -l)" -eq 3 ] \
  || fail "route-map ft JSON lacks scenarios/violations/violations_hash"
diff <(json_fields "$WORK/rmnaive.json") <(json_fields "$WORK/rmft.json") \
  || fail "route-map ft scenarios/violations/hash differ from naive"
echo "ok: route-map ft matches naive, no scenario skipped"

echo "== SIGTERM mid-flight =="
J="$WORK/naive.journal"
"$NV" naive "$NET" --links 2 --threads 4 --resume "$J" \
  --json "$WORK/int.json" > /dev/null 2> "$WORK/int.err" &
PID=$!
# Wait until a few units are durably journaled (the header alone is
# ~200 bytes), then interrupt.
for _ in $(seq 1 500); do
  SZ=$(stat -c %s "$J" 2>/dev/null || echo 0)
  [ "$SZ" -ge 600 ] && break
  sleep 0.01
done
kill -TERM "$PID" 2>/dev/null || true
GOT=0
wait "$PID" || GOT=$?
[ "$GOT" -eq 3 ] || {
  cat "$WORK/int.err" >&2
  fail "interrupted run: expected exit 3, got $GOT"
}
grep -q "draining in-flight jobs" "$WORK/int.err" \
  || fail "no graceful-shutdown message on SIGTERM"
echo "ok: SIGTERM drained at safe points (exit 3)"
"$NV" journal "$J" | head -3

echo "== resume at 1 thread =="
R1=0
"$NV" naive "$NET" --links 2 --threads 1 --resume "$J" \
  --json "$WORK/r1.json" > "$WORK/r1.out" || R1=$?
[ "$R1" -eq "$REF_CODE" ] || fail "resumed run exit $R1 != reference $REF_CODE"
grep -q "completed unit(s) replayed" "$WORK/r1.out" \
  || fail "resume replayed nothing"
diff <(strip_ms "$WORK/ref.json") <(strip_ms "$WORK/r1.json") \
  || fail "resumed (1 thread) JSON differs from uninterrupted reference"
echo "ok: resumed aggregate identical at 1 thread"

echo "== resume again at 4 threads (full replay) =="
R4=0
"$NV" naive "$NET" --links 2 --threads 4 --resume "$J" \
  --json "$WORK/r4.json" > /dev/null || R4=$?
[ "$R4" -eq "$REF_CODE" ] || fail "full-replay run exit $R4 != $REF_CODE"
diff <(strip_ms "$WORK/ref.json") <(strip_ms "$WORK/r4.json") \
  || fail "resumed (4 threads) JSON differs from uninterrupted reference"
echo "ok: resumed aggregate identical at 4 threads"

echo "== torn trailing entry tolerated =="
truncate -s -3 "$J"
RT=0
"$NV" naive "$NET" --links 2 --threads 4 --resume "$J" \
  --json "$WORK/rt.json" > /dev/null 2> "$WORK/rt.err" || RT=$?
[ "$RT" -eq "$REF_CODE" ] || fail "torn-tail resume exit $RT != $REF_CODE"
grep -qi "torn" "$WORK/rt.err" || fail "no torn-tail note"
diff <(strip_ms "$WORK/ref.json") <(strip_ms "$WORK/rt.json") \
  || fail "torn-tail resume JSON differs from reference"
echo "ok: torn tail dropped, unit re-ran, aggregate identical"

echo "== interior corruption is a hard error =="
printf '\xff' | dd of="$J" bs=1 seek=30 conv=notrunc status=none
expect_code 2 "corrupt journal rejected" \
  "$NV" naive "$NET" --links 2 --resume "$J"

echo "== binding mismatch is a hard error =="
rm -f "$J"
"$NV" naive "$NET" --links 1 --resume "$J" > /dev/null || true
expect_code 2 "journal bound to other inputs rejected" \
  "$NV" naive "$NET" --links 2 --resume "$J"

echo "== per-job retry under NV_FAULT_INJECT =="
# One-shot fault + --retry 2: the hit scenario fails its first attempt,
# succeeds on retry, and the verdict matches the fault-free reference.
RETRY=0
env NV_FAULT_INJECT=sim-pop:40 \
  "$NV" naive "$NET" --links 2 --retry 2 --json "$WORK/retry.json" \
  > /dev/null || RETRY=$?
[ "$RETRY" -eq "$REF_CODE" ] || fail "retry-then-succeed exit $RETRY"
diff <(strip_ms "$WORK/ref.json") <(strip_ms "$WORK/retry.json") \
  || fail "retry-then-succeed JSON differs from reference"
echo "ok: transient fault retried, verdict preserved"
# A persistent transient (one-step budget) burns its retries and degrades
# to the structured resource-exhausted exit, never an abort.
expect_code 3 "exhausted retries degrade structurally" \
  "$NV" naive "$NET" --links 2 --retry 2 --max-steps 1

ft_json() { # NAME FLAGS...: two-failure ft on NET, JSON to NAME.json
  local name=$1 got=0
  shift
  "$NV" ft "$NET" --links 2 "$@" --json "$WORK/$name.json" \
    > "$WORK/$name.out" || got=$?
  [ "$got" -le 1 ] || fail "ft $name died (exit $got)"
}
one_unit() { # JOURNAL: fails unless it holds exactly one unit record
  "$NV" journal "$1" | grep -q '^summary: 1 unit(s),' \
    || fail "$1 does not hold exactly one unit record"
}
ft_json ftref --threads 4

echo "== an ft journal holds the run as one unit record =="
# The whole run is one unit: the journal gets one record, and a second
# run replays it instead of simulating.
ft_json ftjournal --resume "$WORK/ft1.journal"
one_unit "$WORK/ft1.journal"
ft_json ftreplay --resume "$WORK/ft1.journal"
grep -q "1 completed unit(s) replayed" "$WORK/ftreplay.out" \
  || fail "second ft run did not replay its one unit"
for RUN in ftjournal ftreplay; do
  diff <(strip_ms "$WORK/ftref.json") <(strip_ms "$WORK/$RUN.json") \
    || fail "$RUN JSON differs from the journal-free reference"
done
echo "ok: one unit record, replayed, aggregate identical"

echo "== fleet ft journal resumes in process =="
# A fleet worker sends the record the in-process run journals, so the
# fleet run's journal replays in process; both match a journal-free run.
ft_json ftfleet --workers 2 --resume "$WORK/ft.journal"
one_unit "$WORK/ft.journal"
ft_json ftinproc --resume "$WORK/ft.journal"
grep -q "1 completed unit(s) replayed" "$WORK/ftinproc.out" \
  || fail "in-process ft resume replayed nothing"
for RUN in ftfleet ftinproc; do
  diff <(strip_ms "$WORK/ftref.json") <(strip_ms "$WORK/$RUN.json") \
    || fail "$RUN JSON differs from the journal-free reference"
done
echo "ok: fleet ft journal replayed in process, aggregates identical"

echo "== a journal of the chunked ft check is refused =="
# tests/golden/ft_chunked.journal was written by the earlier chunked check
# (`nv ft examples/nv/sp_diamond.nv --resume ...`): it binds chunk=512 and
# holds chunk records "c<C>". Its binding no longer matches, so resuming
# from it is a hard error rather than a replay of chunks as a run.
cp tests/golden/ft_chunked.journal "$WORK/chunked.journal"
OLD=0
"$NV" ft examples/nv/sp_diamond.nv --resume "$WORK/chunked.journal" \
  > /dev/null 2> "$WORK/chunked.err" || OLD=$?
[ "$OLD" -eq 2 ] || fail "chunked ft journal: expected exit 2, got $OLD"
grep -q "chunk=512" "$WORK/chunked.err" \
  || fail "the refusal does not name the chunk binding"
cmp -s tests/golden/ft_chunked.journal "$WORK/chunked.journal" \
  || fail "the refused journal was modified"
echo "ok: chunked ft journal refused (exit 2), left as it was"

echo "== ft retry under NV_FAULT_INJECT =="
# The one-shot fault trips the meta-simulation; --retry 2 re-runs the
# whole unit and ends at the fault-free reference, where one attempt stops.
expect_code 3 "ft without retry stops at the fault" \
  env NV_FAULT_INJECT=sim-pop:40 "$NV" ft "$NET" --links 2
RFT=0
env NV_FAULT_INJECT=sim-pop:40 "$NV" ft "$NET" --links 2 --retry 2 \
  --json "$WORK/ftretry.json" > /dev/null || RFT=$?
[ "$RFT" -le 1 ] || fail "ft retry-then-succeed died (exit $RFT)"
diff <(strip_ms "$WORK/ftref.json") <(strip_ms "$WORK/ftretry.json") \
  || fail "ft retry-then-succeed JSON differs from reference"
echo "ok: ft fault retried, verdict preserved"

echo "== in-process naive journal resumes on a fleet =="
# The reverse direction: a --threads 4 run interrupted mid-flight resumes
# with --workers 2. Worker count does not bind, and the fleet's records
# are the ones the in-process run journals, so the aggregate is identical.
JF="$WORK/naive-fleet.journal"
"$NV" naive "$NET" --links 2 --threads 4 --resume "$JF" \
  --json "$WORK/intf.json" > /dev/null 2> "$WORK/intf.err" &
PID=$!
for _ in $(seq 1 500); do
  SZ=$(stat -c %s "$JF" 2>/dev/null || echo 0)
  [ "$SZ" -ge 600 ] && break
  sleep 0.01
done
kill -TERM "$PID" 2>/dev/null || true
GOT=0
wait "$PID" || GOT=$?
[ "$GOT" -eq 3 ] || {
  cat "$WORK/intf.err" >&2
  fail "interrupted in-process run: expected exit 3, got $GOT"
}
RF=0
"$NV" naive "$NET" --links 2 --workers 2 --resume "$JF" \
  --json "$WORK/rf.json" > "$WORK/rf.out" || RF=$?
[ "$RF" -eq "$REF_CODE" ] || fail "fleet resume exit $RF != reference $REF_CODE"
grep -q "completed unit(s) replayed" "$WORK/rf.out" \
  || fail "fleet resume replayed nothing"
diff <(strip_ms "$WORK/ref.json") <(strip_ms "$WORK/rf.json") \
  || fail "fleet-resumed JSON differs from uninterrupted reference"
echo "ok: in-process journal resumed on a 2-worker fleet, aggregate identical"

echo "== corpus replay under --resume: no fingerprint drift =="
JC="$WORK/corpus.journal"
"$NV_FUZZ" --replay tests/corpus --resume "$JC" --json "$WORK/c1.json" \
  > /dev/null
"$NV_FUZZ" --replay tests/corpus --resume "$JC" --json "$WORK/c2.json" \
  > "$WORK/c2.out"
grep -q "(journal)" "$WORK/c2.out" || fail "second replay re-ran the corpus"
diff <(strip_ms "$WORK/c1.json") <(strip_ms "$WORK/c2.json") \
  || fail "journaled corpus replay drifted"
echo "ok: corpus verdicts stable across resume"

echo "== fuzz campaign: SIGTERM, resume on a fleet, torn tail =="
# The campaign runs on the unit runner: an interrupted in-process journal
# resumes on a 2-worker fleet, and a torn last record re-runs that one
# instance; both aggregates equal an uninterrupted campaign's.
FUZZ_ARGS=(--seed 7 --count 24 --inject-bug-for-testing)
FREF=0
"$NV_FUZZ" "${FUZZ_ARGS[@]}" --json "$WORK/fref.json" > /dev/null || FREF=$?
[ "$FREF" -eq 1 ] || fail "fuzz reference: expected exit 1, got $FREF"
JZ="$WORK/fuzz.journal"
"$NV_FUZZ" "${FUZZ_ARGS[@]}" --resume "$JZ" --json "$WORK/fint.json" \
  > /dev/null 2> "$WORK/fint.err" &
PID=$!
for _ in $(seq 1 500); do
  SZ=$(stat -c %s "$JZ" 2>/dev/null || echo 0)
  [ "$SZ" -ge 500 ] && break
  sleep 0.01
done
kill -TERM "$PID" 2>/dev/null || true
GOT=0
wait "$PID" || GOT=$?
[ "$GOT" -eq 3 ] || {
  cat "$WORK/fint.err" >&2
  fail "interrupted fuzz campaign: expected exit 3, got $GOT"
}
FR=0
"$NV_FUZZ" "${FUZZ_ARGS[@]}" --resume "$JZ" --workers 2 \
  --json "$WORK/fres.json" > "$WORK/fres.out" 2> /dev/null || FR=$?
[ "$FR" -eq "$FREF" ] || fail "fuzz fleet resume exit $FR != reference $FREF"
grep -q "completed instance(s) replayed" "$WORK/fres.out" \
  || fail "fuzz resume replayed nothing"
diff <(strip_ms "$WORK/fref.json") <(strip_ms "$WORK/fres.json") \
  || fail "fleet-resumed fuzz JSON differs from the uninterrupted campaign"
truncate -s -3 "$JZ"
FT=0
"$NV_FUZZ" "${FUZZ_ARGS[@]}" --resume "$JZ" --json "$WORK/ftorn.json" \
  > /dev/null 2> "$WORK/ftorn.err" || FT=$?
[ "$FT" -eq "$FREF" ] || fail "fuzz torn-tail resume exit $FT != $FREF"
grep -qi "torn" "$WORK/ftorn.err" || fail "no torn-tail note from nv-fuzz"
diff <(strip_ms "$WORK/fref.json") <(strip_ms "$WORK/ftorn.json") \
  || fail "torn-tail fuzz resume JSON differs from the reference"
echo "ok: fuzz campaign resumed on a fleet and past a torn tail, identical"

echo "== corpus replay journal is bound to its file list =="
# Unit r<I> is the I-th corpus file, so a journal from another file list
# must be refused rather than replay one file's verdict as another's.
cp -r tests/corpus "$WORK/corpus"
JR="$WORK/replay.journal"
"$NV_FUZZ" --replay "$WORK/corpus" --resume "$JR" > /dev/null
CORPUS_FILES=("$WORK"/corpus/*.nv)
cp "${CORPUS_FILES[0]}" "$WORK/corpus/0-added.nv"
expect_code 2 "replay journal of another corpus file list rejected" \
  "$NV_FUZZ" --replay "$WORK/corpus" --resume "$JR"

echo "resume smoke passed"
