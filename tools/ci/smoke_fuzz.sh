#!/usr/bin/env bash
# smoke_fuzz.sh — short differential-fuzz pass for PR CI: replay the
# committed regression corpus, then a fixed-seed batch of fresh instances.
# Any divergence fails the job; the repro (if --minimize produced one)
# lands under the artifact dir for upload as an artifact.
#
# Usage: tools/ci/smoke_fuzz.sh [BUILD_DIR] [COUNT] [SEED]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build}
COUNT=${2:-200}
SEED=${3:-1}
FUZZ="$BUILD_DIR/tools/nv-fuzz"

cmake --build "$BUILD_DIR" -j"${JOBS:-$(nproc)}" --target nv-fuzz

echo "== numeric flags parse strictly =="
# A malformed number is a usage error (exit 2), never 0 or 2^64-1 instances.
for flags in "--count abc" "--count -1" "--count 3x" "--seed 1.5" \
  "--start -2" "--emit 0x" "--emit 08"; do
  code=0
  # shellcheck disable=SC2086  # flags is a flag list
  timeout 20 "$FUZZ" $flags > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: nv-fuzz $flags exited $code, want 2 (usage)" >&2
    exit 1
  fi
done
# Base prefixes still read as before: --emit 0x10 is --emit 16.
if ! diff <("$FUZZ" --emit 0x10) <("$FUZZ" --emit 16) > /dev/null; then
  echo "FAIL: nv-fuzz --emit 0x10 differs from --emit 16" >&2
  exit 1
fi
echo "ok"

echo
echo "== the --json summary escapes repro paths =="
# The injected bug makes a divergence whose repro lands under a directory
# named with a quote and a backslash; the summary must still parse.
ODD_DIR=$(mktemp -d)
"$FUZZ" --seed 3 --count 3 --inject-bug-for-testing --minimize \
  --artifact-dir "$ODD_DIR/a\"b\\c" --json "$ODD_DIR/summary.json" \
  > /dev/null || true
python3 -c 'import json, sys
repros = json.load(open(sys.argv[1]))["repros"]
assert repros and all("a\"b\\c/" in r for r in repros), repros' \
  "$ODD_DIR/summary.json"
rm -rf "$ODD_DIR"
echo "ok"

echo
echo "== corpus replay =="
"$FUZZ" --replay tests/corpus

echo
echo "== smoke fuzz: $COUNT instances, seed $SEED =="
mkdir -p fuzz-artifacts
"$FUZZ" --seed "$SEED" --count "$COUNT" --minimize \
  --artifact-dir fuzz-artifacts --json fuzz-artifacts/summary.json
