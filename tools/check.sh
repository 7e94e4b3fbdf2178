#!/usr/bin/env bash
# check.sh — full pre-merge verification. Each stage lives in its own
# script under tools/ci/ so local runs and the GitHub Actions workflows
# execute exactly the same steps:
#   1. tier-1: configure, build, and run the complete ctest suite;
#   2. a ThreadSanitizer build of the parallel determinism + thread-pool
#      tests, to catch data races the functional tests cannot see;
#   3. an ASan+UBSan build of the BDD, GC and parallel suites, to catch
#      the memory errors a moving collector can introduce (stale Refs,
#      table over-reads) that functional tests may survive by luck;
#   4. differential smoke fuzz: replay the regression corpus, then a
#      fixed-seed batch of fresh instances through the cross-engine
#      oracle (interpreter vs native vs MTBDD analysis vs SMT);
#   5. golden fault-tolerance answers: `nv ft/naive --json` on the
#      examples must match tests/golden/ft_answers.txt bit for bit, also
#      at 4 threads and on a 2-worker fleet.
#
# Usage: tools/check.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + ctest =="
tools/ci/tier1.sh build

echo
echo "== TSan: parallel determinism tests =="
tools/ci/tsan.sh build-tsan

echo
echo "== ASan+UBSan: BDD + GC + parallel tests =="
tools/ci/asan.sh build-asan

echo
echo "== smoke fuzz: corpus replay + fresh instances =="
tools/ci/smoke_fuzz.sh build 200 1

echo
echo "== golden fault-tolerance answers =="
tools/ci/ft_golden.sh build

echo
echo "All checks passed."
