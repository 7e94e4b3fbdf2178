#!/usr/bin/env bash
# asan.sh — ASan+UBSan build of the BDD, GC, parallel and evaluator
# suites, to catch the memory errors a moving collector can introduce
# (stale Refs, table over-reads) and those of the evaluator's reused
# storage (pooled closure frames, the symbolic bit arena, parked page
# mappings, poisoned while parked) that functional tests may survive by
# luck. UBSan reports are fatal
# (-fno-sanitize-recover), so any new one fails the stage.
#
# Usage: tools/ci/asan.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build-asan}
JOBS=${JOBS:-$(nproc)}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNV_WERROR="${NV_WERROR:-OFF}" \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
SUITES="bdd_tests gc_tests parallel_tests governor_tests serve_tests
        eval_tests compile_tests alloc_tests page_allocator_tests"
# shellcheck disable=SC2086 # one target and one binary per word
cmake --build "$BUILD_DIR" -j"$JOBS" --target $SUITES
for T in $SUITES; do
  "$BUILD_DIR/tests/$T"
done
