#!/usr/bin/env bash
# asan.sh — ASan+UBSan build of the BDD, GC and parallel suites, to catch
# the memory errors a moving collector can introduce (stale Refs, table
# over-reads) that functional tests may survive by luck. UBSan reports
# are fatal (-fno-sanitize-recover), so any new one fails the stage.
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
cmake --build "$BUILD_DIR" -j"$JOBS" \
  --target bdd_tests gc_tests parallel_tests governor_tests serve_tests
"./$BUILD_DIR/tests/bdd_tests"
"./$BUILD_DIR/tests/gc_tests"
"./$BUILD_DIR/tests/parallel_tests"
"./$BUILD_DIR/tests/governor_tests"
"./$BUILD_DIR/tests/serve_tests"
