#!/usr/bin/env bash
# tsan.sh — ThreadSanitizer build of the parallel determinism, thread-pool,
# run-governance, per-thread parked page mappings and serve tests
# (concurrent requests, disconnect cancellation), to catch data races the
# functional tests cannot see.
#
# Usage: tools/ci/tsan.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR=${1:-build-tsan}
JOBS=${JOBS:-$(nproc)}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNV_WERROR="${NV_WERROR:-OFF}" \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$BUILD_DIR" -j"$JOBS" \
  --target parallel_tests threadpool_tests governor_tests serve_tests \
  page_allocator_tests
"$BUILD_DIR/tests/threadpool_tests"
"$BUILD_DIR/tests/parallel_tests"
"$BUILD_DIR/tests/governor_tests"
"$BUILD_DIR/tests/page_allocator_tests"
"$BUILD_DIR/tests/serve_tests"
