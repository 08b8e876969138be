#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree with AddressSanitizer +
# UndefinedBehaviorSanitizer in a dedicated build directory and runs the
# full test suite — tier-1 plus the chaos soak — under it, then builds the
# tstorm_bench package the same way in a directory of its own and runs its
# smoke check, which drives every workload and checks the placements of
# every registered scheduler. A leak, a use-after-free in a fault path, or
# UB anywhere fails the script.
#
# Usage: scripts/check_asan.sh [extra ctest args...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-asan"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTSTORM_SANITIZE=address,undefined >/dev/null
cmake --build "$build" -j "$(nproc)" >/dev/null

# halt_on_error: make UBSan findings fatal instead of log-and-continue.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

ctest --test-dir "$build" --output-on-failure -j "$(nproc)" "$@"

bench="$repo/build-asan-bench"
sanitize="-fsanitize=address,undefined"
cmake -B "$bench" -S "$repo/tstorm_bench" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$sanitize -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="$sanitize" >/dev/null
cmake --build "$bench" --target tstorm_bench -j "$(nproc)" >/dev/null
python3 "$repo/tstorm_bench/run.py" --smoke --binary "$bench/tstorm_bench" \
  --trace-dir "$bench/smoke_trace"
echo "ASan/UBSan run clean"
