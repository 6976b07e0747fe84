#!/usr/bin/env bash
# Tier-1 verification: build + run the full test suite in the default
# configuration, then again under ASan+UBSan. Any sanitizer report fails the
# run (-fno-sanitize-recover=all aborts on the first UBSan hit too).
#
# Usage: scripts/check.sh [--asan-only|--no-asan|--lint]
#   --lint runs the vampcheck static passes (scripts/lint.sh) instead of the
#   test suites.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--lint" ]]; then
  exec scripts/lint.sh
fi

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

mode="${1:-all}"

if [[ "$mode" != "--asan-only" ]]; then
  run_suite build
  # Snapshot-regression smoke: the incremental checkpoint engine must keep
  # copying fewer bytes per reboot than the full-copy fallback.
  cmake --build build -j "$(nproc)" --target bench_reboot
  scripts/snapshot_smoke.sh build
fi

if [[ "$mode" != "--no-asan" ]]; then
  # ucontext fiber switching: ASan handles swapcontext but must not use
  # fake stacks across switches.
  export ASAN_OPTIONS="detect_stack_use_after_return=0:${ASAN_OPTIONS:-}"
  run_suite build-asan -DCMAKE_BUILD_TYPE=Asan
fi

echo "check.sh: all suites passed"
