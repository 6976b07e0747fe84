#!/usr/bin/env bash
# vampcheck static prong (see docs/static-analysis.md):
#
#   1. vampcheck — three dependency-free passes over src/ (tools/vampcheck):
#        layering     include-graph rules from DESIGN.md §"Layering rules"
#        determinism  replay-determinism lint for handler code (apps/, comp/)
#        dirtywrite   dirty-write coverage: bulk writes into arena memory
#                     must flow through a tracked path
#      A violation on src/ fails this script. Each pass's committed fixture
#      (tools/vampcheck/fixtures/<pass>) must keep *failing*, guarding the
#      lint itself against regressions.
#   2. clang-tidy — pass over src/ with the checks pinned in .clang-tidy.
#      The checks listed in WarningsAsErrors there are gating; the rest are
#      advisory. Skipped with a notice when clang-tidy is not installed
#      (CI installs it; minimal dev containers may not have it).
#
# Usage: scripts/lint.sh [--vampcheck-only]
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
build_dir="build-lint"

# A dedicated small build dir: only the lint tool is compiled, and the
# compile database for clang-tidy comes for free. CI caches this directory.
cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$build_dir" --target vampcheck -j "$(nproc)"

vampcheck="$build_dir/tools/vampcheck/vampcheck"

echo "== vampcheck: all passes over src/"
"$vampcheck" all src

for pass in layering determinism dirtywrite; do
  echo "== vampcheck[$pass]: fixture must fail"
  if "$vampcheck" "$pass" "tools/vampcheck/fixtures/$pass/src"; then
    echo "lint.sh: FIXTURE PASSED — the $pass pass is broken" >&2
    exit 1
  fi
  echo "fixture correctly rejected"
done

if [[ "$mode" == "--vampcheck-only" ]]; then
  echo "lint.sh: vampcheck passes clean (clang-tidy skipped by flag)"
  exit 0
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint.sh: clang-tidy not installed — tidy pass skipped"
  echo "lint.sh: vampcheck passes clean"
  exit 0
fi

echo "== clang-tidy (checks pinned in .clang-tidy)"
# The lint build dir has the compile database. Checks listed under
# WarningsAsErrors in .clang-tidy (use-after-move, dangling-handle,
# unnecessary-copy-init) fail the run; everything else is advisory.
mapfile -t sources < <(find src -name '*.cc' | sort)
clang-tidy -p "$build_dir" --quiet "${sources[@]}"

echo "lint.sh: all lint stages completed"
