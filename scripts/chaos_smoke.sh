#!/usr/bin/env bash
# Chaos-campaign smoke: runs the seeded 500-fault campaign (tools/chaoscamp)
# against the live DaS stack, and fails if:
#   1. any fired fault is left unrecovered, the runtime fail-stops, or a
#      replay diverges (chaoscamp exits nonzero on all three),
#   2. per-window availability drops below the floor (default 0.90).
# A malformed VAMPOS_CHAOS_FAULTS or VAMPOS_CHAOS_FLOOR fails too: chaoscamp
# exits 2 on any numeric flag that is not wholly a number in range.
# The report JSON, availability curve CSV, and the campaign's Chrome trace
# are left in place for CI to upload; vamptrace summarizes the trace's
# per-window availability and MTTR percentiles as a readable report.
#
# The campaign is deterministic in its injection schedule: re-run any
# failure bit-for-bit with VAMPOS_CHAOS_SEED=<seed> (see docs/chaos.md).
#
# Usage: scripts/chaos_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
camp="$build_dir/tools/chaoscamp/chaoscamp"
vamptrace="$build_dir/tools/vamptrace/vamptrace"
if [[ ! -x "$camp" ]]; then
  echo "chaos_smoke: $camp not built (cmake --build $build_dir --target chaoscamp)" >&2
  exit 1
fi

seed="${VAMPOS_CHAOS_SEED:-42}"
faults="${VAMPOS_CHAOS_FAULTS:-500}"
floor="${VAMPOS_CHAOS_FLOOR:-0.90}"
report="${VAMPOS_CHAOS_REPORT:-chaos_report.json}"
curve="${VAMPOS_CHAOS_CURVE:-chaos_curve.csv}"
trace="${VAMPOS_CHAOS_TRACE:-chaos_trace.json}"

"$camp" --seed "$seed" --faults "$faults" --windows 10 --floor "$floor" \
        --out "$report" --curve "$curve" --trace "$trace"

test -s "$report" && test -s "$curve" && test -s "$trace"

# Post-hoc trace analysis: availability windows + recovery-stall attribution
# from the campaign's own flight-recorder dump.
if [[ -x "$vamptrace" ]]; then
  "$vamptrace" --availability 10 "$trace" | tee chaos_vamptrace.txt
else
  echo "chaos_smoke: vamptrace not built; skipping trace summary"
fi

echo "chaos_smoke: OK — seed=$seed faults=$faults report=$report"
