#!/bin/sh
# Crash-recovery and alignment-sweep regression gate.
#
# Runs two self-gating benchmark stages:
#
#   * crash — SIGKILL the supervised daemon twice mid-load and require
#     zero acknowledged-and-lost responses, byte-identical replay,
#     recovery within budget and a clean drain. The stage itself exits
#     non-zero on any violated invariant. Skip it (e.g. on a machine
#     that cannot fork/exec) with CRASH_GATE=0.
#   * sweep — the 200-case Config II alignment grid through the
#     branch-and-bound search vs the exhaustive sweep, compared
#     against BENCH_sweep.json. The stage self-gates (solved points
#     byte-identical to the exhaustive sweep, worst-case drift within
#     the coverage slack, >=4x fewer solves and <=40 total) and the
#     --compare limb additionally fails when the pruned solve count
#     grew >25% over the baseline. Skip with SWEEP_GATE=0;
#     SWEEP_BASELINE=path overrides the baseline file.
#
# Timing is not gated here: end-to-end performance is the repository
# benchmark's job (bench/ledger). Refresh the sweep baseline with:
#
#   dune exec bench/main.exe -- sweep --cases 200 --json BENCH_sweep.json
#
# Usage: bench/check_regression.sh [extra bench args for the sweep...]
set -eu
cd "$(dirname "$0")/.."

status=0

if [ "${CRASH_GATE:-1}" = "1" ]; then
  dune exec bench/main.exe -- crash || status=$?
else
  echo "check_regression: CRASH_GATE=0, skipping crash-recovery gate" >&2
fi

sweep_baseline="${SWEEP_BASELINE:-BENCH_sweep.json}"
if [ "${SWEEP_GATE:-1}" != "1" ]; then
  echo "check_regression: SWEEP_GATE=0, skipping alignment-sweep gate" >&2
elif [ -f "$sweep_baseline" ]; then
  dune exec bench/main.exe -- sweep --cases 200 --compare "$sweep_baseline" \
    "$@" || status=$?
else
  echo "check_regression: sweep baseline $sweep_baseline not found;" \
    "skipping sweep gate" >&2
fi

exit $status
