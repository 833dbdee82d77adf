#!/bin/sh
# Solver hot-path, batch-kernel and crash-recovery regression gate.
#
# Re-runs two benchmark stages against committed baselines via the
# benchmark's own --compare mode, then the self-gating crash drill:
#
#   * kernel — the 20-case Config II sweep, dense LU without reuse vs
#     the auto-selected banded kernel with Jacobian reuse, compared
#     against BENCH_baseline.json. Fails when the optimized per-solve
#     time regressed by more than 25% or any reference delay drifted
#     by more than 0.01 ps.
#   * batch — the same sweep through the batch-first API (a
#     sequential Transient.run loop per batch, fanned out over the
#     pool) vs the one-at-a-time scalar loop, compared against
#     BENCH_batch.json. Fails on >25% per-solve regression, >0.01 ps
#     drift against the baseline delays, a sweep that never selects
#     the batch path, or any drift at all between the batch API and
#     the scalar loop (byte-identity is exact, not a tolerance).
#   * crash — SIGKILL the supervised daemon twice mid-load and require
#     zero acknowledged-and-lost responses, byte-identical replay,
#     recovery within budget and a clean drain. Unlike the timing
#     gates this one is pass/fail with no baseline: the stage itself
#     exits non-zero on any violated invariant. Skip it (e.g. on a
#     machine that cannot fork/exec) with CRASH_GATE=0.
#   * sweep — the 200-case Config II alignment grid through the
#     branch-and-bound search vs the exhaustive sweep, compared
#     against BENCH_sweep.json. The stage self-gates (solved points
#     byte-identical to the exhaustive sweep, worst-case drift within
#     the coverage slack, >=4x fewer solves and <=40 total, sparse
#     entries >=5x smaller) and the --compare limb additionally fails
#     when the pruned solve count grew >25% over the baseline or the
#     sparse compression ratio fell below 80% of it. Skip with
#     SWEEP_GATE=0; SWEEP_BASELINE=path overrides the baseline file.
#
# The timing limbs are advisory across machines (the committed
# baselines record one host's numbers); the drift limbs are
# machine-independent and must always hold. Refresh the baselines on
# a quiet machine with:
#
#   dune exec bench/main.exe -- kernel --json BENCH_baseline.json
#   dune exec bench/main.exe -- batch --json BENCH_batch.json
#   dune exec bench/main.exe -- sweep --cases 200 --json BENCH_sweep.json
#
# Usage: bench/check_regression.sh [BASELINE.json] [extra bench args...]
#        BATCH_BASELINE=path overrides the batch baseline file.
set -eu
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_baseline.json}"
[ $# -gt 0 ] && shift
batch_baseline="${BATCH_BASELINE:-BENCH_batch.json}"

if [ ! -f "$baseline" ]; then
  echo "check_regression: baseline $baseline not found" >&2
  exit 2
fi

status=0
dune exec bench/main.exe -- kernel --compare "$baseline" "$@" || status=$?

if [ -f "$batch_baseline" ]; then
  dune exec bench/main.exe -- batch --compare "$batch_baseline" "$@" \
    || status=$?
else
  echo "check_regression: batch baseline $batch_baseline not found;" \
    "skipping batch gate" >&2
fi

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
