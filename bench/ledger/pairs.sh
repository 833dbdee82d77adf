#!/usr/bin/env bash
# Runs ten alternating pairs of a parent checkout and a changed checkout
# on every workload, records each run's result line and answer digest,
# then judges them with `ledger.exe compare` (bounds from the changed
# checkout's BENCHMARK.json):
#   bash bench/ledger/pairs.sh BASE_DIR NEW_DIR OUT_DIR
# Pair i runs seed i (0..9) on both sides, so table1's seed-0 check
# against the expected Table-1 rows runs in every comparison; even
# pairs run the parent first, odd pairs the change first. Every run
# lasts the changed checkout's BENCHMARK.json run_seconds.
set -eu
[ $# -eq 3 ] || { echo "usage: $0 BASE_DIR NEW_DIR OUT_DIR" >&2; exit 2; }
base=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$new/BENCHMARK.json")
[ -n "$secs" ] || { echo "$new/BENCHMARK.json: no run_seconds" >&2; exit 2; }
: >"$out/base.jsonl"
: >"$out/new.jsonl"

record() { # side checkout workload seed
  local report line digest
  # A run whose checks fail exits 1; its "correct": false reaches compare.
  report=$(bash "$2/bench/ledger/run.sh" --workload "$3" --seed "$4" --seconds "$secs" --trace 0) || true
  line=$(printf '%s\n' "$report" | tail -n 1)
  digest=$(printf '%s\n' "$report" | sed -n 's/^digest //p')
  printf '{"workload":"%s","seed":%d,"digest":"%s","result":%s}\n' "$3" "$4" "$digest" "$line" \
    >>"$out/$1.jsonl"
}

for i in $(seq 0 9); do
  for w in table1 gamma worstcase serve; do
    if [ $((i % 2)) -eq 0 ]; then
      record base "$base" "$w" "$i"
      record new "$new" "$w" "$i"
    else
      record new "$new" "$w" "$i"
      record base "$base" "$w" "$i"
    fi
  done
done
bash "$new/bench/ledger/run.sh" compare "$out/base.jsonl" "$out/new.jsonl"
