#!/usr/bin/env bash
# Builds the ledger from source in the checkout this script belongs to
# and runs it there; every argument is passed through, e.g.
#   bash bench/ledger/run.sh --workload gamma --seed 3 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# ledger's JSON result. The dune cache is off: the build reads and
# writes only inside the checkout.
set -eu
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
