#!/usr/bin/env bash
# Build the performance ledger and the simulator it drives from source
# into .bench_build/ at the repository root, then run the ledger with
# this script's arguments, e.g.
#
#   bash bench/ledger/run.sh --workload suite --seed 3 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout stays the
# ledger's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../.bench_build"

if [ ! -f "$build/Makefile" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j 2 >&2
exec "$build/ledger" "$@"
