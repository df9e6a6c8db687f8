#!/usr/bin/env bash
# Build the end-to-end request benchmark from this checkout's sources,
# then run it.  From the root of a source checkout:
#   bash perfbench/run.sh --workload dj-paper --seed 1 --seconds 55 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not the root of a source checkout (no dune-project or lib/)" >&2
  exit 2
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
