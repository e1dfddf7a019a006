#!/usr/bin/env bash
# Build the benchmark harness from the sources of this checkout and run it
# from the checkout's root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --self-test
#
# Everything it builds lands in _build/ of the checkout; the shared dune
# cache is off so nothing is read or written outside it.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: $(pwd) holds no icache_opt sources (dune-project, lib/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
