#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash wallbench/run.sh --workload suite|timestep|serve --seed N \
#     --seconds S --trace 0|1
# Run from the root of a checkout.  The build is dune's own; the shared
# dune cache is disabled so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./wallbench/main.exe 1>&2
exec ./_build/default/wallbench/main.exe "$@"
