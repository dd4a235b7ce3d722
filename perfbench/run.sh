#!/usr/bin/env bash
# Builds the benchmark from source with dune and runs it with the given
# arguments, from the root of the checkout this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
