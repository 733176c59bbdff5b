#!/usr/bin/env bash
# Build the slimpad CLI and the benchmark from source, then run the
# benchmark with the given arguments. Run from the repository root:
#   bash benchmark/run.sh --workload rounds --seed 1 --seconds 20 --trace 0
set -euo pipefail
# Build output goes to stderr: the last line of stdout is the result.
DUNE_CACHE=disabled dune build --root . -j 2 bin/slimpad_cli.exe benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
