#!/usr/bin/env bash
# Builds the benchmark and the gmtc daemon it drives, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1          # every workload, one after another
#
# Build output goes to stderr; the result is the last line of stdout.
# The shared dune cache is off, so the build writes only under _build.
set -euo pipefail
dune build --root . --cache=disabled ./benchmark/main.exe ./bin/gmtc.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
