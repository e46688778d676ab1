#!/usr/bin/env bash
# Build the scheduler CLI and the benchmark from source, then run the
# benchmark with the given arguments. Run from the root of a checkout:
#
#   bash bench/perf/run.sh --workload sched-two-stage --seed 1 --seconds 12 --trace 0
#   bash bench/perf/run.sh run                 # 3 reps of every workload
#   bash bench/perf/run.sh trace batch-resnet  # per-layer breakdown
#   bash bench/perf/run.sh compare A.tsv B.tsv
#
# The dune cache is disabled so the build writes only under _build/.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a CoSA checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet \
  bin/cosa_cli.exe bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
