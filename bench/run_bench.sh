#!/usr/bin/env bash
# Builds the Release preset, runs the fluid-solver scaling benchmark, and
# writes BENCH_fluid.json at the repo root so every PR leaves a comparable
# perf data point (flows-vs-solve-time up to 1M flows, sharded vs
# pre-change solver, 64K thread-count sweep, steady-state allocation
# count, raw-thread calibration, a drain-only 4M point with its peak
# RSS). Exit status mirrors the benchmark's own acceptance checks (>=3x
# solve speedup at 4K flows, >=10x at 64K, 64K, 1M and 4M points
# completed, 1M end-to-end drain at most 30x the 64K one and 4M at most
# 8x the 1M one, each as the median of three rounds that each drain
# every size once, smallest first, zero steady-state allocations, and a
# 4-lane 64K re-solve >=1.5x faster than 1 lane, each round the ratio of
# the median re-solves of sims re-solved in turn, read over the sweep
# rounds whose raw-thread calibrations before and after the re-solves
# both reach 2.5x on 4 lanes).
#
# Usage: run_bench.sh [--threads=1,2,4,8] [--baseline=FILE]
#   --threads   comma-separated solver thread counts for the 64K sweep
#               (default 1,2,4,8).
#   --baseline  an earlier BENCH_fluid.json (e.g. the parent commit's,
#               run on the same host) whose end-to-end times are written
#               next to the new ones.
set -euo pipefail
cd "$(dirname "$0")/.."

threads_arg=""
baseline_arg=""
for arg in "$@"; do
  case "$arg" in
    --threads=*) threads_arg="$arg" ;;
    --baseline=*) baseline_arg="$arg" ;;
    *) echo "unknown argument: $arg" >&2; exit 1 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"
cmake --preset release
cmake --build --preset release -j"${jobs}" --target bench_fluid_scaling
./build-release/bench/bench_fluid_scaling BENCH_fluid.json ${threads_arg:+"$threads_arg"} \
  ${baseline_arg:+"$baseline_arg"}
echo "BENCH_fluid.json written at $(pwd)/BENCH_fluid.json"
