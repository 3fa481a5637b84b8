#!/usr/bin/env bash
# Build tcvs_bench from this checkout's sources, then run it:
#
#   bash tcvs_bench/run.sh --workload point-mixed --seed 7 --seconds 20 --trace 0
#
# Every argument goes to `tcvs_bench run`. The build output goes to
# stderr, so the last line on stdout is the run's JSON summary.
#
# The run and every server it starts are pinned to one CPU, the last
# this shell may use, so that the speed probe the runner takes between
# slices measures the CPU the whole system ran on (README.md, "Host
# speed"). Without taskset the run is not pinned, and records so.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./tcvs_bench/tcvs_bench.exe >&2
exe=./_build/default/tcvs_bench/tcvs_bench.exe
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status | tr ',' '\n' | tail -n 1 | sed 's/.*-//')
if command -v taskset >/dev/null && [ -n "$cpu" ]; then
  exec taskset -c "$cpu" "$exe" run "$@"
fi
exec "$exe" run "$@"
