#!/usr/bin/env bash
# Usage: bash perfbench/collect.sh OUT.jsonl SEED...
#
# Runs every workload of BENCHMARK.json once per seed, untraced, at the
# run length BENCHMARK.json fixes, and appends one line per run to
# OUT.jsonl:  {"workload": NAME, "seed": N, "result": <the run's last line>}
# Two such files, one per commit, are what `run.sh --diff OLD NEW` compares.
set -euo pipefail
out=$(realpath -m "$1")
shift
cd "$(dirname "$0")/.."
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for w in $(bash perfbench/run.sh --list); do
  for s in "$@"; do
    line=$(bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 | tail -n 1)
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' "$w" "$s" "$line" >> "$out"
  done
done
