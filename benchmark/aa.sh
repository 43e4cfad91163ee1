#!/usr/bin/env bash
# aa.sh — the A/A record: the same commit measured as two sets, A and B,
# runs alternating between the sets so that slow stretches of the host fall
# on both. Every workload gets RUNS runs per set (each with its own seed)
# plus one traced run for the host probe and the per-layer numbers; the
# per-run JSON and the comparison table land in the output directory.
#
#   bash benchmark/aa.sh [outdir]        (default benchmark/results)
#   RUNS=5 SECONDS_PER_RUN=20 bash benchmark/aa.sh /tmp/aa
#
# Exits non-zero when -compare reports a regression, which on an A/A
# comparison means the benchmark is not steady enough on this host.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$here/results}"
runs="${RUNS:-3}"
seconds="${SECONDS_PER_RUN:-20}"
workloads=(periodic-q19 halo-q39 cavity-trt bifurcation-sparse)
mkdir -p "$out"
out="$(cd "$out" && pwd)"

seed=1
for w in "${workloads[@]}"; do
  for ((i = 1; i <= runs; i++)); do
    for set in a b; do
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$w-$set$i.json" >/dev/null
      seed=$((seed + 1))
    done
  done
  bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
    --out "$out/$w-traced.json" --spans "$out/$w-spans.json" >/dev/null
  seed=$((seed + 1))
done

# The spread of all runs of a workload taken together, then A against B.
bash "$here/run.sh" -compare "$out"/*-[ab][0-9]*.json | tee "$out/spread.txt"
bash "$here/run.sh" -compare "$out"/*-a[0-9]*.json -- "$out"/*-b[0-9]*.json | tee "$out/aa.txt"
# The traced runs' noise flags (spin reading before against after).
grep -H -o '"noisy": [a-z]*' "$out"/*-traced.json | sed "s|$out/||" | tee -a "$out/aa.txt"
