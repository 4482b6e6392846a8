#!/usr/bin/env bash
# Runs every workload (or the ones named) N times with seeds FIRST..FIRST+N-1
# and keeps each run's standard output as DIR/<workload>.seed<N>.out, the
# layout `perfbench compare` reads:
#
#   bash perfbench/runset.sh perfbench/out/setA 10 1
#   bash perfbench/runset.sh perfbench/out/setB 10 101
#   bash perfbench/run.sh compare perfbench/out/setA perfbench/out/setB
#
# Run from the repository root; the run length is BENCHMARK.json's.
set -euo pipefail
dir=$1 n=$2 first=$3
shift 3
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(echo_small pubsub_fanout sim_paper)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$dir"
for ((i = 0; i < n; i++)); do
	for w in "${workloads[@]}"; do
		seed=$((first + i))
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$dir/$w.seed$seed.out"
	done
done
