#!/bin/sh
# Run every workload, untraced and then traced, with one seed.
# usage (from the repository root): sh bench/run_all.sh [SEED] [SECONDS]
set -e
seed=${1:-1}
seconds=${2:-30}
for workload in complexes words surfaces; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
