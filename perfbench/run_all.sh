#!/bin/sh
# Every workload, untraced then traced, each in its own process, with the
# run length of BENCHMARK.json.  Run from the checkout root:
#   sh perfbench/run_all.sh [--seed N]
set -e
for workload in scan-golden torus-verify arith-depth cli-artifacts; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        python3 perfbench/run.py --workload "$workload" --trace "$trace" "$@"
    done
done
