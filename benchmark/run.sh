#!/usr/bin/env bash
# Runs the four workloads, then their traced runs, as separate sequential
# processes, and leaves the results in benchmark/out/<set>/.
#
#   benchmark/run.sh SET [SEED]
#
# Every run does the workload's fixed work (no --seconds), so two sets of one
# seed agree in every count and digest; compare them with
#
#   cargo run --release --manifest-path benchmark/Cargo.toml -- \
#       --compare benchmark/out/SET_A benchmark/out/SET_B
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
set_name="${1:?usage: run.sh SET [SEED]}"
seed="${2:-2002}"
out="$here/out/$set_name"
workloads=(walk-uniform hit-smallbatch churn-steady fail-heal)

cargo build --release --manifest-path "$here/Cargo.toml"
mkdir -p "$out"
for trace in 0 1; do
    for workload in "${workloads[@]}"; do
        cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- \
            --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" \
            | tee "$out/$workload.trace$trace.log"
    done
done
echo "results in $out"
