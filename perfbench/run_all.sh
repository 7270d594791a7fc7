#!/usr/bin/env bash
# Runs every benchmark workload once and prints each one's end-to-end
# metrics. Run from the repository root:
#
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
#
# Exits non-zero if any workload fails, for example on a verdict that
# differs from the reference detector.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
trace="${3:-0}"
status=0
for workload in login-paced flood-unique flood-repeat model-churn; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit "$status"
