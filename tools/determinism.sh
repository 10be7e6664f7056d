#!/usr/bin/env bash
# Check that bench results are bit-identical at any --jobs value:
#
#   tools/determinism.sh [BUILD_DIR]        (default: build)
#
# Runs each command below with --json at --jobs 1 and at --jobs 4 and
# diffs the two documents after tools/json_deterministic.py drops
# every run-dependent value (each lives inside an object named
# "timing").  Stops with a nonzero exit at the first difference.
# CI's perf-determinism job runs it.
set -euo pipefail
det="$(cd "$(dirname "$0")" && pwd)/json_deterministic.py"
cd "${1:-build}"
set -x

cmds=(
    "./bench/fig08_perf_11k --smoke"
    "./bench/fig_perf_1M --smoke"
    "./bench/ext_flow_throughput --phases 50 --max-paths 4 --samples 2"
    "./bench/ext_latency_curves --smoke"
    "./bench/ext_fault_recovery --smoke"
    "./bench/ext_adversarial --radix 8 --warmup 200 --measure 500 --trials 1"
    "./bench/ext_closed_loop --smoke"
    "./bench/ext_expansion_drill --smoke"
    "./bench/fig12_perf_faults --warmup 50 --measure 200 --steps 2 --trials 1"
)
for cmd in "${cmds[@]}"; do
    $cmd --json --jobs 1 > j1.json
    $cmd --json --jobs 4 > j4.json
    diff <("$det" j1.json) <("$det" j4.json)
done
