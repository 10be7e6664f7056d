#!/usr/bin/env bash
# Run every bench and example binary at smoke scale from a build tree:
#
#   tools/smoke.sh [BUILD_DIR]        (default: build)
#
# Each command's stdout is discarded; the script stops with a nonzero
# exit at the first command that fails, and at any negative check that
# unexpectedly passes.  CI's bench-smoke job runs it, and so does
# tools/coverage.py, so both reach the same code.
set -euo pipefail
src="$(cd "$(dirname "$0")/.." && pwd)"
cd "${1:-build}"
set -x

# fails CMD...: CMD must exit with status 2, the status runMain
# (util/options.hpp) gives an error it reports; an abort (134), a crash
# (139) or a failed audit (1) fails the check.
fails() {
  local status=0
  "$@" > /dev/null 2>&1 || status=$?
  test "$status" -eq 2
}

# rejects FLAG CMD...: CMD must exit with status 2 before it prints
# anything on stdout (so before it builds a network), naming FLAG on
# stderr.
rejects() {
  local flag="$1"
  shift
  local status=0
  "$@" > rejected.out 2> rejected.err || status=$?
  test "$status" -eq 2
  test ! -s rejected.out
  grep -q -- "$flag" rejected.err
}

# Every bench and example binary declares its flags: an undeclared one
# must stop it, with a message naming the flag and, from util/options,
# the valid ones, and --help must list them and exit 0.
# micro_generators' flags are google-benchmark's, whose message names
# only the bad flag and whose status is its own, 1; it too must stop
# before it prints anything on stdout.
for cpp in "$src"/bench/*.cpp "$src"/examples/*.cpp; do
  bin="./$(basename "$(dirname "$cpp")")/$(basename "$cpp" .cpp)"
  if [ "$bin" = ./bench/micro_generators ]; then
    status=0
    "$bin" --bogus-flag 1 > rejected.out 2> rejected.err || status=$?
    test "$status" -eq 1
    test ! -s rejected.out
    grep -q -- --bogus-flag rejected.err
    continue
  fi
  rejects --bogus-flag "$bin" --bogus-flag 1
  grep -q "valid: --" rejected.err
  "$bin" --help > help.out
  grep -q "^  --" help.out
done
# Only a bench that has a scale accepts its flag (fig06 and the cost
# table have none, fig_perf_1M has no --full), and --smoke with --full
# is no scale at all.
rejects --full ./bench/fig06_scalability --full
rejects --full ./bench/tab_section5_cost --full
rejects --full ./bench/fig_perf_1M --smoke --full
rejects --full ./bench/fig08_perf_11k --smoke --full
# --csv and --json are two output formats, not one.
rejects --json ./bench/fig06_scalability --csv --json
rejects --json ./examples/simulate --topo cft --radix 4 --levels 2 --csv --json
# --repair-at -1 is the one way to say "no repair".
rejects --no-repair ./bench/ext_fault_recovery --smoke --no-repair
# --load is one point and --points shapes a sweep: not both.
rejects --points ./examples/simulate --topo cft --radix 4 --levels 2 --load 0.3 --points 5
fails ./bench/fig05_diameter --bogus-flag 3
# Near misses of a declared flag are undeclared flags too: --job 4
# would run at the default job count and --warm-up 3000 at the default
# 600-cycle window.
fails ./bench/fig08_perf_11k --smoke --job 4
fails ./bench/fig08_perf_11k --smoke --warm-up 3000
# A boolean takes 1/0, true/false or yes/no: --json 2 used to print
# text tables.
fails ./bench/fig08_perf_11k --smoke --json 2

# Every bench binary.  Each one that simulates packets (fig08-fig10,
# fig12, ablation_flowcontrol, ext_jellyfish, ext_adversarial,
# ext_fault_recovery, ext_latency_curves' self-check, ext_closed_loop,
# ext_expansion_drill, and the quickstart and simulate examples) passes
# every run through the one packet audit (exp/experiment.hpp
# failsAudit) and exits 1 on any failure.
./bench/fig05_diameter > /dev/null
# Every int flag of the bench drivers has a stated lower bound and
# rejects values outside an int; a plain cast would run R = 8 here.
fails ./bench/fig05_diameter --radix 4294967304
# The closed-form models take an even radix >= 4: an odd one used to
# run as R - 1 under an "R = 36" banner.
fails ./bench/fig05_diameter --radix 7
fails ./bench/fig07_expandability --radix 7
./bench/fig06_scalability > /dev/null
./bench/fig07_expandability > /dev/null
./bench/tab_section5_cost > /dev/null
./bench/fig08_perf_11k --radix 8 --warmup 50 --measure 200 --points 2 --trials 1 > /dev/null
./bench/fig09_perf_100k --warmup 50 --measure 200 --points 2 --trials 1 > /dev/null
./bench/fig10_perf_200k --warmup 50 --measure 200 --points 2 --trials 1 > /dev/null
# --json prints exactly one document on stdout (the Report field path).
./bench/fig10_perf_200k --warmup 50 --measure 200 --points 2 --trials 1 --json | python3 -m json.tool > /dev/null
./bench/fig12_perf_faults --warmup 50 --measure 200 --steps 2 --trials 1 > /dev/null
./bench/table3_disconnect --trials 2 > /dev/null
./bench/fig11_updown_faults --trials 2 > /dev/null
./bench/thm42_threshold --generations 5 > /dev/null
./bench/ablation_flowcontrol --warmup 50 --measure 200 > /dev/null
./bench/ablation_bisection --restarts 2 > /dev/null
./bench/ext_jellyfish --warmup 50 --measure 200 > /dev/null
./bench/ext_adversarial --warmup 50 --measure 200 --trials 1 > /dev/null
./bench/ext_flow_throughput --phases 50 --max-paths 4 --samples 2 > /dev/null
# Flow counts outside their range must be rejected: an int cast would
# run 4294967297 as one path and -1 samples as exact all-pairs demand.
fails ./bench/ext_flow_throughput --phases 50 --max-paths 4294967297 --samples 2
fails ./bench/ext_flow_throughput --phases 50 --max-paths 4 --samples -1
fails ./bench/ext_flow_throughput --scenario faults --phases 50 --max-paths 4 --samples 2 --step-links 0
./bench/ext_fault_recovery --smoke > /dev/null
# The drills' telemetry bins are at least one cycle (a zero bin left
# no recovery metric), their schedule cycles lie inside the run, and
# a fault step is at least one link (a negative one wrapped).
fails ./bench/ext_fault_recovery --smoke --telemetry-bin 0
fails ./bench/ext_fault_recovery --smoke --fail-at -1
fails ./bench/ext_fault_recovery --smoke --step-links -3
fails ./bench/fig12_perf_faults --warmup 50 --measure 200 --steps 2 --trials 1 --step-links -1
# --smoke includes the self-check: the queue sweep must be
# >= 10x faster than an equivalent VCT sweep, which must pass the
# packet audit (exit 1 if not).
./bench/ext_latency_curves --smoke > /dev/null
./bench/ext_latency_curves --smoke --section fig8 --model mm1 > /dev/null
# --cv2 belongs to --model mg1; with a preset it must be
# rejected, not ignored (set -e ignores a !-negated command).
fails ./bench/ext_latency_curves --smoke --section fig8 --model md1 --cv2 2
# One simulation runs on one thread: the removed --shards and
# --sim-jobs flags are undeclared, so they are rejected, not ignored.
fails ./bench/fig08_perf_11k --smoke --shards 4
# An RFC without up/down routes must stop a comparison, not bias it:
# RFC(8, 3) at 120 leaves stays unroutable through every attempt.
fails ./bench/ext_jellyfish --radix 8 --leaves 120 --degree 5 --warmup 50 --measure 200
# Int flags outside their range must be rejected: an int cast would
# run --leaves 4294967466 as the default 170.
fails ./bench/ext_jellyfish --leaves 4294967466 --warmup 50 --measure 200
# fig_perf_1M reads --patterns like the other flow benches; the old
# --pattern is undeclared, so it is rejected, not ignored.
./bench/fig_perf_1M --smoke --section flow --patterns random-pairing | grep "pattern: random-pairing" > /dev/null
fails ./bench/fig_perf_1M --smoke --section flow --pattern random-pairing
# The closed-loop audit adds message conservation (packets created =
# pending + queued + in-flight + received, ejections = receipts).
./bench/ext_closed_loop --smoke > /dev/null
./bench/ext_expansion_drill --smoke > /dev/null
fails ./bench/ext_expansion_drill --smoke --telemetry-bin 0
fails ./bench/ext_expansion_drill --smoke --change-at 999999
# The RRN row adds switches of degree R/2, so an odd R/2 never stays
# regular: it must stop the drill before it runs.
rejects --radix ./bench/ext_expansion_drill --smoke --radix 6
./bench/fig_perf_1M --smoke --json > perf1m.json
# --json prints exactly one document on stdout.
python3 -m json.tool perf1m.json > /dev/null
# Memory telemetry must be present and nonzero in every run.
grep -q '"peak_rss_bytes": [1-9]' perf1m.json
grep -q '"topology_bytes": [1-9]' perf1m.json
./bench/micro_generators --benchmark_filter=/256 > /dev/null

# Every example binary at small scale.
./examples/quickstart > /dev/null
./examples/simulate --topo cft --radix 8 --levels 3 --points 2 --warmup 100 --measure 300 > /dev/null
./examples/simulate --topo rfc --radix 8 --levels 3 --points 1 --warmup 100 --measure 300 --route-mode ugal > /dev/null
# The hotspot pattern and the CSV printer.
./examples/simulate --topo cft --radix 8 --levels 3 --points 1 --warmup 100 --measure 300 --traffic hotspot --csv > /dev/null
# A hot fraction outside [0, 1] must be rejected, not run as some other
# pattern (NaN included).
for f in 2 -1 nan; do
  fails ./examples/simulate --topo cft --radix 8 --levels 3 --points 1 --warmup 100 --measure 300 --traffic hotspot --hot-fraction "$f"
done
# Int flags outside their range must be rejected: an int cast would
# run --radix 4294967304 as R = 8.
fails ./examples/simulate --topo cft --radix 4294967304 --levels 3 --points 1 --warmup 100 --measure 300
# The document's wall clock starts before the topology is built, so it
# covers every study section's own wall clock.
./examples/simulate --topo rfc --radix 8 --levels 3 --points 2 --warmup 100 --measure 300 --json | python3 -c '
import json, sys
t = json.load(sys.stdin)["timing"]
sys.exit(0 if t["wall_seconds"] >= sum(t["section_seconds"].values()) else 1)'
# Structure table and flow-model ranking of every topology.
./examples/topology_explorer --radix 8 > /dev/null
# Its int flags are range-checked like every bench's.
fails ./examples/topology_explorer --radix 8 --max-paths 4294967297
# Its packet-level sections moved to examples/simulate and the benches:
# the removed flags are undeclared, so they are rejected, not ignored.
fails ./examples/topology_explorer --radix 8 --simulate
fails ./examples/topology_explorer --radix 8 --load 0.5
fails ./examples/topology_explorer --radix 8 --measure 2000
./examples/visualize > /dev/null
./examples/expansion_planner > /dev/null
./examples/expansion_planner --verify > /dev/null
# An odd radix, a radix of 2 and a terminal count below 1 (which
# printed "-nan% wires") must be rejected.  At R = 2 the CFT level
# search used to loop forever: a timeout (status 124) fails the check
# instead of stalling it.
fails ./examples/expansion_planner --radix 7
fails timeout 10 ./examples/expansion_planner --radix 2
for t in 0 -5; do
  fails ./examples/expansion_planner --terminals "$t"
done
rm -f rejected.out rejected.err help.out
