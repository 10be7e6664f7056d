#!/usr/bin/env python3
"""Build the rfc_perf binary and run the repo benchmark (stdlib only).

One workload, as BENCHMARK.json declares the command:

    python3 bench/perf/run.py --workload fig8_uniform --seed 1 \
        --seconds 20 --trace 0

Several workloads with a human summary (default: all of them):

    python3 bench/perf/run.py [--workload a,b] [--repeats N] [--seed S]
        [--trace [0|1]] [--quick] [--out FILE]

rfc_perf is built from the checkout's src/ into build-perf/ (CMake,
Release).  Every pass is a fresh rfc_perf process running one workload
once; passes of different workloads are interleaved.  A workload gets
passes for about --seconds, or exactly --repeats passes.

With --trace 0 the metrics are the end-to-end ones: setup_s and run_s
(host time in the set-up calls and in the measured calls), wall_s (the
whole process as seen from here, teardown included) and peak_rss_mb.
run_s and wall_s report the fastest pass, the others the median pass.
With --trace 1 passes alternate traced and untraced; the per-layer
metrics are the medians over the traced passes' spans and counts, and
the tracing overhead (traced minus untraced run_s) is printed.

Each metric is printed by name with its unit as the reported value,
median, quartiles and the number of passes n.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
exit status is 1 on any failed output check, a digest that differs
between passes of one workload and seed, or metric names that differ
from BENCHMARK.json.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PASS_TIMEOUT_S = 150

# glibc raises its mmap threshold after the first large free, so which
# blocks come back to the kernel depends on allocation history: that
# alone moved fig10_scale's peak RSS by 10% between seeds.  Holding the
# threshold at glibc's initial 128 KiB makes peak RSS follow live data;
# the run times moved by less than 1%.  Other C libraries ignore it.
RFC_PERF_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")

# Layers timed by rfc_perf, one span name each; every time metric is
# reported summed over the two networks and split per network.
LAYERS = ("clos.wiring", "routing.oracle", "routing.tables", "sim.layout",
          "sim.ctor", "engine.run", "flow.demand", "flow.paths",
          "flow.solve", "flow.fluid", "queue.sweep")
NETS = ("cft", "rfc")

# Work counts rfc_perf reports (summed over both networks) -> unit.
COUNTS = {
    "clos.rfc_attempts": "count",
    "routing.oracle_bytes": "bytes",
    "routing.tables_bytes": "bytes",
    "routing.tables_unique_sets": "count",
    "engine.cycles": "cycles",
    "engine.forwards": "count",
    "engine.switch_scans": "count",
    "engine.arb_conflicts": "count",
    "engine.credit_stalls": "count",
    "workload.msgs_delivered": "count",
    "workload.rpcs_completed": "count",
    "flow.paths": "count",
    "flow.phases": "count",
}


def _div(a, b):
    return a / b if b else 0.0


# Ratios of counts and layer times (v holds both; times as "<layer>_s").
# routing.tables_entries, flow.path_phases (paths x phases per network)
# and queue.path_loads (paths x loads) are rfc_perf counts kept only as
# denominators here.
RATIOS = {
    "routing.tables_entries_per_s": (
        "1/s", lambda v: _div(v["routing.tables_entries"],
                              v["routing.tables_s"])),
    "engine.ns_per_forward": (
        "ns", lambda v: 1e9 * _div(v["engine.run_s"], v["engine.forwards"])),
    "engine.cycles_per_s": (
        "cycles/s", lambda v: _div(v["engine.cycles"], v["engine.run_s"])),
    "engine.forwards_per_scan": (
        "ratio", lambda v: _div(v["engine.forwards"],
                                v["engine.switch_scans"])),
    "engine.conflict_ratio": (
        "ratio", lambda v: _div(v["engine.arb_conflicts"],
                                v["engine.arb_conflicts"] +
                                v["engine.forwards"])),
    "engine.stalls_per_forward": (
        "ratio", lambda v: _div(v["engine.credit_stalls"],
                                v["engine.forwards"])),
    "workload.ns_per_message": (
        "ns", lambda v: 1e9 * _div(v["engine.run_s"],
                                   v["workload.msgs_delivered"])),
    "flow.ns_per_path": (
        "ns", lambda v: 1e9 * _div(v["flow.paths_s"], v["flow.paths"])),
    "flow.ns_per_path_phase": (
        "ns", lambda v: 1e9 * _div(v["flow.solve_s"], v["flow.path_phases"])),
    "queue.ns_per_path_load": (
        "ns", lambda v: 1e9 * _div(v["queue.sweep_s"],
                                   v["queue.path_loads"])),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "wall_s": "s",
                    "peak_rss_mb": "MiB"}

# How a run reports each end-to-end metric from its passes.  Every pass
# of one workload and seed does the same work (the digest checks it),
# so only the host can make a pass slower; and a shared host can slow
# this memory-bound code by up to 2x, for seconds to over a minute at a
# time.  In 28 s windows of a noisy stretch the fastest pass varied
# half as much from window to window as the median pass did, so the
# measured-call times report the fastest pass.  Set-up reports the
# median of the passes' set-ups, and peak RSS, which the host does not
# move, the median too.
END_TO_END_REDUCE = {"setup_s": ("median", statistics.median),
                     "run_s": ("min", min), "wall_s": ("min", min),
                     "peak_rss_mb": ("median", statistics.median)}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_declaration():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build rfc_perf; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    bdir = ROOT / "build-perf"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "--target", "rfc_perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir / "rfc_perf"


def run_pass(binary, workload, seed, quick, trace_file):
    """One rfc_perf process; returns its JSON document plus wall_s."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=PASS_TIMEOUT_S, env=RFC_PERF_ENV)
    except subprocess.TimeoutExpired:
        return None, f"{workload}: pass timed out after {PASS_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        return None, f"{workload}: rfc_perf exited {proc.returncode} " \
                     "without a result"
    doc["wall_s"] = wall
    if trace_file:
        with open(trace_file) as f:
            doc["spans"] = json.load(f)["traceEvents"]
    return doc, None


def self_times(spans):
    """Per (name, net, phase): span duration minus its children's, in s."""
    child = {}
    for e in spans:
        p = e["args"]["parent"]
        child[p] = child.get(p, 0.0) + e["dur"]
    out = {}
    for e in spans:
        a = e["args"]
        key = (e["name"], a["net"], a["phase"])
        out[key] = out.get(key, 0.0) + \
            (e["dur"] - child.get(a["id"], 0.0)) / 1e6
    return out


def layer_metrics(doc):
    """Per-layer metric values of one traced pass."""
    st = self_times(doc["spans"])
    # Counts a workload never produces (its layer is not called) read 0.
    counts = collections.defaultdict(float, doc["counts"])
    v = {}
    for layer in LAYERS:
        for net in NETS:
            v[f"{layer}_s.{net}"] = sum(
                s for (n, nt, _), s in st.items() if n == layer and nt == net)
        v[f"{layer}_s"] = sum(v[f"{layer}_s.{net}"] for net in NETS)
    for name in COUNTS:
        v[name] = counts[name]
    counts.update(v)
    for name, (_, fn) in RATIOS.items():
        v[name] = fn(counts)
    return v


def trace_coverage(doc):
    """Attributed layer self time / (setup_s + run_s) of a traced pass."""
    st = self_times(doc["spans"])
    attributed = sum(s for (_, _, ph), s in st.items()
                     if ph in ("setup", "run"))
    return _div(attributed, doc["setup_s"] + doc["run_s"])


def layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}_s"] = "s"
        for net in NETS:
            units[f"{layer}_s.{net}"] = "s"
    units.update(COUNTS)
    units.update({name: unit for name, (unit, _) in RATIOS.items()})
    return units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(workload, seed, docs, errors, trace, declared):
    """Aggregate one workload's passes into its result object."""
    attempted = sum(d["ops_total"] for d in docs) + len(errors)
    failed = sum(d["ops_failed"] for d in docs) + len(errors)
    problems = list(errors)
    for d in docs:
        problems += [f"{workload}: {f}" for f in d["failures"]]
    digests = sorted({d["digest"] for d in docs})
    if len(digests) > 1:
        failed += 1
        attempted += 1
        problems.append(f"{workload} seed {seed}: passes disagree on the "
                        f"digest ({', '.join(digests)})")

    samples = {}
    if trace:
        units = layer_units()
        traced = [d for d in docs if "spans" in d]
        for d in traced:
            attempted += 1
            cov = trace_coverage(d)
            if abs(cov - 1.0) > 0.05:
                failed += 1
                problems.append(f"{workload}: layer self times cover "
                                f"{cov:.3f} of setup_s + run_s")
            for name, val in layer_metrics(d).items():
                samples.setdefault(name, []).append(val)
        plain = [d["run_s"] for d in docs if "spans" not in d]
        if traced and plain:
            overhead = statistics.median(d["run_s"] for d in traced) - \
                statistics.median(plain)
            print(f"# {workload}: tracing overhead {overhead:+.4f} s run_s "
                  f"(traced n={len(traced)}, untraced n={len(plain)})")
    else:
        units = END_TO_END_UNITS
        for d in docs:
            for name in units:
                samples.setdefault(name, []).append(d[name])

    if docs and set(units) != set(declared):
        fail("metric names differ from BENCHMARK.json: "
             f"only here {sorted(set(units) - set(declared))}, "
             f"only declared {sorted(set(declared) - set(units))}")
    metrics = {}
    for name in sorted(samples):
        vals = samples[name]
        how, reduce = END_TO_END_REDUCE.get(name, ("median",
                                                   statistics.median))
        q1, q3 = quartiles(vals)
        metrics[name] = {"value": reduce(vals), "unit": units[name]}
        print(f"{workload:24s} {name:36s} {reduce(vals):14.6g} "
              f"{units[name]:9s} {how:6s} median {statistics.median(vals):12.6g}"
              f" q1 {q1:12.6g} q3 {q3:12.6g} n {len(vals)}")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "digest": digests[0] if len(digests) == 1 else None,
            "correct": failed == 0 and bool(docs),
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main():
    decl = load_declaration()
    all_workloads = [w["name"] for w in decl["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default=",".join(all_workloads),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=decl["run_seconds"],
                    help="run time per workload (default: run_seconds)")
    ap.add_argument("--repeats", type=int,
                    help="exactly this many passes per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="radix-8 networks, about a second per workload")
    ap.add_argument("--binary", help="use this rfc_perf, skip the build")
    ap.add_argument("--out", help="append one JSON line per workload here")
    args = ap.parse_args()

    workloads = [w for w in args.workload.split(",") if w]
    unknown = [w for w in workloads if w not in all_workloads]
    if unknown or not workloads:
        fail(f"unknown workload(s) {unknown}; known: {all_workloads}")
    if args.seed < 0 or (args.repeats is not None and args.repeats < 1):
        fail("--seed must be >= 0 and --repeats >= 1")

    binary = Path(args.binary).resolve() if args.binary else build()
    trace_dir = binary.parent / "traces"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)
    declared = [m["name"] for m in
                decl["per_layer" if args.trace else "end_to_end"]]

    docs = {w: [] for w in workloads}
    errors = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}

    def wants_more(w):
        n = len(docs[w]) + len(errors[w])
        if args.repeats is not None:
            return n < args.repeats
        # Start another pass only if it ends nearer to --seconds than
        # stopping now does, so a run keeps to its time give or take
        # half a pass.
        return n == 0 or spent[w] + spent[w] / n / 2 < args.seconds

    while any(wants_more(w) for w in workloads):
        for w in workloads:
            if not wants_more(w):
                continue
            k = len(docs[w]) + len(errors[w])
            # Under --trace, even passes are traced and odd ones are not,
            # which measures the tracing overhead.
            trace_file = (trace_dir / f"{w}-{args.seed}-{k}.json"
                          if args.trace and k % 2 == 0 else None)
            t0 = time.perf_counter()
            doc, err = run_pass(binary, w, args.seed, args.quick, trace_file)
            spent[w] += time.perf_counter() - t0
            if err:
                errors[w].append(err)
            else:
                docs[w].append(doc)

    print(f"{'workload':24s} {'metric':36s} {'value':>14s} unit")
    results = [summarize(w, args.seed, docs[w], errors[w], args.trace,
                         declared) for w in workloads]
    if args.out:
        with open(args.out, "a") as f:
            for r in results:
                f.write(json.dumps(r) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{n}": m for r in results
                   for n, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
