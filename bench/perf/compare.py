#!/usr/bin/env python3
"""Compare two benchmark result sets, parent against change (stdlib only).

    python3 bench/perf/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines `run.py --out FILE` appends: one per workload
per run.  Run the two commits alternately (parent, change, parent, ...)
with identical settings, so that the i-th parent line and the i-th
change line of a workload form pair i.

For every (end-to-end metric, workload) one verdict is printed:

  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  improved    at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), and the medians differ by
              more than the parent's interquartile range;
  unresolved  the parent's own interquartile range exceeds the bound and
              not every change run beats every parent run, or the gain
              rule holds on fewer than 10 pairs;
  unchanged   otherwise.

Per-layer metrics have no bound: they are judged by the gain rule alone,
in either direction.  The share of failed operations and the output
digest are compared per workload.  Exit status 1 on any end-to-end
regression or a higher failed share in the change.
"""

import json
import statistics
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound):
    """Verdict for one metric; bound None = per-layer (gain rule only)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    gap = sign * (mc - mp)  # > 0: the change is better

    def rule(won):
        return won >= WIN_SHARE * len(pairs) and abs(gap) > spread

    if bound is None:
        if len(pairs) >= MIN_PAIRS and rule(wins) and gap > 0:
            return "improved"
        if len(pairs) >= MIN_PAIRS and rule(losses) and gap < 0:
            return "regressed"
        return "unchanged"
    if mp and -gap / abs(mp) > bound:
        return "regressed"
    if gap > 0 and rule(wins):
        return "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if mp and spread / abs(mp) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    decl = json.loads(DECLARATION.read_text())
    specs = {m["name"]: m for m in decl["end_to_end"]}
    specs.update({m["name"]: dict(m, bound=None) for m in decl["per_layer"]})
    parent, change = load(argv[1]), load(argv[2])

    bad = False
    print(f"{'workload':24s} {'metric':36s} {'parent':>12s} {'change':>12s}"
          f" {'pairs':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        pr, cr = parent[key], change[key]
        for name in sorted(set(pr[0]["metrics"]) & set(cr[0]["metrics"])):
            if name not in specs:
                continue
            pv = [r["metrics"][name]["value"] for r in pr]
            cv = [r["metrics"][name]["value"] for r in cr]
            s = specs[name]
            v = verdict(pv, cv, s["better"], s["bound"])
            bad = bad or (v == "regressed" and s["bound"] is not None)
            print(f"{workload:24s} {name:36s} {statistics.median(pv):12.6g}"
                  f" {statistics.median(cv):12.6g}"
                  f" {min(len(pv), len(cv)):5d}  {v}")

    for workload in sorted({w for w, _ in set(parent) | set(change)}):
        share = {}
        digests = {}
        for side, runs in (("parent", parent), ("change", change)):
            rs = [r for (w, _), lst in runs.items() if w == workload
                  for r in lst]
            attempted = sum(r["attempted"] for r in rs)
            share[side] = sum(r["failed"] for r in rs) / max(attempted, 1)
            digests[side] = {(r["seed"], r["digest"]) for r in rs}
        worse = share["change"] > share["parent"]
        bad = bad or worse
        print(f"{workload:24s} failed share parent {share['parent']:.4g} "
              f"change {share['change']:.4g}"
              f"{'  MORE FAILURES' if worse else ''}; digest "
              f"{'same' if digests['parent'] == digests['change'] else 'CHANGED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
