#!/usr/bin/env python3
"""Check and summarize the benchmark trajectory files (stdlib only).

    python3 tools/bench_trajectory.py [ROOT]

Loads every BENCH_*.json at the repo root (or ROOT), checks that each
is well formed, and prints the last entry of each file as one table
row: the parent's and the change's median setup_s, run_s, wall_s and
peak_rss_mb with the change's verdicts.

A file is well formed when it holds the top-level keys and, in every
entry, the entry keys below; when every entry records equal digests
and zero failed operations on both sides; and when every recorded
median lies inside its own [q1, q3].  The exit status is 1 on a
malformed file and 0 otherwise: the numbers themselves are reported,
never judged.
"""

import json
import sys
from pathlib import Path

TOP_KEYS = ("workload", "command", "how", "entries")
ENTRY_KEYS = ("description", "parent_commit", "commit", "host", "seeds",
              "pairs", "digests_equal", "failed_ops", "verdicts", "parent",
              "change")
STAT_KEYS = ("median", "q1", "q3", "unit")
END_TO_END = ("setup_s", "run_s", "wall_s", "peak_rss_mb")


def stat_problems(where, stats):
    """Problems of one {metric: {median, q1, q3, unit}} object."""
    if not isinstance(stats, dict):
        return [f"{where} is not an object"]
    problems = []
    for name, st in stats.items():
        missing = [k for k in STAT_KEYS
                   if not isinstance(st, dict) or k not in st]
        if missing:
            problems.append(f"{where}.{name} lacks {missing}")
        elif not st["q1"] <= st["median"] <= st["q3"]:
            problems.append(f"{where}.{name}: median {st['median']} is "
                            f"outside [{st['q1']}, {st['q3']}]")
    return problems


def entry_problems(where, e):
    """Problems of one trajectory entry."""
    missing = [k for k in ENTRY_KEYS if k not in e]
    if missing:
        return [f"{where} lacks {missing}"]
    problems = []
    if e["digests_equal"] is not True:
        problems.append(f"{where}: digests differ between parent and change")
    failed = e["failed_ops"]
    if not isinstance(failed, dict) or any(
            failed.get(side) != 0 for side in ("parent", "change")):
        problems.append(f"{where}: failed_ops {failed} is not zero on "
                        "both sides")
    for side in ("parent", "change"):
        problems += stat_problems(f"{where}.{side}", e[side])
        absent = [m for m in END_TO_END if m not in e[side]]
        if absent:
            problems.append(f"{where}.{side} lacks {absent}")
    absent = [m for m in END_TO_END if m not in e["verdicts"]]
    if absent:
        problems.append(f"{where}.verdicts lacks {absent}")
    layers = e.get("layers_traced")
    if layers is not None:
        for side in ("parent", "change"):
            problems += stat_problems(f"{where}.layers_traced.{side}",
                                      layers.get(side))
    return problems


def file_problems(path, doc):
    if not isinstance(doc, dict):
        return [f"{path.name}: not a JSON object"]
    missing = [k for k in TOP_KEYS if k not in doc]
    if missing:
        return [f"{path.name} lacks {missing}"]
    if not isinstance(doc["entries"], list) or not doc["entries"]:
        return [f"{path.name}: entries is not a non-empty list"]
    problems = []
    for i, e in enumerate(doc["entries"]):
        if not isinstance(e, dict):
            problems.append(f"{path.name} entry {i} is not an object")
        else:
            problems += entry_problems(f"{path.name} entry {i}", e)
    return problems


def row(doc):
    """One table row for the last entry of a well-formed file."""
    e = doc["entries"][-1]
    cells = [doc["workload"], str(e["pairs"])]
    for metric in END_TO_END:
        p, c = e["parent"][metric]["median"], e["change"][metric]["median"]
        delta = 100.0 * (c - p) / p if p else 0.0
        cells.append(f"{p:.4g} -> {c:.4g} ({delta:+.1f}%) "
                     f"{e['verdicts'][metric]}")
    cells.append(e["description"])
    return cells


def main(argv):
    if len(argv) > 2:
        sys.exit("usage: bench_trajectory.py [ROOT]")
    root = Path(argv[1]) if len(argv) == 2 else \
        Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print(f"bench_trajectory.py: no BENCH_*.json under {root}",
              file=sys.stderr)
        return 1
    rows, problems = [], []
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            problems.append(f"{path.name}: {err}")
            continue
        found = file_problems(path, doc)
        problems += found
        if not found:
            rows.append(row(doc))

    header = ["workload", "pairs"] + \
        [f"{m} median parent -> change" for m in END_TO_END] + ["last entry"]
    widths = [max(len(r[k]) for r in rows + [header])
              for k in range(len(header) - 1)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)) +
              "  " + r[-1])
    for p in problems:
        print(f"MALFORMED {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
