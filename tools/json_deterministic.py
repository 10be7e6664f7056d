#!/usr/bin/env python3
"""Print the deterministic part of a bench JSON document.

Every run-dependent value a bench document carries (jobs, wall clock,
peak RSS, per-point seconds, cycles per second) lives inside an object
named "timing".  This filter deletes every "timing" key at any depth and
re-dumps the rest, so two runs that must agree bit for bit (e.g. at
--jobs 1 and --jobs 4) can be compared with diff:

    diff <(tools/json_deterministic.py a.json) \\
         <(tools/json_deterministic.py b.json)

Reads the file named on the command line, or stdin.  Exits nonzero if
the input is not exactly one JSON document.  Standard library only.
"""
import json
import sys


def strip_timing(value):
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def main():
    if len(sys.argv) > 2:
        sys.exit("usage: json_deterministic.py [FILE]")
    source = open(sys.argv[1]) if len(sys.argv) == 2 else sys.stdin
    with source:
        document = json.load(source)
    json.dump(strip_timing(document), sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
