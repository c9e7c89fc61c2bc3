#!/usr/bin/env python3
"""Compares two sets of perfbench result lines metric by metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl   # from the root

Each file holds the last stdout line of several runs of one workload and
mode (one JSON object per line), in run order; line i of both files should
come from the same seed.  For every metric the table shows both medians,
the change, the parent's own spread (interquartile range over median) and
how many seed pairs the change wins.  README.md says how to read it.
"""

import json
import sys

from run import median, spread


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    print("%-40s %12s %12s %8s %8s %6s" % ("metric", "parent", "change",
                                          "delta", "spread", "wins"))
    for name in parent[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        lower = better[name] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        base = median(a)
        delta = (median(b) - base) / base if base else 0.0
        print("%-40s %12.6g %12.6g %+7.1f%% %7.1f%% %3d/%-3d" % (
            name, base, median(b), 100 * delta, 100 * spread(a), wins,
            min(len(a), len(b))))
    failed = [sum(r["failed"] for r in runs) for runs in (parent, change)]
    print("failed operations: parent %d, change %d" % tuple(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
