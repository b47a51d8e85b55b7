#!/usr/bin/env python3
"""Compares two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files perfbench/run.py writes to
--results-dir (<workload>-seed<n>.json, and -trace.json for traced
runs), one per run. For every (metric, workload) pair present in both
sets the tool prints each side's median and quartiles and a verdict under
the bounds in BENCHMARK.json:

  better      the new median is better by more than the bound, or the
              spread is wider than the bound but every new run beats
              every base run;
  worse       the new median is worse by more than the bound;
  unchanged   the medians differ by no more than the bound;
  unresolved  the spread between runs of either side (interquartile
              range over median) is wider than the bound.

Per-layer metrics have no bound; they are listed with their medians and
quartiles and the verdict "-". Exits 1 when any pair is worse.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, metric): [values]} over every result file."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        workload = record["env"]["workload"]
        for name, m in record["result"]["metrics"].items():
            out.setdefault((workload, name), []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    if bound is None:
        return "-"
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if all_better else "unresolved"
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    worse = 0
    print("%-14s %-34s %31s %31s  %s" % ("workload", "metric",
                                         "base q1/median/q3",
                                         "new q1/median/q3", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        d = defs.get(name)
        if d is None:
            continue
        v = verdict(base[key], new[key], d["better"], d.get("bound"))
        worse += v == "worse"
        fmt = lambda q: "%9.4g/%9.4g/%9.4g" % q
        print("%-14s %-34s %31s %31s  %s" % (workload, name,
                                             fmt(quartiles(base[key])),
                                             fmt(quartiles(new[key])), v))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
