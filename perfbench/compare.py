#!/usr/bin/env python3
"""Compares benchmark runs written by `perfbench/run.py --out FILE`.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Prints, per metric, each side's median and quartiles and the change of the
medians. Refuses (exit 2) to compare runs of different shapes: another
workload or trace mode, CPU count, build type, compiler or sanitizer set.
"""

import argparse
import json
import statistics
import sys

SHAPE = ("nproc", "build_type", "compiler", "sanitizers")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        records += data if isinstance(data, list) else [data]
    return records


def shape(record):
    stamp = record.get("stamp") or {}
    return (record.get("workload"), record.get("trace")) + tuple(
        stamp.get(key) for key in SHAPE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    shapes = {shape(r) for r in base + new}
    if len(shapes) != 1:
        print("refusing to compare runs of different shapes:", file=sys.stderr)
        for s in sorted(shapes, key=str):
            print("  workload=%s trace=%s nproc=%s build=%s compiler=%s "
                  "sanitizers=%s" % s, file=sys.stderr)
        sys.exit(2)
    if any(r.get("result") is None for r in base + new):
        print("a run has no result line", file=sys.stderr)
        sys.exit(2)
    names = sorted(base[0]["result"]["metrics"])
    print(f"{'metric':30} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32}"
          f" {'change':>8}")
    for name in names:
        sides = []
        for runs in (base, new):
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if name in r["result"]["metrics"]]
            sides.append(quartiles(values))
        (b1, b2, b3), (n1, n2, n3) = sides
        change = (n2 / b2 - 1) * 100 if b2 else float("nan")
        unit = base[0]["result"]["metrics"][name]["unit"]
        print(f"{name:30} {b2:12.5g} [{b1:.5g}, {b3:.5g}] {n2:12.5g} "
              f"[{n1:.5g}, {n3:.5g}] {change:+7.1f}% {unit}")


if __name__ == "__main__":
    main()
