#!/usr/bin/env python3
"""Compare runs of the repository benchmark offline.

    python3 perfbench/compare.py OLD [NEW]

OLD and NEW are files or directories (searched recursively) holding the
standard output of perfbench/run.py, typically the runs of a parent
commit and of a change, one file per run. Every `perfbench-record` line
found is one run.

For every workload and end-to-end metric (from --trace 0 runs) it prints
one row with each side's median and quartiles, as
statistics.quantiles(values, n=4) gives them, and the change of the
medians. A metric whose spread, the quartile distance as a share of the
median, exceeds its bound in BENCHMARK.json on either side is labelled
`unresolved` unless every NEW run reads better than every OLD run. Then
it prints the per-layer deltas (from --trace 1 runs) for every metric
either side measured. With one side only it prints that side's medians,
quartiles and spreads, which is how the benchmark's own steadiness is
checked.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
PREFIX = "perfbench-record "


def load(path):
    root = Path(path)
    if not root.exists():
        sys.exit(f"compare: {path} does not exist")
    files = [root] if root.is_file() else sorted(
        f for f in root.rglob("*") if f.is_file())
    runs = []
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith(PREFIX):
                runs.append(json.loads(line[len(PREFIX):]))
    if not runs:
        sys.exit(f"compare: no {PREFIX.strip()} lines under {path}")
    return runs


def values(runs, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def show(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(metric, old, new):
    bound, lower = metric["bound"], metric["better"] == "lower"
    if new is None:
        s = spread(old)
        return (f"spread {s:.3f}: " +
                ("steady" if s <= bound / 3 else
                 "within bound" if s <= bound else "unresolved"))
    better_all = (max(new) < min(old)) if lower else (min(new) > max(old))
    old_med, new_med = statistics.median(old), statistics.median(new)
    worse = (new_med - old_med) / abs(old_med) if old_med else 0.0
    worse = worse if lower else -worse
    if better_all:
        return f"better by {-worse:.1%} (every run)"
    if metric["name"] != "setup_s" and max(spread(old), spread(new)) > bound:
        return "unresolved"
    if worse > bound:
        return f"REGRESSION {worse:.1%} > bound {bound:.0%}"
    if -worse > spread(old):
        return f"better by {-worse:.1%}"
    return f"same ({-worse:+.1%})"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    old = load(sys.argv[1])
    new = load(sys.argv[2]) if len(sys.argv) == 3 else None
    sides = [("OLD", old)] + ([("NEW", new)] if new else [])
    for label, runs in sides:
        by_workload = defaultdict(list)
        for r in runs:
            by_workload[r["workload"]].append(r)
        for workload, rs in sorted(by_workload.items()):
            failed = sum(r["failed"] for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            hosts = {json.dumps(r["host"], sort_keys=True) for r in rs}
            print(f"{label} {workload}: {len(rs)} runs, seeds "
                  f"{sorted({r['seed'] for r in rs})}, failed "
                  f"{failed}/{attempted}, host {' | '.join(sorted(hosts))}")
    print()

    workloads = [w["name"] for w in SPEC["workloads"]]
    print(f"{'workload':14s} {'metric':18s} {'OLD median [q1, q3]':30s} "
          + (f"{'NEW median [q1, q3]':30s} " if new else "") + "verdict")
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            o = values(old, workload, 0, metric["name"])
            n = values(new, workload, 0, metric["name"]) if new else None
            if not o or (new and not n):
                continue
            print(f"{workload:14s} {metric['name']:18s} {show(o):30s} "
                  + (f"{show(n):30s} " if new else "")
                  + verdict(metric, o, n))

    print()
    print(f"{'workload':14s} {'per-layer metric':38s} "
          f"{'OLD median [q1, q3]':34s}"
          + (f" {'NEW median [q1, q3]':34s} change" if new else ""))
    for workload in workloads:
        for metric in SPEC["per_layer"]:
            o = values(old, workload, 1, metric["name"])
            n = values(new, workload, 1, metric["name"]) if new else []
            if not o and not n:
                continue
            row = (f"{workload:14s} {metric['name']:38s} "
                   f"{show(o) if o else '-':34s}")
            if new:
                row += f" {show(n) if n else '-':34s}"
                om = statistics.median(o) if o else 0
                if om and n:
                    row += f" {(statistics.median(n) - om) / abs(om):+.1%}"
            print(row + f" {metric['unit']}")


if __name__ == "__main__":
    main()
