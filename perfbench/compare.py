#!/usr/bin/env python3
"""Compare two sets of perfbench result files.

Usage:
  python3 perfbench/compare.py BASE CHANGE [--all]

BASE and CHANGE are result files or directories searched recursively for
them (run.py writes <out>/results/<workload>/seed-<n>.trace-<t>.json): the
parent commit against the change, or two runs of the same code. For every
workload x metric present on both sides it prints each side's median and
quartiles, the change's relative move (positive = worse), the metric's bound
and a verdict:

  unresolved  either side's run-to-run quartile spread is wider than the bound,
              and not every change run beats every base run
  win         better in >= 9/10 of the run pairs (runs paired by seed; every
              cross pair when no seed is shared) and by more than the base's
              own quartile spread
  regress     the change's median is worse than the base's by more than the bound
  same        within the bound
  info        per-layer metric: no bound, reported only

By default only end-to-end metrics are compared; --all adds the per-layer
ones as info rows. Exit status: 0 when nothing regressed and nothing is
unresolved, 1 when anything regressed, 2 when something is unresolved but
nothing regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402

WIN_SHARE = 0.9


def load(paths):
    """{(workload, metric): {seed: value}} from result files and directories."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += glob.glob(os.path.join(p, "**", "*.json"), recursive=True)
        else:
            files.append(p)
    out = defaultdict(dict)
    for f in sorted(files):
        with open(f) as fh:
            doc = json.load(fh)
        if "metrics" not in doc or "workload" not in doc:
            continue
        for name, m in doc["metrics"].items():
            out[(doc["workload"], name)][doc["seed"]] = m["value"]
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel_spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base, change, better):
    """Relative move of `change` against `base`; positive means worse."""
    if base == 0:
        return 0.0
    move = (change - base) / abs(base)
    return move if better == "lower" else -move


def verdict(base, change, better, bound):
    """Verdict of one metric: base/change map seed -> value."""
    if bound is None:
        return "info"
    b, c = list(base.values()), list(change.values())
    worse = worse_by(quartiles(b)[1], quartiles(c)[1], better)
    if max(rel_spread(b), rel_spread(c)) > bound:
        every_better = all(worse_by(x, y, better) < 0 for x in b for y in c)
        return "win" if every_better else "unresolved"
    seeds = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in seeds] or [(x, y) for x in b for y in c]
    wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
    if wins >= WIN_SHARE * len(pairs) and -worse > rel_spread(b):
        return "win"
    return "regress" if worse > bound else "same"


def compare(base, change, include_per_layer=False):
    """Rows of (workload, metric, base values, change values, worse_by, bound, verdict)."""
    rows = []
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        spec = summary.METRICS.get(metric)
        if spec is None or (spec["bound"] is None and not include_per_layer):
            continue
        b, c = base[key], change[key]
        worse = worse_by(quartiles(list(b.values()))[1], quartiles(list(c.values()))[1],
                         spec["better"])
        rows.append((workload, metric, b, c, worse, spec["bound"],
                     verdict(b, c, spec["better"], spec["bound"])))
    return rows


def fmt(values):
    q1, med, q3 = quartiles(list(values.values()))
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main():
    ap = argparse.ArgumentParser(description="Compare two sets of perfbench results.")
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--all", action="store_true", help="also list per-layer metrics")
    args = ap.parse_args()
    rows = compare(load([args.base]), load([args.change]), args.all)
    if not rows:
        print("no workload x metric present on both sides")
        return 2
    print(f"{'workload':24s} {'metric':34s} {'base median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'worse':>8s} {'bound':>6s}  verdict")
    for wl, metric, b, c, worse, bound, v in rows:
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"{wl:24s} {metric:34s} {fmt(b):36s} {fmt(c):36s} {worse:+8.3f} {bound_s:>6s}  {v}")
    verdicts = {r[-1] for r in rows}
    if "regress" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
