#!/usr/bin/env python3
"""Compares two sets of perfbench result files.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories of result files written by run.py (--out),
e.g. one per commit, each holding runs of the same workloads and seeds.
Untraced results (trace 0) are compared per workload and end-to-end
metric. Runs of the same seed on both sides form a pair.

For each metric bounded in BENCHMARK.json the verdict is:
  improved   at least ten pairs, the new side wins at least 9 in 10 of
             them (ties count for neither), and the medians differ by more
             than the base side's interquartile range;
  unresolved either side's interquartile range exceeds the bound (as a
             share of the base median), unless every new run beats every
             base run;
  regressed  the new median is worse than the base median by more than
             the bound;
  no worse   otherwise.
sim_* metrics and the per-input digests are deterministic for a seed: they
are reported as identical or differs. error_rate regresses if it rises.
Exits 1 when any metric regressed or any sim_* metric or digest differs.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}  # workload -> seed -> doc
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if doc.get("trace") != 0:
            continue
        runs.setdefault(doc["workload"], {})[int(doc["seed"])] = doc
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, pairs, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    scale = abs(bmed) or 1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (bmed - nmed) > bq3 - bq1):
        return "improved"
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(bq3 - bq1, nq3 - nq1) / scale > bound and not all_better:
        return "unresolved"
    if sign * (nmed - bmed) / scale > bound:
        return "regressed"
    return "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="benchmark definition holding the bounds")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base_runs, new_runs = load(args.base), load(args.new)

    bad = False
    for workload in sorted(set(base_runs) & set(new_runs)):
        b_docs, n_docs = base_runs[workload], new_runs[workload]
        seeds = sorted(set(b_docs) & set(n_docs))
        print(f"{workload}: {len(b_docs)} base runs, {len(n_docs)} new runs, "
              f"{len(seeds)} paired seeds")
        print(f"  {'metric':<18} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34}  verdict")
        names = sorted(set.intersection(*(set(d["end_to_end"]) for d in
                                          list(b_docs.values()) + list(n_docs.values()))))
        for name in names:
            base = [b_docs[s]["end_to_end"][name]["value"] for s in sorted(b_docs)]
            new = [n_docs[s]["end_to_end"][name]["value"] for s in sorted(n_docs)]
            pairs = [(b_docs[s]["end_to_end"][name]["value"],
                      n_docs[s]["end_to_end"][name]["value"]) for s in seeds]
            if name.startswith("sim_"):
                v = "identical" if all(b == n for b, n in pairs) else "differs"
                bad |= v == "differs"
            elif name in bounds:
                v = verdict(base, new, pairs, bounds[name]["bound"], bounds[name]["better"])
                v += f" (bound {bounds[name]['bound']:g})"
                bad |= v.startswith("regressed")
            else:
                v = "regressed" if statistics.median(new) > statistics.median(base) else "no worse"
                bad |= v == "regressed"
            bq, nq = quartiles(base), quartiles(new)
            print(f"  {name:<18} {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{'':>2} {nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {v}")
        same = all(b_docs[s]["digests"] == n_docs[s]["digests"] for s in seeds)
        print(f"  digests: {'identical' if same else 'DIFFER'} on {len(seeds)} paired seeds")
        bad |= not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
