#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Run it from the repository root; it reads the bounds from BENCHMARK.json.
Each file holds the JSON lines perfbench/sweep.py --out writes; the first
set is the baseline (the parent commit), the second the change. Runs are
paired by seed. Run the pairs alternately (parent, change, change,
parent, ...): two sets run one after the other carry the machine's drift
between them, and "better" then reflects the drift, not the change. For every workload x metric the report gives each side's
median and quartiles (statistics.quantiles(values, n=4)) and a verdict:

  better      the change wins at least nine tenths of the pairs (ties
              count for neither) and the medians differ by more than the
              baseline's own quartile spread
  worse       the change's median is worse than the baseline's by more
              than the metric's bound in BENCHMARK.json
  unresolved  the baseline's quartile spread, as a share of its median, is
              wider than the bound, and not every run of the change reads
              better than every run of the baseline
  same        none of the above

Per-layer metrics (traced runs) have no bound; they get better/same only.
Exit status is 1 when any end-to-end metric is worse.
"""

import argparse
import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]["metrics"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """base/change: paired value lists; better: "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if wins >= 0.9 * len(base) and abs(cmed - bmed) > (bq3 - bq1):
        return "better"
    if bound is None:
        return "same"
    if sign * (bmed - cmed) > bound * abs(bmed):
        return "worse"
    if bmed and (bq3 - bq1) / abs(bmed) > bound:
        if not all(sign * (c - b) > 0 for b in base for c in change):
            return "unresolved"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("change")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    info = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.baseline), load(args.change)
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        seeds = sorted(set(base.get(name, {})) & set(change.get(name, {})))
        if not seeds:
            continue
        print(f"\n{name} ({len(seeds)} paired runs)")
        print(f"  {'metric':30s} {'baseline median [q1, q3]':>40s} {'change median [q1, q3]':>40s}  verdict")
        for metric in sorted(base[name][seeds[0]]):
            if metric not in info or metric not in change[name][seeds[0]]:
                continue
            better, bound = info[metric]
            b = [base[name][s][metric]["value"] for s in seeds]
            c = [change[name][s][metric]["value"] for s in seeds]
            v = verdict(b, c, better, bound)
            worse |= v == "worse"
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            print(f"  {metric:30s} {bmed:14.6g} [{bq1:11.6g}, {bq3:11.6g}] {cmed:14.6g} [{cq1:11.6g}, {cq3:11.6g}]  {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
