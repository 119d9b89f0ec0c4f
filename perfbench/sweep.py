#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --out .bench_build/runs.jsonl
    python3 perfbench/sweep.py --workloads serve_mix --seeds 1-5 --trace 1

Each run is one process, `BENCHMARK.json`'s command plus
`--workload W --seed S --seconds <run_seconds> --trace T`. Every result line is
appended to --out as {"workload", "seed", "trace", "result"}. The summary
gives, per workload and metric, the median and the quartile spread
(Q3 - Q1) / median, computed with statistics.quantiles(values, n=4), next
to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers: {lines[-1]}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarise(spec, runs, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0.0
    for w in spec["workloads"]:
        rows = [r["result"] for r in runs if r["workload"] == w["name"]]
        if len(rows) < 2:
            continue
        print(f"\n{w['name']} ({len(rows)} runs)")
        for name in sorted(rows[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rows]
            unit = rows[0]["metrics"][name]["unit"]
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name) if not trace else None
            flag = ""
            if bound is not None:
                worst = max(worst, s / bound)
                flag = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER BOUND")
            b = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:30s} median {med:14.6g} {unit:10s} spread {s:7.4f}  {b:11s} {flag}")
    if not trace:
        print(f"\nlargest spread / bound: {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="append every run's result here (JSON lines)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            res = run_once(spec, name, seed, args.trace)
            rec = {"workload": name, "seed": seed, "trace": args.trace, "result": res}
            runs.append(rec)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
    summarise(spec, runs, args.trace)


if __name__ == "__main__":
    main()
