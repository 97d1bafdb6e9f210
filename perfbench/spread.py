#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads verify_tcp,kgc_churn] [--trace 0]

For every workload and metric: the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile distance
as a share of the median next to the metric's bound from BENCHMARK.json
("steady" when it is below a third of the bound). Also checks that the share
of failed operations is identical in every run of a workload. Run from the
root of a source tree; each run goes through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(last)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            ok &= result["correct"]
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f}  " + ("steady" if spread < bound / 3 else
                                                     "within" if spread <= bound else "TOO WIDE")
            print(f"  {workload:12s} {name:28s} median {med:14.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
