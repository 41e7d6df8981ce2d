#!/usr/bin/env python3
"""Spread report: run perfbench repeatedly and summarize each metric.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads serve-mix] [--trace 1]

Run i uses seed i (1, 2, ...) and lasts BENCHMARK.json's run_seconds unless
--seconds says otherwise. For every metric of every workload the report
gives the sample count, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share of
the median, next to the metric's bound from BENCHMARK.json. A run whose result is not correct is reported and
makes the script exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = i + 1
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: NOT CORRECT "
                      f"({result['failed']} of {result['attempted']} failed)",
                      file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':30} {'n':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
            print(f"  {name:30} {len(vals):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
