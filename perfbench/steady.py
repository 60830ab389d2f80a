#!/usr/bin/env python3
"""Steadiness check: repeats one workload with different seeds and
reports each metric's median and quartiles.

    python3 perfbench/steady.py --workload query_mix --runs 10 [--seed 1]
        [--seconds S] [--trace 0|1] [--logs DIR]

Seeds are --seed, --seed+1, ... The spread of a metric is
(q3 - q1) / median with quartiles from statistics.quantiles(n=4). A
metric is flagged SPREAD when its spread exceeds its bound in
BENCHMARK.json, and TIGHT when it exceeds a third of it (the margin
the benchmark aims to keep). Per-layer metrics have no bound and are
only listed.
With --logs, each run's full output is kept in DIR/<workload>-<seed>.log.
Exits 1 if any run fails or any bounded metric is flagged SPREAD.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--logs", help="directory to keep each run's output")
    args = parser.parse_args()
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["per_layer" if args.trace else "end_to_end"]

    values = {m["name"]: [] for m in defs}
    failures = 0
    for i in range(args.runs):
        seed = args.seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if args.logs:
            with open(os.path.join(args.logs,
                                   f"{args.workload}-{seed}.log"), "w") as f:
                f.write(proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failures += 1
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            sys.stderr.write(proc.stderr[-2000:])
            continue
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    flagged = 0
    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in defs:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "SPREAD"
                flagged += 1
            elif spread > bound / 3:
                flag = "TIGHT"
        print(f"{m['name']:36} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound if bound is not None else '-':>6} "
              f"{flag}")
    sys.exit(1 if failures or flagged else 0)


if __name__ == "__main__":
    main()
