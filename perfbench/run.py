#!/usr/bin/env python3
"""Runs one workload of the NOUS repository benchmark.

    python3 perfbench/run.py --workload stream_build|query_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the NOUS sources
it compiles from src/) into .bench_build/, builds the workload's base
state in a child process, measures in a second process, and prints as
its last stdout line one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a traced run made
after an untraced one so the tracing overhead can be reported. Exits
non-zero if the build, a check or a metric is missing or wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "nous_perfbench")
WORKLOADS = ("stream_build", "query_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("NOUS sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nous_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_binary(args, timeout):
    """Runs the benchmark binary, echoing its output; returns the parsed
    RESULT object. Fails when the binary printed none."""
    proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          timeout=timeout)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if result is None:
        fail(f"{args[0]} exited {proc.returncode} without a result")
    result["exit_code"] = proc.returncode
    return result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace)
    build()
    run_dir = os.path.join(BUILD_ROOT, "runs",
                           f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", run_dir]
    # The base state is built in its own process, so the measuring
    # process's peak RSS and allocator state are its own.
    prep = subprocess.run([BINARY, "prep"] + common, stdout=sys.stdout,
                          stderr=sys.stderr, timeout=120)
    if prep.returncode != 0:
        fail("base-state preparation failed")

    measure = ["measure"] + common + ["--seconds", str(args.seconds),
                                      "--git-sha", git_sha()]
    results = []
    if args.trace:
        results.append(run_binary(measure + ["--trace", "0"], timeout=150))
    results.append(run_binary(measure + ["--trace", str(args.trace)],
                              timeout=150))
    final = results[-1]
    metrics = final["metrics"]
    if args.trace:
        # Tracing overhead: the traced run's headline rate against the
        # untraced run's, same seed and base state.
        headline = "queries_per_s" if args.workload == "query_mix" \
            else "docs_per_s"
        plain = results[0]["metrics"][headline]["value"]
        traced_rate = final["metrics"].get("trace.rate", {}).get("value", 0)
        overhead = 100.0 * (plain - traced_rate) / plain if plain else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    for path in ("base", "work"):
        shutil.rmtree(os.path.join(run_dir, path), ignore_errors=True)

    out = {}
    for metric in expected:
        name = metric["name"]
        if name not in metrics:
            fail(f"metric {name} missing from the {args.workload} run")
        out[name] = {"value": metrics[name]["value"], "unit": metric["unit"]}
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results)
    result = {"correct": correct,
              "attempted": final["attempted"],
              "failed": sum(r["failed"] for r in results),
              "metrics": out}
    print(json.dumps(result))
    sys.exit(0 if correct and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
