#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rca_explain --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (the engine's sources plus the
benchmark's own) into .bench_build/perfbench with a Release build,
builds the `perfbench` binary, runs one workload in one process and
passes its output through. The binary's last line names metrics without
units; this script gives each the unit BENCHMARK.json lists for it (a
per-layer metric the workload does not exercise reads 0) and prints the
result JSON as the last stdout line. Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("rca_explain", "dashboard_select", "monitor_ingest")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(root, "src"))
    ):
        print("perfbench: no engine sources next to the benchmark", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    done = subprocess.run(
        [
            os.path.join(build, "perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        return done.returncode or 1
    result = json.loads(lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    metrics = {}
    for m in listed:
        if m["name"] not in values and not args.trace:
            print(f"perfbench: no value for {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values.pop(m["name"], 0.0),
                              "unit": m["unit"]}
    if values:
        print(f"perfbench: unlisted metrics {sorted(values)}", file=sys.stderr)
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
