#!/usr/bin/env python3
"""Exact-count determinism test of the repository benchmark.

Runs each workload twice at one seed, traced and untraced, and fails
unless both runs report identical exact counts. Timings are not compared.

Usage, from the root of a checkout:

    python3 perfbench/test_determinism.py [--seed N] [--workload NAME]
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rca_explain", "dashboard_select", "monitor_ingest")
EXACT = {
    1: ("tsdb.points_decoded", "tsdb.rollup_points", "tsdb.seals",
        "rank.hypotheses", "server.reply_bytes"),
    0: ("bytes_per_point",),
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
        check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()
    failures = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        for trace, names in EXACT.items():
            first = run(workload, args.seed, trace)
            second = run(workload, args.seed, trace)
            for name in names:
                same = first[name] == second[name]
                failures += not same
                print(f"{'ok  ' if same else 'FAIL'} {workload} {name}: "
                      f"{first[name]!r} vs {second[name]!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
