#!/usr/bin/env python3
"""Checks that two sets of runs of the same code agree within the bounds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload engine_joins --seeds 10 --seconds 20

It runs the workload with tracing off once per seed, for two sets of seeds
back to back: ``--first-seed`` onwards, then the next ``--seeds`` seeds. For
each end-to-end metric of ``BENCHMARK.json`` it prints each set's median and
spread, and the change from the first set's median to the second's, as a
share of the first. The spread is the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
A metric passes when the change, in either direction, and every spread
except ``setup_s``'s stay within its ``bound``. Exits 1 if any metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_set(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"seed {seed} failed ({done.returncode}):\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    starts = (args.first_seed, args.first_seed + args.seeds)
    sets = [run_set(args.workload, range(s, s + args.seeds), args.seconds) for s in starts]
    passed_all = True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        first, second = (statistics.median(s[name]) for s in sets)
        change = (second - first) / first
        spreads = [spread(s[name]) for s in sets]
        passed = abs(change) <= bound and (name == "setup_s" or max(spreads) <= bound)
        passed_all = passed_all and passed
        print(f"{name:<18} medians {first:<12.6g} {second:<12.6g} change {change:+.4f}  "
              f"spreads {spreads[0]:.4f} {spreads[1]:.4f}  bound {bound}: "
              f"{'ok' if passed else 'FAIL'}", flush=True)
    sys.exit(0 if passed_all else 1)


if __name__ == "__main__":
    main()
