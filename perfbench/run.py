#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload campaign_default --seed 5 --seconds 15 --trace 0

Two release builds share one target directory (``CARGO_TARGET_DIR``,
``.bench_build`` when unset): the repository's binaries
(``spatter-campaign-worker``, ``spatter-sdb-server``) and the ``perfbench``
package, so the benchmark executable finds the fleet binaries next to
itself. Every argument is passed through to the executable; see
``perfbench/README.md`` for the workloads and metrics.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo reports on stderr; keep stdout for the benchmark's result line.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"`cargo build --release {' '.join(args)}` failed ({done.returncode})")


def main():
    for required in ("Cargo.toml", os.path.join("src", "bin", "spatter-campaign-worker.rs")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"{required} not found: run from a full checkout of the repository")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(["--bins"], target_dir)
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target_dir)
    binary = os.path.join(target_dir, "release", "perfbench")
    done = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
