#!/usr/bin/env python3
"""Builds omega's end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-approx --seed 1 --seconds 30 --trace 0

Workloads: paper-approx, paper-exact-relax, served-zipf (see
perfbench/README.md). The last line of stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}); build output and the
human-readable report go to stderr. Traced runs (--trace 1) also leave
their spans and per-layer table under .bench_build/perfbench-out/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper-approx", "paper-exact-relax", "served-zipf")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(HERE, "expected_cells.txt"),
        "--out-dir", os.path.join(ROOT, ".bench_build", "perfbench-out"),
        "--data-dir", os.path.join(ROOT, ".bench_build", "perfbench-data"),
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
