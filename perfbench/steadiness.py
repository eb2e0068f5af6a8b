#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Run from the repository root. One set of runs:

    python3 perfbench/steadiness.py run --label set1 --seeds 1-10 \
        --workloads paper-approx,paper-exact-relax,served-zipf

runs perfbench/run.py once per (workload, seed), keeps the raw values in
perfbench/steadiness/<label>.json and prints, per workload and metric, the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. The
target is a spread below a third of the bound; setup_s is exempt.

Two sets of runs of the same code:

    python3 perfbench/steadiness.py compare set1 set2

prints each metric's two medians and flags a second median that is worse
than the first by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "steadiness")


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def cmd_run(args):
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    seeds = parse_seeds(args.seeds)
    record = {"label": args.label, "nproc": os.cpu_count(),
              "loadavg_start": os.getloadavg(), "seconds": seconds,
              "seeds": seeds, "runs": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, elapsed = run_one(workload, seed, seconds)
            runs.append({"seed": seed, "wall_s": elapsed,
                         "loadavg": os.getloadavg()[0], **result})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        record["runs"][workload] = runs
    record["loadavg_end"] = os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, args.label + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(render(record, bounds))


def render(record, bounds):
    lines = [f"## {record['label']}: nproc {record['nproc']}, load average "
             f"{record['loadavg_start'][0]:.2f} -> "
             f"{record['loadavg_end'][0]:.2f}, {record['seconds']} s per run, "
             f"seeds {record['seeds'][0]}-{record['seeds'][-1]}", "",
             "| workload | metric | median | q1 | q3 | spread | bound | "
             "spread / bound |", "|---|---|---:|---:|---:|---:|---:|---:|"]
    for workload, runs in record["runs"].items():
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            lines.append(
                f"| {workload} | {name} | {median:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {spread:.4f} | {spec['bound']} | "
                f"{spread / spec['bound']:.2f} |")
        correct = all(r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wall = statistics.median(r["wall_s"] for r in runs)
        lines.append(f"| {workload} | (runs) | correct={correct} | "
                     f"failed {failed} / attempted {attempted} | "
                     f"median wall {wall:.1f} s | | | |")
    return "\n".join(lines)


def cmd_compare(args):
    bounds, _ = load_bounds()
    sets = []
    for label in (args.first, args.second):
        with open(os.path.join(OUT, label + ".json")) as f:
            sets.append(json.load(f))
    lines = [f"## {args.first} vs {args.second}", "",
             "| workload | metric | median 1 | median 2 | change | bound | "
             "within |", "|---|---|---:|---:|---:|---:|---|"]
    ok = True
    for workload in sets[0]["runs"]:
        for name, spec in bounds.items():
            medians = [statistics.median(r["metrics"][name]["value"]
                                         for r in s["runs"][workload])
                       for s in sets]
            change = medians[1] / medians[0] - 1
            worse = change if spec["better"] == "lower" else -change
            within = worse <= spec["bound"]
            ok = ok and within
            lines.append(f"| {workload} | {name} | {medians[0]:.6g} | "
                         f"{medians[1]:.6g} | {change:+.4f} | {spec['bound']} "
                         f"| {'yes' if within else 'NO'} |")
    print("\n".join(lines))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--label", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads",
                     default="paper-approx,paper-exact-relax,served-zipf")
    run.add_argument("--seconds", type=int, default=0,
                     help="run length; default BENCHMARK.json run_seconds")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
