#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and summarizes each metric.

    python3 perfbench/steady.py --workload serve-mix --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --workload serve-mix --runs 10 --compare OLD.json

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the report prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the sample count,
and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged
"noisy"; at or above the bound, "TOO NOISY". With --compare, each median is
also compared with the median of an earlier report: a move in the worse
direction by more than the bound is flagged "WORSE".

The raw values are written to .bench_out/steady-<workload>[-trace].json so
a later report can be compared against them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, spread relative to the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return median, q1, q3, rel


def worse_by(old, new, better):
    """Relative change of `new` against `old` in the worse direction."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("seed %d: run.py exited %d" % (seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("seed %d: outputs incorrect" % seed)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", help="an earlier report's JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run_seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in
               (spec["per_layer"] if args.trace else spec["end_to_end"])}

    values = {name: [] for name in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        got = run_once(args.workload, seed, run_seconds, args.trace)
        for name in metrics:
            values[name].append(got[name])
        print("run %d/%d (seed %d) done" % (i + 1, args.runs, seed),
              file=sys.stderr, flush=True)

    old = None
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)["values"]

    print("%-34s %12s %12s %12s %3s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "n", "spread", "bound", "verdict"))
    for name, m in metrics.items():
        median, q1, q3, rel = spread(values[name])
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            if rel >= bound:
                verdict = "TOO NOISY"
            elif rel >= bound / 3:
                verdict = "noisy"
            if old and name in old:
                moved = worse_by(statistics.median(old[name]), median,
                                 m["better"])
                verdict += " %+.1f%% vs old" % (100 * moved)
                if moved > bound:
                    verdict += " WORSE"
        print("%-34s %12.6g %12.6g %12.6g %3d %7.1f%% %6s  %s" %
              (name, median, q1, q3, len(values[name]), 100 * rel,
               "" if bound is None else "%.2f" % bound, verdict.strip()))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady-%s%s.json" %
                        (args.workload, "-trace" if args.trace else ""))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "first_seed": args.first_seed,
                   "values": values}, f, indent=1)
    print("raw values: " + os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
