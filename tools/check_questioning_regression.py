#!/usr/bin/env python3
"""Questioning-perf gate: compare a fresh google-benchmark JSON against
the checked-in BENCH_questioning.json baseline.

Usage: check_questioning_regression.py BASELINE_JSON FRESH_JSON

Per benchmark present in the baseline, real_time may not rise more than
the tolerance above the baseline figure. Faster is always fine — the gate
only guards the CSR layout's wins (graph build, selection scans, the
partition product) against silently eroding. The tolerance is +60% by
default: CI runs at --benchmark_min_time=0.01 on shared runners, so
per-benchmark noise is large; the regressions this gate exists to catch
(falling back to nested-vector layouts) are 2-3x, well past any
reasonable tolerance. Override with QUESTIONING_TOLERANCE_PCT.

Benchmarks present only in the fresh run (newly added ones) are listed
but never fail the gate; re-baseline by checking in the fresh JSON.

Speedup floors (SPEEDUP_FLOORS) are checked within the fresh run alone:
the reference row's real_time over the optimized row's must stay at or
above the floor. Both rows run on the same host in the same process, so
a slower or faster host moves them together and only a code change moves
the ratio. CellQ-HS on Tax@5000 selects from one lazy heap over cell
classes, and its rescan reference ran about 36x slower on a 4-vCPU VM; the
floor of 18x is half that, well above the ~8x a per-cell heap reaches.
FDQ-Oracle on Tax@5000 prices the artifact's shared question pool and
keeps its uncovered counts incrementally; the reference that rebuilds the
merged questions per run and recounts after every accepted FD ran about
8x slower on the same VM, so its floor is 4x.

Exit status: 0 clean, 1 regression, 2 usage/baseline mismatch.
"""

import json
import os
import sys

# (reference row, optimized row, minimum reference/optimized real_time).
SPEEDUP_FLOORS = [
    ("BM_CellQHittingSetTaxReference", "BM_CellQHittingSetTaxIncremental",
     18.0),
    ("BM_FdQOracleTaxReference", "BM_FdQOracleTax", 4.0),
]


def load_benchmarks(path):
    with open(path) as f:
        report = json.load(f)
    runs = {}
    for bench in report.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions are on.
        if bench.get("run_type") == "aggregate":
            continue
        runs[bench["name"]] = bench
    if not runs:
        sys.exit(f"{path}: no benchmarks in bench JSON")
    return report.get("context", {}), runs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = float(os.environ.get("QUESTIONING_TOLERANCE_PCT", "60")) / 100.0
    base_ctx, baseline = load_benchmarks(sys.argv[1])
    fresh_ctx, fresh = load_benchmarks(sys.argv[2])

    # Comparing a debug binary against the release baseline would flag
    # every benchmark; refuse outright. (library_build_type describes the
    # system libbenchmark package, not our binary — uguide_build_type is
    # stamped by bench_questioning itself.)
    base_mode = base_ctx.get("uguide_build_type", "unknown")
    fresh_mode = fresh_ctx.get("uguide_build_type", "unknown")
    if base_mode != fresh_mode:
        sys.exit(f"build-type mismatch: baseline is '{base_mode}', "
                 f"fresh run is '{fresh_mode}' -- rebuild in Release")

    failures = []
    for name, base in sorted(baseline.items()):
        run = fresh.get(name)
        if run is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        unit = base.get("time_unit", "ms")
        if run.get("time_unit", "ms") != unit:
            failures.append(f"{name}: time_unit changed "
                            f"({unit} -> {run.get('time_unit')})")
            continue
        time = run["real_time"]
        ceiling = base["real_time"] * (1.0 + tolerance)
        verdict = "ok"
        if time > ceiling:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {time:.2f}{unit} > ceiling {ceiling:.2f}{unit} "
                f"(baseline {base['real_time']:.2f}{unit})")
        print(f"{name}: {time:.2f}{unit} "
              f"(baseline {base['real_time']:.2f}{unit}, "
              f"ceiling {ceiling:.2f}{unit}) [{verdict}]")

    for name in sorted(set(fresh) - set(baseline)):
        print(f"{name}: {fresh[name]['real_time']:.2f}"
              f"{fresh[name].get('time_unit', 'ms')} [new, not gated]")

    for reference, optimized, floor in SPEEDUP_FLOORS:
        ref_run, opt_run = fresh.get(reference), fresh.get(optimized)
        if ref_run is None or opt_run is None:
            failures.append(f"{reference} / {optimized}: missing from "
                            f"fresh run")
            continue
        if ref_run.get("time_unit") != opt_run.get("time_unit"):
            failures.append(f"{reference} / {optimized}: time units differ")
            continue
        speedup = ref_run["real_time"] / opt_run["real_time"]
        verdict = "ok"
        if speedup < floor:
            verdict = "REGRESSION"
            failures.append(f"{reference} / {optimized}: speedup "
                            f"{speedup:.2f}x < required {floor:.2f}x")
        print(f"{reference} / {optimized}: speedup {speedup:.2f}x "
              f"(floor {floor:.2f}x) [{verdict}]")

    if failures:
        print("\nquestioning perf regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
