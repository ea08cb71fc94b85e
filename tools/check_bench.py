#!/usr/bin/env python3
"""Bench gate: compare a fresh bench JSON against its checked-in baseline.

Usage: check_bench.py BASELINE_JSON FRESH_JSON

Reads what bench_questioning (google-benchmark), bench_serving and
bench_live write. Each top-level array named in KEY_FIELDS becomes named
rows, aggregate rows (written under repetitions) skipped. RULES holds
every bound, of three kinds:

  * tolerance: a baseline row's field may move at most `pct` percent the
    wrong way in the fresh run;
  * floor: every fresh row matching `row` has `field` >= `floor`;
  * ratio: within the fresh run, `field` of `row` over `field` of `over`
    is >= `floor`. A faster or slower host moves both rows together, so
    only a code change moves the ratio.

A baseline row missing from the fresh run or with a changed time_unit
fails; a fresh-only row is listed, not gated. A gated value that is
missing or not finite fails. The files must agree on
context.uguide_build_type (debug against release would flag every row).

Exit status: 0 clean, 1 regression or refused comparison, 2 usage.
"""

import dataclasses
import fnmatch
import json
import math
import sys

KEY_FIELDS = {"benchmarks": "name", "levels": "concurrency",
              "batch_sizes": "batch_rows"}


@dataclasses.dataclass
class Rule:
    array: str
    row: str  # fnmatch pattern over row names
    field: str
    better: str = ""  # tolerance rules: "lower" or "higher"
    pct: float = 0.0  # tolerance rules
    floor: float = 0.0  # floor and ratio rules
    over: str = ""  # ratio rules: the in-run reference row


RULES = [
    # Questioning. CI runs at --benchmark_min_time=0.01 on shared runners,
    # so per-row noise is large; the regressions this guards against
    # (falling back to nested-vector layouts) are 2-3x.
    Rule("benchmarks", "*", "real_time", better="lower", pct=60),
    # CellQ-HS on Tax@5000 selects from one lazy heap over cell classes;
    # its rescan reference ran about 36x slower on a 4-vCPU VM. 18x is half
    # that, well above the ~8x a per-cell heap reaches.
    Rule("benchmarks", "BM_CellQHittingSetTaxReference", "real_time",
         floor=18.0, over="BM_CellQHittingSetTaxIncremental"),
    # FDQ-Oracle on Tax@5000 prices the artifact's shared question pool and
    # keeps its uncovered counts incrementally; the reference that rebuilds
    # the merged questions per run ran about 8x slower on the same VM.
    Rule("benchmarks", "BM_FdQOracleTaxReference", "real_time", floor=4.0,
         over="BM_FdQOracleTax"),
    # The violation engine's partition cache must be hit: no hits means
    # the per-LHS reuse contract silently broke. A count, so >= 1 is > 0.
    Rule("benchmarks", "BM_GraphBuildEngine/*", "partition_hits", floor=1),
    # Serving. +-25% absorbs shared-runner noise and still catches the
    # thread-per-session daemon this guards against (~30% down at c=64).
    Rule("levels", "*", "sessions_per_sec", better="higher", pct=25),
    Rule("levels", "*", "rtt_p99_ms", better="lower", pct=25),
    # Live maintenance. Absolute times on shared runners are noisy.
    Rule("batch_sizes", "*", "incremental_ms_per_batch", better="lower",
         pct=40),
    # Incremental maintenance over rebuild-per-batch at single-row batches:
    # the headline number the live subsystem exists for.
    Rule("batch_sizes", "batch_rows=1", "speedup", floor=5.0),
]


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"{path}: {err}")
    rows = {}
    for array, key in KEY_FIELDS.items():
        for row in report.get(array, []):
            if row.get("run_type") == "aggregate":
                continue
            name = row[key] if key == "name" else f"{key}={row[key]}"
            rows[(array, name)] = row
    if not rows:
        sys.exit(f"{path}: no {', '.join(KEY_FIELDS)} rows in bench JSON")
    return report.get("context", {}), rows


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def show(value):
    return f"{value:.4g}" if isinstance(value, (int, float)) else repr(value)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_ctx, baseline = load(argv[1])
    fresh_ctx, fresh = load(argv[2])
    base_mode = base_ctx.get("uguide_build_type", "unknown")
    fresh_mode = fresh_ctx.get("uguide_build_type", "unknown")
    if base_mode != fresh_mode:
        sys.exit(f"build-type mismatch: baseline is '{base_mode}', "
                 f"fresh run is '{fresh_mode}' -- rebuild in Release")

    failures = []

    def verdict(line, failed):
        if failed:
            failures.append(line)
        print(f"{line} [{'REGRESSION' if failed else 'ok'}]")

    comparable = {}  # baseline rows present in the fresh run, same unit
    for key, base in baseline.items():
        run = fresh.get(key)
        if run is None:
            failures.append(f"{key[1]}: missing from fresh run")
        elif run.get("time_unit") != base.get("time_unit"):
            failures.append(f"{key[1]}: time_unit changed "
                            f"({base.get('time_unit')} -> "
                            f"{run.get('time_unit')})")
        else:
            comparable[key] = (base, run)
    for key in fresh:
        if key not in baseline:
            print(f"{key[1]}: new, not gated")

    arrays = {array for array, _ in baseline} | {array for array, _ in fresh}
    for rule in RULES:
        if rule.array not in arrays:
            continue
        if rule.better:
            sign = 1.0 if rule.better == "lower" else -1.0
            for (array, name), (base, run) in comparable.items():
                if array != rule.array or not fnmatch.fnmatch(name, rule.row):
                    continue
                value, ref = run.get(rule.field), base.get(rule.field)
                limit = (ref * (1.0 + sign * rule.pct / 100.0)
                         if finite(ref) else math.nan)
                failed = not (finite(value) and finite(limit) and
                              sign * (value - limit) <= 0)
                bound = "ceiling" if sign > 0 else "floor"
                verdict(f"{name} {rule.field}: {show(value)} (baseline "
                        f"{show(ref)}, {bound} {show(limit)})", failed)
        elif rule.over:
            top = fresh.get((rule.array, rule.row))
            bottom = fresh.get((rule.array, rule.over))
            label = f"{rule.row} / {rule.over} {rule.field}"
            if top is None or bottom is None:
                failures.append(f"{label}: missing from fresh run")
            elif top.get("time_unit") != bottom.get("time_unit"):
                failures.append(f"{label}: time units differ")
            else:
                num, den = top.get(rule.field), bottom.get(rule.field)
                ratio = (num / den if finite(num) and finite(den) and den > 0
                         else math.nan)
                verdict(f"{label}: {ratio:.2f}x (floor {rule.floor:.2f}x)",
                        not (finite(ratio) and ratio >= rule.floor))
        else:
            matched = [(name, run)
                       for (array, name), run in fresh.items()
                       if array == rule.array
                       and fnmatch.fnmatch(name, rule.row)]
            if not matched:
                failures.append(f"{rule.row}: no such row in fresh run")
            for name, run in matched:
                value = run.get(rule.field)
                verdict(f"{name} {rule.field}: {show(value)} "
                        f"(floor {rule.floor:g})",
                        not (finite(value) and value >= rule.floor))

    if failures:
        print("\nperf regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
