#!/usr/bin/env python3
"""Tests for tools/check_bench.py over fixtures built from the checked-in
BENCH_questioning.json and BENCH_serving.json.

Each fixture compares a checked-in baseline with an edited copy of itself,
written to a temp dir. The gate's exit status must match, and a failing
fixture's stderr must name the row it broke. Every gated baseline must
also pass against itself, unedited.

Usage: check_bench_test.py
"""

import copy
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import unittest

from check_bench import KEY_FIELDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "check_bench.py"


def find(report, row):
    """The row check_bench.py names `row` ("BM_X", "concurrency=16")."""
    for array, key in KEY_FIELDS.items():
        for r in report.get(array, []):
            if row in (r[key], f"{key}={r[key]}"):
                return array, r
    raise KeyError(row)


def keep():
    return lambda report: None, None


def scale(row, field, factor):
    def edit(report):
        find(report, row)[1][field] *= factor
    return edit, row


def put(row, **fields):
    return lambda report: find(report, row)[1].update(fields), row


def drop(row):
    def edit(report):
        array, r = find(report, row)
        report[array].remove(r)
    return edit, row


def add(**fields):
    return lambda report: report["benchmarks"].append(fields), fields["name"]


def ratio(row, over, field, factor):
    """Sets `row`'s `field` to `factor` times `over`'s."""
    def edit(report):
        find(report, row)[1][field] = factor * find(report, over)[1][field]
    return edit, row


def debug_build():
    def edit(report):
        report.setdefault("context", {})["uguide_build_type"] = "debug"
    return edit, "build-type mismatch"


def unstamped():
    def edit(report):
        report.pop("context", None)
    return edit, "build-type mismatch"


# bench_discovery's rows are recorded for reading; no gate compares them.
UNGATED = {"BENCH_discovery.json"}

# file -> [(case, (edit of the fresh copy, name it breaks), exit status)]
CASES = {
    "BENCH_questioning.json": [
        ("itself", keep(), 0),
        # The tolerance is +60%: a 30% move passes, 70% fails.
        ("30% slower", scale("BM_CellQSumsTax", "real_time", 1.3), 0),
        ("70% slower", scale("BM_CellQSumsTax", "real_time", 1.7), 1),
        ("faster", scale("BM_CellQSumsTax", "real_time", 0.1), 0),
        ("row removed", drop("BM_EvaluateDetectionsTax"), 1),
        ("ratio breach",
         ratio("BM_CellQHittingSetTaxReference",
               "BM_CellQHittingSetTaxIncremental", "real_time", 17), 1),
        ("ratio row removed", drop("BM_CellQHittingSetTaxIncremental"), 1),
        ("partition cache never hit",
         put("BM_GraphBuildEngine/1", partition_hits=0), 1),
        ("time unit changed", put("BM_CellQOracleTax", time_unit="us"), 1),
        ("new row", add(name="BM_New", real_time=1e9, time_unit="ms"), 0),
        ("aggregate row",
         add(name="BM_CellQSumsTax", run_type="aggregate", real_time=1e9,
             time_unit="ms"), 0),
        ("build type", debug_build(), 1),
        ("nan", put("BM_CellQSumsTax", real_time=math.nan), 1),
    ],
    "BENCH_serving.json": [
        ("itself", keep(), 0),
        # The tolerance is +-25%.
        ("30% fewer sessions/s",
         scale("concurrency=16", "sessions_per_sec", 0.7), 1),
        ("30% higher p99", scale("concurrency=64", "rtt_p99_ms", 1.3), 1),
        ("more sessions/s", scale("concurrency=1", "sessions_per_sec", 3), 0),
        ("row removed", drop("concurrency=64"), 1),
        # The baseline is stamped release: a Debug run, or one from a
        # binary that stamps nothing, is refused.
        ("build type", debug_build(), 1),
        ("unstamped", unstamped(), 1),
        ("nan", put("concurrency=1", sessions_per_sec=math.nan), 1),
    ],
}


def write_fixtures(directory):
    """Writes every fixture; yields (file, case, baseline path, fresh path,
    exit status, name the gate must report)."""
    for source, cases in CASES.items():
        baseline = ROOT / source
        report = json.loads(baseline.read_text())
        for i, (case, (edit, name), status) in enumerate(cases):
            fresh = copy.deepcopy(report)
            edit(fresh)
            path = pathlib.Path(directory) / f"{baseline.stem}.{i}.json"
            path.write_text(json.dumps(fresh, indent=1))
            yield source, case, baseline, path, status, name


class CheckBenchTest(unittest.TestCase):
    def test_fixtures(self):
        with tempfile.TemporaryDirectory() as directory:
            for source, case, baseline, fresh, status, name in \
                    write_fixtures(directory):
                with self.subTest(file=source, case=case):
                    run = subprocess.run(
                        [sys.executable, str(GATE), str(baseline), str(fresh)],
                        capture_output=True, text=True)
                    self.assertEqual(run.returncode, status,
                                     run.stdout + run.stderr)
                    # Failures are listed on stderr, new rows on stdout.
                    if name:
                        self.assertIn(name, run.stderr if status else
                                      run.stdout)

    def test_baselines_pass_against_themselves(self):
        baselines = {path.name for path in ROOT.glob("BENCH_*.json")
                     if not path.name.endswith(".fresh.json")}
        self.assertEqual(baselines - UNGATED, set(CASES))
        for source in CASES:
            with self.subTest(file=source):
                run = subprocess.run(
                    [sys.executable, str(GATE), str(ROOT / source),
                     str(ROOT / source)], capture_output=True, text=True)
                self.assertEqual(run.returncode, 0, run.stdout + run.stderr)

    def test_usage(self):
        run = subprocess.run([sys.executable, str(GATE)],
                             capture_output=True, text=True)
        self.assertEqual(run.returncode, 2)


if __name__ == "__main__":
    unittest.main()
