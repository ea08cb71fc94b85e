#!/usr/bin/env python3
"""Runs one workload of the UGuide benchmark and prints its metrics.

    python3 perfbench/run.py --workload offline-tax --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The script builds the library, the
shipped daemon (uguided) and the benchmark driver from source into
$CARGO_TARGET_DIR (default .bench_build), runs the driver, and prints its
human-readable table followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json; with --trace 1 they are its
per_layer metrics. A per-layer metric the workload does not exercise (for
example the journal layer on offline-tax) is reported as 0. --selftest
builds and runs the helper tests instead.

Exit status: 0 with a result printed; non-zero without one (build failure,
an invalid run, or a result that does not match BENCHMARK.json).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-tax", "serve-mix")
DRIVER_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(targets, tests=False):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")]
    for cmd in (configure,
                ["cmake", "--build", out, "-j", jobs, "--target"] + targets):
        # Build output is shown only on failure: stdout ends with the result.
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log("build step failed: " + " ".join(cmd))
            sys.exit(1)
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def conform(result, spec, trace):
    """Checks the driver's result against BENCHMARK.json and returns it in
    the spec's metric order. Unexercised per-layer metrics become 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in got:
            if not trace:
                raise ValueError("missing end-to-end metric " + name)
            metrics[name] = {"value": 0, "unit": m["unit"]}
            continue
        entry = got[name]
        if entry["unit"] != m["unit"]:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                             % (name, entry["unit"], m["unit"]))
        metrics[name] = entry
    extra = sorted(set(got) - set(metrics))
    if extra:
        raise ValueError("metrics not in BENCHMARK.json: " + ", ".join(extra))
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def run_workload(args):
    out = build(["perfbench_driver", "uguided"])
    run_dir = os.path.join(ROOT, ".bench_out",
                           "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(out, "perfbench_driver"), args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace, "--out-dir=" + run_dir,
           "--pinned=" + os.path.join(HERE, "pinned_reports.txt"),
           "--uguided=" + os.path.join(out, "uguided")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % DRIVER_TIMEOUT_S)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("driver exited with status %d" % done.returncode)
        return done.returncode or 1
    try:
        result = conform(json.loads(lines[-1]), load_spec(), args.trace)
    except (ValueError, KeyError) as e:
        sys.stdout.write(done.stdout)
        log("result does not match BENCHMARK.json: %s" % e)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


def selftest():
    out = build(["perfbench_helpers_test"], tests=True)
    return subprocess.run([os.path.join(out, "perfbench_helpers_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no UGuide sources next to the benchmark (expected %s)"
            % os.path.join(ROOT, "src"))
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
