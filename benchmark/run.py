#!/usr/bin/env python3
"""Builds rsb_bench from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload knowledge-sweep --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds a Release binary under .bench_build
(or $CARGO_TARGET_DIR when set); later runs rebuild only what changed.
Build output goes to stderr. The program's stdout is forwarded once its
last line has been checked to be the result object with exactly the
metrics BENCHMARK.json names for the chosen mode; otherwise nothing is
forwarded and the exit code is nonzero.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "rsb_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "rsb_bench")


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    binary = build()
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rsb_bench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"rsb_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("rsb_bench printed nothing")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
