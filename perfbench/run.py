#!/usr/bin/env python3
"""Builds and runs the APQA end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload range_scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test     # statistics helper tests only

The first call configures and builds perfbench/CMakeLists.txt (the APQA
library from src/ plus the benchmark program apqa_perf) into the build
directory, which is $CARGO_TARGET_DIR when set and .bench_build otherwise,
relative to the checkout root. Later calls rebuild incrementally. Build
output goes to stderr; stdout carries only the benchmark's report, whose
last line is the JSON result. Exit status: apqa_perf's (0 = every check
passed, 1 = a check failed), or 2 when the build or the arguments fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("range_scan", "point_lookup", "read_write", "range_scan_tcp")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        fail("no APQA sources under src/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_dir(), "perfbench")
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    make = subprocess.run(
        ["cmake", "--build", out, "-j", str(nproc()), "--target", *targets],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    if make.returncode != 0:
        fail("build failed")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the statistics helper tests")
    args = ap.parse_args()

    if args.self_test:
        out = build(["stats_test"])
        sys.exit(subprocess.run([os.path.join(out, "stats_test")],
                                check=False).returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    out = build(["apqa_perf"])
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [os.path.join(out, "apqa_perf"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            cwd=ROOT, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
