#!/usr/bin/env python3
"""Build and run the closed-loop slot benchmark.

    python3 perfbench/run.py --workload <paper_birp|cells_storm|serve_flood>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the library and the benchmark from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the benchmark's arithmetic self-test, then runs
the benchmark. Build logs go to stderr; the benchmark's stdout is passed
through, so its last line is the JSON result. Exits non-zero, without a
result, if the build, the self-test or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_birp", "cells_storm", "serve_flood")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs]):
        return None
    return build_dir


def main():
    args = parse_args()
    build_dir = build()
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_logged([os.path.join(build_dir, "loopbench_selftest")]):
        print("perfbench: arithmetic self-test failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "loopbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
