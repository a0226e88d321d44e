#!/usr/bin/env python3
"""Builds and runs the lifecycle benchmark (bench_pipeline) for one workload.

    python3 bench_pipeline/run.py --workload <name> --seed <n>
                                  [--seconds <s>] [--trace 0|1] [--smoke]

Run from anywhere inside a source tree that has both bench_pipeline/ and
src/. The harness is built in Release into .bench_build/ at the root of the
tree (configured once, rebuilt incrementally), then run with that directory
as its work directory. Build output and the harness's report go to stderr;
stdout carries the harness's stdout, whose last line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
harness's: 0 when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_pipeline")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at src/ next to bench_pipeline/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_pipeline",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n = 256 instance, about a second per run")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--work-dir=" + BUILD]
    if args.trace:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_pipeline exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: bench_pipeline printed no result (exit %d)"
                 % proc.returncode)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
