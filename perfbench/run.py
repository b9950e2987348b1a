#!/usr/bin/env python3
"""Front-door benchmark entry point.

Builds the ESP libraries and the perfbench harness from the source tree this
file sits in, then runs one workload:

    python3 perfbench/run.py --workload shelf --seed 1 --seconds 25 --trace 0

The harness prints every metric by name and unit; the last stdout line is
one JSON object (correct, attempted, failed, metrics). The exit code is the
harness's: non-zero on any output mismatch. Build output goes to stderr.

    python3 perfbench/run.py --tests

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
GOLDEN = os.path.join(HERE, "golden", "digests.txt")


def build(target):
    """Configures and builds `target`; returns its path or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ESP sources next to the benchmark", file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = []  # Keep whatever generator the tree was made with.
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j",
         str(os.cpu_count() or 2)],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(done.stdout[-20000:])
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's reference digest")
    parser.add_argument("--tests", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.tests:
        binary = build("perfbench_tests")
        if binary is None:
            return 2
        return subprocess.run([binary], cwd=ROOT).returncode

    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        return 2
    # Journal and snapshot scratch space; a run killed midway leaves its
    # pass directory behind, so start from an empty one.
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", GOLDEN, "--work-dir", WORK_DIR]
    if args.write_golden:
        command.append("--write-golden")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
