#!/usr/bin/env python3
"""Build and run the helios benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the simulator libraries and the
benchmark binary from source into .bench_build/ (a Release build);
later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is always the benchmark's result object.
Exit status: the benchmark's (0 on a completed measurement, 2 on a bad
argument), or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "helios_bench")


def non_negative(text):
    if not text.isdigit() or len(text) > 20 or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            "not a non-negative 64-bit integer: %r" % text)
    return text


def positive_seconds(text):
    if not text.isdigit() or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(
            "not a whole number of seconds from 1 to 3600: %r" % text)
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one helios benchmark workload and print its "
        "metrics as the last line of stdout.")
    parser.add_argument("--workload", required=True,
                        help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=positive_seconds)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    return parser.parse_args(argv)


def build():
    """Configure once, then build incrementally; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: error: the helios sources are missing: "
                         "no src/CMakeLists.txt under %s\n" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "helios_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("run.py: error: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", OUT_DIR]
    sys.stdout.flush()
    sys.stderr.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
