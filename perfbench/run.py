#!/usr/bin/env python3
"""Builds and runs the solsched benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures the repository's own CMake build under
.bench_build/ with perfbench/perfbench.cmake attached and builds the
`solsched_perfbench` target; later runs rebuild only what changed. Build
output goes to stderr. The runner's stdout is passed through, so its last
line is the result object. Any extra flags (--scale, --tamper) are handed to
the runner unchanged.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "solsched_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no solsched sources next to perfbench/; "
                 "run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        hook = os.path.join(ROOT, "perfbench", "perfbench.cmake")
        subprocess.run(["cmake", "-S", ROOT, "-B", BUILD,
                        "-DCMAKE_PROJECT_INCLUDE=" + hook],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target",
                    "solsched_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: runner exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
