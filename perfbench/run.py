#!/usr/bin/env python3
"""Build and run the rdgc benchmark for one workload.

    python3 perfbench/run.py --workload decay|tree|sessions --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the runtime straight from src/) into
.bench_build/; later calls only rebuild what changed. The benchmark's
output passes through, and its last line is the JSON result. A traced
run also writes its spans to .bench_build/spans-<workload>.tsv.

Any failure to build or run exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "heap", "Heap.h")):
        fail("no rdgc sources next to perfbench/ (expected src/heap/Heap.h)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    # Configure once; the build step re-runs CMake itself when a
    # CMakeLists.txt or a globbed source list changes.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build()
    workload = args[args.index("--workload") + 1]
    command = [BINARY] + args
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        command += ["--spans", os.path.join(BUILD, "spans-%s.tsv" % workload)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)


if __name__ == "__main__":
    main()
