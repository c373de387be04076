#!/usr/bin/env python3
"""Builds the findep benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload steady_commit --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the findep library plus the driver) into
.bench_build/; later runs only let CMake confirm the build is current.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result. The exit code is the driver's: 0 when every cell passed its
correctness checks, non-zero otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("steady_commit", "fault_campaign", "gossip_10k")
BUILD_DIR = ".bench_build"


def build(root):
    """Configures (once) and builds the driver; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "findep-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "runtime", "registry.h")):
        print("run.py: no findep sources under ./src; run it from the root "
              "of a checkout", file=sys.stderr)
        return 1
    try:
        driver = build(root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--root", root]).returncode


if __name__ == "__main__":
    sys.exit(main())
