#!/usr/bin/env python3
"""Appends one entry to the benchmark trajectory.

    python3 perfbench/record.py --label 0001-hash-once [--seed 1]

Runs every workload of BENCHMARK.json once untraced and once traced,
through perfbench/run.py from the root of a checkout, and writes
perfbench/trajectory/<label>.json with both results per workload, the
tracing overhead, and the commit and machine they were measured on.
Exits non-zero, writing nothing, when any run fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} --trace {trace} failed")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    entry = {"label": args.label, "commit": commit or None,
             "machine": machine(), "seed": args.seed,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        untraced = run(name, args.seed, spec["run_seconds"], "0")
        traced = run(name, args.seed, spec["run_seconds"], "1")
        entry["workloads"][name] = {
            "untraced": untraced, "traced": traced,
            "tracing_overhead_frac": traced["trace.overhead_frac"]}
    path = os.path.join("perfbench", "trajectory", args.label + ".json")
    with open(path, "w") as out:
        json.dump(entry, out, indent=2)
        out.write("\n")
    print(path)


if __name__ == "__main__":
    main()
