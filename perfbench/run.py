#!/usr/bin/env python3
"""Builds (on first use) and runs the serving benchmark of BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload read_open --seed 1 --seconds 15 --trace 0

The C++ benchmark (perfbench/perfbench.cc) is compiled in Release together with
the lccs library from src/, under .bench_build/perfbench. Its last stdout line
is the result object: {"correct", "attempted", "failed", "metrics"}. Build
output goes to stderr so stdout carries only the benchmark's lines. Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("read_open", "read_closed", "write_mixed", "scan_quantized")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: lccs sources not found next to perfbench/; "
                 "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instance for the benchmark's own tests")
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(BUILD_DIR / "work")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # The killed benchmark could not remove its WAL directory itself.
        shutil.rmtree(BUILD_DIR / "work", ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
