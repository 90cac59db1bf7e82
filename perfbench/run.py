#!/usr/bin/env python3
"""Builds the benchmark from the sources next to it, then runs one workload.

    python3 perfbench/run.py --workload echo-spin --seed 1 --seconds 10 --trace 0

Workloads: echo-spin, echo-think, pool-window (see perfbench/NOTES.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Build output goes to stderr; the benchmark's own output, whose last line
is the JSON result, goes to stdout. The exit code is the benchmark's: 0
only if every output check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
WORKLOADS = ("echo-spin", "echo-think", "pool-window")
RUN_TIMEOUT_S = 170


def build() -> Path:
    if not (ROOT / "src" / "runtime" / "shm_channel.cpp").is_file():
        sys.exit("perfbench: the ulipc sources (src/) are not next to perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
