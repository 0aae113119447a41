#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark.

    python3 perfbench/run.py --workload echo-sim --seed 1 --seconds 10 --trace 0

Configures and compiles perfbench/ (the library sources plus the benchmark)
into .bench_build/perfbench under the repository root, then runs one
workload. The benchmark's standard output is passed through unchanged; its
last line is the JSON result. Build output goes to standard error. Exits
nonzero, without a result line, when the build fails, and with the
benchmark's own code otherwise.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("echo-sim", "echo-udp", "neworder-durable")
RUN_TIMEOUT_S = 170


def build(src: Path, out: Path) -> Path:
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(src), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    here = Path(__file__).resolve().parent
    out = here.parent / ".bench_build" / "perfbench"
    try:
        exe = build(here, out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out", str(out / f"spans-{a.workload}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
