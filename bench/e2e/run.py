#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload fanout --seed 1 --seconds 10 --trace 0

The first call configures and builds bench_e2e (Release, unchecked) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr. The benchmark's last
stdout line is the result: correct, attempted, failed and the end-to-end
metrics (--trace 0) or the per-layer metrics of the traced pass (--trace 1).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fanout", "churn", "many_objects", "soak"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="also write the full result JSON here "
                                 "(input for compare.py)")
    args = p.parse_args()

    source = Path(__file__).resolve().parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "bench_e2e"
    if not (build / "CMakeCache.txt").exists():
        if run(["cmake", "-S", str(source), "-B", str(build),
                "-DCMAKE_BUILD_TYPE=Release", "-DGLOBE_CHECKED=OFF"],
               BUILD_TIMEOUT_S) != 0:
            return 1
    if run(["cmake", "--build", str(build), "-j2"], BUILD_TIMEOUT_S) != 0:
        return 1

    cmd = [str(build / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    if args.out:
        cmd += ["--out", args.out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
