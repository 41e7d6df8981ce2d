#!/usr/bin/env python3
"""Build the benchmark driver from source and run one perfbench workload.

Run from the repository root:

    python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
repository's libraries, offchip-serve and the driver) into .bench_build;
later runs only rebuild what changed. Build output goes to stderr, so the
driver's last stdout line is the JSON result. Exits non-zero, printing no
result, when the build or the driver fails.

--seconds is required; BENCHMARK.json's run_seconds is the length the
bounds were set on. --record rewrites perfbench/expected.tsv from the
observed simulated statistics of a simulation workload instead of checking
them.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("eval-sweep", "offchip-serial", "serve-mix")


def build():
    """Configures (once) and builds the driver and daemon; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel",
                  str(os.cpu_count() or 1), "--target", "perfbench-driver",
                  "offchip-serve"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench-driver"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.tsv"),
           "--serve-bin", os.path.join(BUILD, "offchip-serve"),
           "--out-dir", OUT]
    if args.record:
        cmd.append("--record")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
