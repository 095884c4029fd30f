#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload host-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is built from source with dune into .bench_build/ (the
shared dune cache is disabled, so nothing is written outside the
checkout), then run.  Its standard output is passed through unchanged;
the last line is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("host-mixed", "volume-mirror", "lfs-snapshot")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required", 2)

    # The benchmark measures the repository's own libraries; without
    # them there is nothing to build.
    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        fail("run from the root of a checkout of the repository "
             f"(missing: {', '.join(missing)})", 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 3)

    if args.self_test:
        cmd = [EXE, "--self-test"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
