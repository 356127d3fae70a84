#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

    python3 perfbench/run.py --workload small-files --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune (progress goes to standard error), then runs it; the last line of
standard output is the result object.  The exit code is the
benchmark's: 0 on success, non-zero with no result line when the build
fails, an output is wrong, or the run times out.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("small-files", "steady-overwrite", "mixed-clients")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found in {root}: "
                  "run from a checkout of the repository", file=sys.stderr)
            return 2

    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Pin glibc's mmap threshold at its default.  Left dynamic, it rises
    # after the first media buffer is freed, and whether later blocks
    # come from fresh pages or reused heap then varies from run to run:
    # set-up time and host speed turn bimodal.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    sys.stdout.flush()
    try:
        # run() kills the child on timeout and waits for it to exit.
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
