#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage, from the root of a checkout:

    python3 teabench/run.py --workload suite-ref --seed 1 --seconds 30 --trace 0

Builds `teabench` (a Cargo package of its own, on the repository's
crates by path) into `$CARGO_TARGET_DIR` (default `teabench/target`),
then runs it on one workload in one process. The last line of stdout is
the JSON result. Exits non-zero without a result when the build or the
run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-ref", "seed-matrix", "sim-only")
# One measuring run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
# glibc keeps freed memory instead of returning it to the kernel, and maps
# only blocks above 32 MiB on their own. After the warm-up, set-ups and
# passes then reuse resident pages. Without this every set-up re-faults
# about 12 MiB, and page-fault cost on a shared VM is the largest source
# of set-up noise.
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=4294967296:glibc.malloc.mmap_threshold=33554432"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        sys.exit("teabench: build failed")

    command = [
        os.path.join(target, "release", "teabench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(HERE, "expected.json"),
        "--out", os.path.join(HERE, "out"),
    ]
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("teabench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
