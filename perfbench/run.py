#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tables-paper --seed 20130701 --seconds 30 --trace 0

Workloads: tables-paper, radius-sweep, serve-mix (see perfbench/workloads.json).
The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default .bench_build), then run with the given flags.
Its last stdout line is the result object; the line before it is the run
record. Scratch files (the serve-mix cache directory, trace spans) go to
<target dir>/perfbench-work.
"""

import os
import subprocess
import sys

# A run measures for --seconds plus its set-up and checks; anything near
# this limit is a hang.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("error: could not build the benchmark (run from the repository root)", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "sfc-perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    try:
        run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
