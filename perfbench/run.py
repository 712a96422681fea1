#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload crawl|routed|offline --seed N --seconds S --trace 0|1

Run from the repository root. The build is an optimized, offline cargo
build into $CARGO_TARGET_DIR (default .bench_build). Every argument is
passed to the benchmark binary, whose last stdout line is the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
