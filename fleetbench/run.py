#!/usr/bin/env python3
"""Build and run the FIAT fleet benchmark.

Usage (from the repository root):

    python3 fleetbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

Builds the `fleetbench` package (release, offline) and runs one of its two
binaries with the same arguments: `fleetbench` for `--trace 0` and
`fleetbench-traced` (which installs the counting allocator) for
`--trace 1`. Cargo's output goes to stderr; the benchmark's standard output,
whose last line is the JSON result, passes through unchanged. The exit code
is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def trace_flag(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value
    return None


def main():
    argv = sys.argv[1:]
    trace = trace_flag(argv)
    if trace not in ("0", "1"):
        sys.stderr.write("run.py: --trace 0 or --trace 1 is required\n")
        return 2
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST, "--bins"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: building the benchmark failed\n")
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    name = "fleetbench-traced" if trace == "1" else "fleetbench"
    binary = os.path.join(os.path.abspath(target), "release", name)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
