#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload screen|serve|campaign --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the library sources it
measures) into .bench_build/ (or $CARGO_TARGET_DIR); later calls rebuild
only what changed. Build output goes to stderr, so the benchmark's result
stays the last line of stdout. The exit code is the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)
    return os.path.join(out, target)


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_tests")
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build("perfbench")
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
