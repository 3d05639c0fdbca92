#!/usr/bin/env python3
"""Builds and runs the E19 end-to-end benchmark.

    python3 e2ebench/run.py --workload fleet_durable --seed 11 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a qhorn checkout. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build output
goes to stderr, so the benchmark's last stdout line is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no qhorn sources beside %s; nothing to build" % HERE)
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "e2e_bench", "-j", "4"],
    ]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "e2e_bench")


def main(argv):
    if "--self-test" in argv:
        import selftest
        return selftest.main(build(), os.path.join(build_dir(), "work"))
    binary = build()
    cmd = [binary] + argv + ["--work-dir", os.path.join(build_dir(), "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave nothing behind in the checkout
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1:]))
