#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes through dune into the
checkout's _build directory; its output goes to stderr so that the last
line on stdout is the benchmark's JSON result. The exit code is the
benchmark's (non-zero when the build fails or any output is wrong).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# A run measures for --seconds and sets up in a few seconds more; this
# bound only stops a hung run.
RUN_TIMEOUT_S = 170


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
