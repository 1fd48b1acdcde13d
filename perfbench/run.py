#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload compile|execute|serve \
        --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result.  Build output goes
to standard error.  Exits non-zero, without a result, if the build or the
run fails.
"""
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def build():
    dune = shutil.which("dune")
    if dune:
        cmd = [dune, "build", "--root", ".", TARGET]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune", "build", "--root", ".", TARGET]
    else:
        print("perfbench: neither dune nor opam is on PATH", file=sys.stderr)
        return 1
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
