#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Every argument goes to perfbench/main.exe (see perfbench/NOTES.md).  Build
output goes to stderr, so the last line of stdout stays the benchmark's
JSON result.
"""

import os
import shutil
import subprocess
import sys


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout: keep the build in _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
