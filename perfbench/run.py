#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build with dune's shared cache off, so nothing
is written outside the checkout. Build output goes to stderr; the
benchmark's last line on stdout is its JSON result. See README.md.
"""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def build_env():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune") is None:
        # A shell without opam's environment: put an opam switch's tools
        # (dune and the compiler it calls) on the path.
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if found:
            env["PATH"] = os.path.dirname(found[-1]) + os.pathsep + env.get("PATH", "")
    return env


def main():
    os.chdir(ROOT)
    env = build_env()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    # The benchmark and its serve daemon share one CPU. On a small VM a
    # client and daemon on different vCPUs wake each other across CPUs,
    # and each serve round then lands in one of two speeds far apart
    # (see README.md, Steadiness). The daemon inherits the affinity.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("perfbench: pinned with its daemon to CPU %d" % cpu)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
