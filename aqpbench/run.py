#!/usr/bin/env python3
"""Builds bench_e2e from source, then runs it with the given arguments.

    python3 aqpbench/run.py --workload tpch-sf1 --seed 4242 --seconds 10 \
        --trace 0 [--json FILE]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, as a Release build of this directory's CMake package,
which compiles the library from the sources one directory up. Build output
goes to stderr, so the last line on stdout stays the benchmark's JSON
result; a failed build exits nonzero without printing one.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd):
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        sys.exit("build step failed: " + " ".join(cmd))


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    # At most 4 compile jobs keeps the build's memory small.
    run(["cmake", "--build", build, "--target", "bench_e2e",
         "-j", str(min(4, os.cpu_count() or 1))])
    exe = os.path.join(build, "bench_e2e")
    os.chdir(ROOT)
    # Become the benchmark process: nothing is left running behind it.
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
