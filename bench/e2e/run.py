#!/usr/bin/env python3
"""Build rap_bench from this source tree and run it.

  python3 bench/e2e/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

Configures bench/e2e as its own CMake project in .bench_build at the
repository root (Release), builds rap_bench and rap_serve there, and runs
rap_bench with the given arguments from the repository root. Build output
goes to stderr, so the last line of stdout is rap_bench's result line. Exits
non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # A configure that failed part-way leaves a cache but no Makefile.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "rap_bench", "-j", JOBS],
        check=True, stdout=sys.stderr, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    # Become rap_bench, so a signal meant for the benchmark reaches it.
    binary = os.path.join(BUILD, "rap_bench")
    os.chdir(ROOT)
    os.execv(binary, [binary, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
