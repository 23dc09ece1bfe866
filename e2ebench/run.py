#!/usr/bin/env python3
"""Build and run the end-to-end study/sweep benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload paper_study --seed 7 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all    # every workload in one process

The first call configures and builds e2ebench/ (the hcsched library from
src/ plus the e2e_bench program) into build-e2ebench/; later calls only
rebuild what changed. Build output goes to stderr. e2e_bench then runs with
the given arguments and the recorded seed state (e2ebench/seed_state.json);
its last stdout line is the JSON result. The exit code is non-zero when the
build or any correctness check fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / "build-e2ebench"


def build():
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    command = [str(BUILD / "e2e_bench"), *sys.argv[1:],
               "--state", str(HERE / "seed_state.json"),
               "--work-dir", str(BUILD / "work")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
