#!/usr/bin/env python3
"""Build drli_bench from this checkout's sources, then run it once.

Run from anywhere inside the repository:

    python3 bench/e2e/run.py --workload dl-serve --seed 1 --seconds 10 --trace 0

The package in bench/e2e is configured and built (Release) into
$CARGO_TARGET_DIR when that is set, else .bench_build, relative to the
repository root. Build output goes to stderr, so the benchmark's last
line of standard output stays its JSON result. Every argument is passed
through to drli_bench; see bench/e2e/README.md for them.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

# One run (set-up, measurement, reference checks) must end within this.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def run_logged(cmd, cwd):
    """Runs a build step; on failure prints its output to stderr."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        sys.stderr.write("run.py: failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def main():
    package = Path(__file__).resolve().parent
    root = package.parent.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("run.py: the repository sources are missing "
                         "(expected %s/src)\n" % root)
        return 2

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    if not (build / "CMakeCache.txt").is_file():
        sys.stderr.write("run.py: configuring %s\n" % build)
        if not run_logged(["cmake", "-S", str(package), "-B", str(build),
                           "-DCMAKE_BUILD_TYPE=Release"], root):
            return 2
    if not run_logged(["cmake", "--build", str(build), "--target",
                       "drli_bench", "-j", BUILD_JOBS], root):
        return 2

    work = build / "work"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(build / "drli_bench"), "--work-dir", str(work),
           "--trace-out", str(build / "bench-trace.json")] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: drli_bench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
