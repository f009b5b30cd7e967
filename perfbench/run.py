#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds papd and the pap_bench harness from
source into .bench_build/ (an optimized CMake build of ../src and
../tools/papd.cpp; the first run compiles, later runs only relink what
changed), then runs one workload. Build output goes to stderr; stdout is
the harness's report, whose last line is the JSON result. Exits nonzero,
without a result line, when the build fails or any check or guard fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_hot", "serve_cold", "admit_churn", "sim_families")
BUILD_TYPE = "RelWithDebInfo"  # the repo's default: -O2 -g -DNDEBUG
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    # Relative paths from the root keep papd's unix socket path short.
    os.chdir(os.path.dirname(here))
    build = os.path.join(".bench_build", "perfbench")
    workdir = os.path.join(".bench_build", "run")
    for needed in ("src/CMakeLists.txt", "tools/papd.cpp"):
        if not os.path.isfile(needed):
            sys.stderr.write(f"run.py: {needed} is missing: not a checkout "
                             "of the repository\n")
            return 1

    def step(cmd):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.stderr.write(f"run.py: failed: {' '.join(cmd)}\n")
            sys.exit(1)

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", "perfbench", "-B", build,
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    step(["cmake", "--build", build, "--target", "papd", "pap_bench",
          "-j", str(os.cpu_count() or 1)])
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(build, "pap_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--papd", os.path.join(build, "papd"), "--workdir", workdir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: pap_bench exceeded {RUN_TIMEOUT_S} s\n")
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
