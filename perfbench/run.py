#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload packet_silo --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the simulator sources under src/) into
.bench_build/, or $CARGO_TARGET_DIR when it is set; later calls rebuild
only what changed. The benchmark binary then runs the workload and its
last line of standard output is the JSON result. Full records and span
files land in .bench_out/. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("packet_silo", "islands_tcp", "admission_churn", "flow_locality")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "cluster.h")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    made = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build_dir = build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                                cwd=ROOT).returncode)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "silo_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(build_dir, "silo_perfbench_ref"),
           "--git-describe", git_describe(),
           "--out-dir", out_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
