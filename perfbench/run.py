#!/usr/bin/env python3
"""Build and run the adaptive-runtime benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig3_rotate --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark program from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and forwards the program's output; its last line is the JSON
result. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig3_rotate", "serve_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src" / "core" / "runtime.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if rc != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "sapp_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=0,
                    help="measure exactly this many steps (self-test)")
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp", str(build_dir / "tmp")]
    if args.steps > 0:
        cmd += ["--steps", str(args.steps)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
