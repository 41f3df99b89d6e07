#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench.cc).

    python3 perfbench/run.py --workload spgemm_blocks --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository. The first run
configures and builds the library and the benchmark into
.bench_build/perfbench (RelWithDebInfo, the repository's default build
type); later runs only re-check the build. The benchmark process gets an
environment without ATMX_* variables, so the library runs with its
defaults: its own trace recorder, audit ledger and stats server stay off.

The last line of standard output is the benchmark's JSON result. Exits
non-zero, printing no result, when the library sources are missing, the
build fails or the benchmark fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "atmx_perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run(cmd):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ATMX_")}
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"benchmark failed: {e}")
        return 1
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-test")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if args.selftest:
        return run([str(BUILD / "perfbench_selftest")])
    cmd = [str(BUILD / "atmx_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
