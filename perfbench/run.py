#!/usr/bin/env python3
"""Build and run the BEACON simulator's host-performance benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fm_seed_pool512 --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first form builds beacon_perfbench (a Release build of the simulator
libraries plus perfbench/*.cc, under .bench_build/ in the checkout)
and runs one measured run; the last line it prints is the result JSON.
The second builds everything and runs the self-tests (JSON writer,
and per workload the determinism and checker-armed checks).
Build output goes to stderr, so stdout carries only the benchmark's.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fm_seed_pool512", "kmer_count_switch", "qos_service_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step with its output on stderr; fail on error."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
               "--target", *targets])


def git_rev():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    # The ceiling keeps git from adopting a repository above the
    # checkout when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    if args.selftest:
        build(["beacon_perfbench", "perfbench_json_test"])
        done = subprocess.run(["ctest", "--test-dir", str(BUILD),
                               "--output-on-failure"])
        return done.returncode

    if args.workload is None:
        fail("--workload is required")
    build(["beacon_perfbench"])
    sys.stdout.flush()
    done = subprocess.run([str(BUILD / "beacon_perfbench"),
                           "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--git-rev", git_rev()])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
