#!/usr/bin/env python3
"""Build and run one perfbench workload (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark from the sources in this checkout (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, runs it with every GPUSEL_*
environment override removed, and prints its output.  The last line of
standard output is the result object.  Exits non-zero, without a result,
when the sources are missing, the build fails or the run does not produce
a well-formed result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "gpusel_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs],
    ]
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step exited with {done.returncode}: {' '.join(cmd)}")
    return os.path.join(build_dir, BINARY)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, f"spans_{args.workload}.json")]
    # Fault schedules, sanitizers, backend/stream/SIMD overrides and worker
    # counts would all change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUSEL_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
