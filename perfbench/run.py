#!/usr/bin/env python3
"""Build and run the snailqc end-to-end benchmark (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <fig14-sweep|serve-mixed|fig15-nuop>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark binary and the snailqc library it links are compiled
from this checkout's sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); scratch files go to its work/
subdirectory.  The last line of standard output is the result object.
A traced run (--trace 1) first runs the checker self-test and, when
tools/trace_lint.py is present, lints the span file it wrote.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then (re)build incrementally; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def run(command, timeout):
    try:
        return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    # The benchmark measures the checkout it sits in; without the
    # program's sources there is nothing to build or run.
    if not os.path.isfile(os.path.join(ROOT, "src", "transpiler",
                                       "pass_manager.hpp")):
        fail(f"snailqc sources not found under {ROOT}/src")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    binary = build(build_dir)

    if args.self_test or args.trace:
        selftest = run([binary, "--self-test"], RUN_TIMEOUT_S)
        print(selftest.stdout, end="", file=sys.stdout if args.self_test
              else sys.stderr)
        if args.self_test or selftest.returncode != 0:
            sys.exit(selftest.returncode)

    work_dir = os.path.join(build_dir, "work")
    done = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir], RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(done.stdout, end="")
        fail(f"no result line (exit code {done.returncode})")

    code = done.returncode
    trace = os.path.join(work_dir, f"trace-{args.workload}.json")
    lint = os.path.join(ROOT, "tools", "trace_lint.py")
    if args.trace and os.path.isfile(lint):
        linted = subprocess.run([sys.executable, lint, trace],
                                stdout=sys.stderr, stderr=sys.stderr,
                                timeout=RUN_TIMEOUT_S, check=False)
        if linted.returncode != 0:
            print(f"perfbench: {trace} fails trace_lint", file=sys.stderr)
            result["correct"] = False
            code = code or 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, sort_keys=True))
    sys.exit(code)


if __name__ == "__main__":
    main()
