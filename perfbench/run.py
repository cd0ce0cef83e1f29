#!/usr/bin/env python3
"""Builds perfbench from the checkout it sits in and runs it.

    python3 perfbench/run.py --workload batched --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest   # negative controls, FLOP model
    python3 perfbench/run.py --quick      # every workload briefly, both modes

The build goes to .bench_build/perfbench at the root of the checkout
(CMake, Release, the repository's own CMakeLists.txt with its tests,
benches and examples switched off). A traced run writes its Chrome
trace to .bench_build/traces/. The last line of standard output is the
benchmark's JSON result; build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; the binary gets what is left after the
# (incremental) build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % timeout)
    return done.returncode, done.stdout


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quick():
    """Runs every workload for 2 s, untraced and traced, and checks that
    each result line is correct and carries exactly the metrics
    BENCHMARK.json declares for its mode."""
    spec = benchmark_spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, out = run_binary(["--workload", workload, "--seed", "1",
                                    "--seconds", "2", "--trace", trace,
                                    "--trace-file",
                                    os.path.join(TRACE_DIR, "quick.json")])
            result = json.loads(out.strip().splitlines()[-1])
            names = set(result["metrics"])
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1
                  and names == (per_layer if trace == "1" else end_to_end))
            problems += not ok
            print("%-14s trace %s: %s (%d metrics, %d attempted)"
                  % (workload, trace, "ok" if ok else "FAIL", len(names),
                     result["attempted"]))
    print("quick mode: %s" % ("PASS" if problems == 0 else "FAIL"))
    return 0 if problems == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.quick):
        parser.error("give --workload, --selftest or --quick")

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    if args.selftest:
        code, out = run_binary(["--selftest"])
        sys.stdout.write(out)
        return code
    if args.quick:
        return quick()

    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        binary_args += ["--trace-file", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run_binary(binary_args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
