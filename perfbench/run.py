#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # build, then run the benchmark's own tests

Builds perfbench/ (which pulls in the program from the repository root) into
.bench_build/ at the repository root, runs the benchmark binary, and prints
its human-readable lines followed by one JSON line holding the metrics that
BENCHMARK.json lists for the mode: `end_to_end` with --trace 0, `per_layer`
with --trace 1. Traced runs write their spans to .bench_out/. Exits non-zero
when the build fails, an output check fails, or a listed metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets, 1500) == 0


def listed_metrics(mode):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec[mode]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        if not build(["perfbench_test"]):
            return 1
        return run_quiet(["ctest", "--test-dir", BUILD, "--output-on-failure"], 1500)

    if not args.workload:
        ap.error("--workload is required")
    mode = "per_layer" if args.trace else "end_to_end"
    names = listed_metrics(mode)
    if not build(["perfbench"]):
        log("perfbench: build failed")
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, f"trace_{args.workload}_{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: no result line")
        return 1

    metrics = result.get("metrics", {})
    missing = [n for n in names if n not in metrics]
    if missing:
        log("perfbench: metrics missing from the run: " + ", ".join(missing))
        return 1
    out = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
