#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark for one workload.

    python3 perfbench/run.py --workload elephant --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in the repository's rlir_core) into the directory
named by CARGO_TARGET_DIR, default .bench_build. The binary prints an
environment stamp, then the result object; this script checks that the
result names every metric BENCHMARK.json lists for the mode, with its unit,
and re-prints it as the last line of standard output.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("repository sources not found next to perfbench/")
    binary = os.path.join(build_dir, "pipeline_bench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipeline_bench", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.path.isfile(binary):
        fail("build produced no pipeline_bench binary")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    # Relative: the agent's Unix socket lives here, and socket paths are
    # limited to ~108 bytes however deep the checkout is.
    out_dir = os.path.relpath(os.path.join(build_dir, "perfbench"))
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result (exit {proc.returncode}): {lines[-1]}")

    want = expected_metrics(args.trace)
    got = result.get("metrics", {})
    problems = [f"{name}: missing" for name in want if name not in got]
    problems += [f"{name}: unit {got[name].get('unit')} != {unit}"
                 for name, unit in want.items() if name in got and got[name].get("unit") != unit]
    problems += [f"{name}: not in BENCHMARK.json" for name in got if name not in want]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail(f"correctness checks failed (exit {proc.returncode})")


if __name__ == "__main__":
    main()
