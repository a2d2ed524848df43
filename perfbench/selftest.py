#!/usr/bin/env python3
"""Tiny-size self-test of the pipeline benchmark.

    python3 perfbench/selftest.py

Runs every workload end to end at tiny size, untraced and traced, through
run.py. Each run must pass every correctness check, report no failed
operation, and print every metric BENCHMARK.json names for its mode, each
with its unit and a finite value. The traced run must also write its Chrome
trace. Exits non-zero on the first problem.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            seed = 7
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{label}: metric {metric['name']} missing or malformed")
            if not trace:
                for name in ("pipeline_pps", "epoch_lag_ms_p50", "query_ms_p50", "ok_frac",
                             "flow_mean_relerr_p50", "state_bytes_per_flow", "setup_s"):
                    if result["metrics"][name]["value"] <= 0:
                        problems.append(f"{label}: {name} is not positive")
            else:
                trace_file = os.path.join(build_dir, "perfbench", f"trace-{workload}-{seed}.json")
                if not os.path.isfile(trace_file):
                    problems.append(f"{label}: no Chrome trace at {trace_file}")
                else:
                    with open(trace_file) as f:
                        if not json.load(f)["traceEvents"]:
                            problems.append(f"{label}: empty Chrome trace")
            print(f"{label}: ok" if not problems else f"{label}: checked", flush=True)
    if problems:
        for p in problems:
            print("FAIL " + p, file=sys.stderr)
        sys.exit(1)
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
