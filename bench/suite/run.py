#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds bench/suite with CMake into .bench_build/ at the repository root
(the first run builds; later runs only re-check the build), then runs
cswitch_benchmark on the pinned model data/cswitch_model.txt. The
program's report is passed through; its last line, the result JSON, is
printed only when the run succeeded and reported exactly the metrics
BENCHMARK.json lists for the mode (end_to_end untraced, per_layer
traced). Each run's full result envelope is kept in
.bench_build/results/, and a traced run's Chrome trace in
.bench_build/traces/<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("dacapo_rtime", "dacapo_monitor_only", "op_stream",
             "session_server")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds cswitch_benchmark; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"CollectionSwitch sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "cswitch_benchmark", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return BUILD / "cswitch_benchmark"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    (BUILD / "results").mkdir(exist_ok=True)
    # Paths relative to the repository root, cswitch_benchmark's working
    # directory, so result files name no host path.
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--model", "data/cswitch_model.txt",
           "--golden", "bench/suite/golden.txt",
           "--json", f".bench_build/results/{args.workload}-s{args.seed}"
                     f"-t{args.trace}.json",
           "--git-sha", git_sha()]
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace", f".bench_build/traces/{args.workload}.json"]
    # The framework reads CSWITCH_* settings (tuning artifacts, the
    # explain ledger, NUMA overrides); the benchmark pins its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSWITCH_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"cswitch_benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"cswitch_benchmark exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("the last output line is not the result JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"metrics {list(result['metrics'])} do not match "
             f"BENCHMARK.json {expected}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
