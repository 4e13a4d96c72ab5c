#!/usr/bin/env python3
"""Builds and runs the mtdb end-to-end benchmark.

Run from the root of the repository:

    python3 benchmark/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

The driver (benchmark/src) is compiled with CMake into .bench_build/ together
with the library sources under src/. Each workload runs in its own process.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. Per-run result files
(with the run stamp) and span dumps land in .bench_build/results/.

Exits non-zero when the build fails, a correctness oracle fails, or a metric
named in BENCHMARK.json is missing from a run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "mtdb_bench")
BINARY = os.path.join(BUILD_DIR, "mtdb_bench")
WORKLOADS = ["point_rw", "tpcw_browsing", "many_tenants", "live_migration"]
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def src_digest():
    """sha256 over src/ (paths and contents): identifies the measured code
    where no git metadata exists."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def wanted_metrics(trace):
    """Metric names BENCHMARK.json asks for, or None to keep all."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, args, stamp):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD_ROOT, "results"),
           "--run-dir", os.path.join(BUILD_ROOT, "run"),
           "--git-sha", stamp["git"], "--src-digest", stamp["src"]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        log(f"run.py: {workload} printed no result")
        return proc.returncode or 1, None
    return proc.returncode, result


def select(result, names, prefix=""):
    """Keeps the metrics BENCHMARK.json names; None if one is missing."""
    if names is None:
        return {prefix + k: v for k, v in result["metrics"].items()}
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("run.py: missing metrics: " + ", ".join(missing))
        return None
    return {prefix + n: result["metrics"][n] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        log("run.py: build failed")
        return 1
    stamp = {"git": git_sha(), "src": src_digest()}
    names = wanted_metrics(args.trace)

    if args.workload != "all":
        code, result = run_one(args.workload, args, stamp)
        if result is None:
            return code or 1
        metrics = select(result, names)
        if metrics is None:
            return 1
        result["metrics"] = metrics
        print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args, stamp)
        metrics = select(result, names, workload + ".") if result else None
        if result is None or metrics is None:
            combined["correct"] = False
            worst = worst or code or 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(metrics)
        worst = worst or code
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
