#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, compiling ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root, runs one workload and passes its report through. The last
line of standard output is the JSON result object.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test   # the benchmark's own tests
    python3 perfbench/run.py --smoke       # every workload, 1 s, both modes
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Runnable but not in BENCHMARK.json: its restart figures split into two
# kinds over seeds, and some seeds cannot restart at all (README.md).
UNGATED_WORKLOADS = ["starved_update"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "api" / "kvs.hpp").is_file():
        log("perfbench: library sources (src/) are missing from this checkout")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
        steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
        for cmd in steps:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
            if res.returncode != 0:
                log(res.stdout[-8000:])
                log("perfbench: build failed: " + " ".join(cmd))
                return None
    return out / target


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        # One file per workload (the latest traced run), so disk use stays bounded.
        cmd += ["--spans-out", str(spans / f"{workload}.csv")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(res.stdout)
        log(f"perfbench: {workload} exited with {res.returncode}")
        return res.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(res.stdout)
        log("perfbench: last line is not a JSON result")
        return 1, None
    got = list(result.get("metrics", {}))
    want = declared_metrics(trace)
    if sorted(got) != sorted(want) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"perfbench: metrics {got} do not match BENCHMARK.json {want}")
        return 1, None
    print("\n".join(lines[:-1]), flush=True)
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        if tests is None:
            return 1
        return subprocess.run([str(tests)], cwd=ROOT).returncode

    binary = build("perfbench")
    if binary is None:
        return 1

    if args.smoke:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
        for name in names:
            for trace in (False, True):
                code, result = run_once(binary, name, args.seed, 1, trace)
                if code != 0:
                    return code
                log(f"smoke {name} trace={int(trace)}: correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']}")
        return 0

    if not args.workload:
        ap.error("--workload is required")
    code, result = run_once(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    if code != 0:
        return code
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
