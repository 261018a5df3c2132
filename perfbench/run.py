#!/usr/bin/env python3
"""Builds and runs the ZHT benchmark.

    python3 perfbench/run.py --workload meta-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The benchmark is compiled from the
checkout's src/ (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset; persistent stores and span
dumps go there too. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics that
BENCHMARK.json names with --trace 0, its per-layer metrics with --trace 1.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "zht_server.h")):
        log("run.py: no ZHT sources under %s/src" % ROOT)
        return None
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(out, "zht_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    data_root = os.path.join(out, "data")
    os.makedirs(data_root, exist_ok=True)

    cmd = [binary, "--data-root", data_root]
    if args.selftest:
        return subprocess.run(cmd + ["--selftest"], timeout=600).returncode
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "spans-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("run.py: benchmark exited with %d" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run.py: benchmark printed no result")
        return 1
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("run.py: metric %s missing or in another unit" % m["name"])
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
