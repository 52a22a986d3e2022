#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The first call configures and builds the
Release program scgnn_bench (benchmark/CMakeLists.txt) under
$CARGO_TARGET_DIR/cmake, or .bench_build/cmake when the variable is unset;
later calls only re-check the build. Its report lines pass through to
stdout, and the last stdout line is the result: {"correct", "attempted",
"failed", "metrics"}, where the metrics are the `end_to_end` list of
BENCHMARK.json for --trace 0 and its `per_layer` list for --trace 1. Exits
1 without a result when the build fails or scgnn_bench produces no report.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "cmake"


def build(out):
    """Configure once, then build scgnn_bench; build output goes to stderr."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(out), "-j", jobs, "--target",
                  "scgnn_bench"]]
        if not (out / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                # A failed configure must not leave a cache that later
                # calls would take for a configured build.
                if cmd[1] == "-S":
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build step failed: {' '.join(cmd)}")
    return out / "scgnn_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs for a quick end-to-end check")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = build_dir().parent / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"scgnn_bench exited {done.returncode} without a report")
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail(f"scgnn_bench did not report metric {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
