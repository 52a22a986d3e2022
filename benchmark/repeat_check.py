#!/usr/bin/env python3
"""Repeat the untraced benchmark and judge its spread against the bounds.

Collect N runs per workload (seeds base..base+N-1; the workload order
alternates every round so no workload always runs first):

    python3 benchmark/repeat_check.py run --runs 10 --out a.json \
        [--workloads w1,w2] [--seed-base 1] [--seconds 20]

prints, per (metric, workload), the median, the quartiles and the spread
(quartile distance over median). Compare two such sets:

    python3 benchmark/repeat_check.py compare a.json b.json

reports each (metric, workload) as `agree` (medians within the metric's
bound of each other), `disagree` (further apart; the `worse` column says
which way) or `unresolved` (either set's spread exceeds the bound). Both commands read the metrics,
bounds and workloads from BENCHMARK.json and run from the checkout root.
Quartiles are `statistics.quantiles(values, n=4)`. The exit status is 1 when
a run fails, a result is incorrect, or a comparison disagrees.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}")
    return json.loads(done.stdout.splitlines()[-1])


def cmd_run(args):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in SPEC["workloads"]])
    seconds = args.seconds or SPEC["run_seconds"]
    results = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r = run_once(w, args.seed_base + i, seconds)
            ok = ok and r["correct"] and r["failed"] == 0
            results[w].append(r)
            print(f"# {w} seed {args.seed_base + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
    Path(args.out).write_text(json.dumps(results, indent=1))
    print(f"{'metric':<18} {'workload':<26} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w, runs in results.items():
        for name, m in METRICS.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            steady = name == "setup_s" or s["spread"] <= m["bound"] / 3
            flag = "" if steady else "  > bound/3"
            print(f"{name:<18} {w:<26} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {m['bound']:>6}{flag}")
    return 0 if ok else 1


def worse_by(a, b, better):
    """Relative amount by which median b is worse than median a (negative
    when b is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    rel = (b - a) / abs(a)
    return rel if better == "lower" else -rel


def cmd_compare(args):
    sets = [json.loads(Path(p).read_text()) for p in (args.a, args.b)]
    status = 0
    print(f"{'metric':<18} {'workload':<26} {'median A':>12} {'median B':>12} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for w in sets[0]:
        for name, m in METRICS.items():
            sa, sb = (summary([r["metrics"][name]["value"] for r in s[w]])
                      for s in sets)
            worse = worse_by(sa["median"], sb["median"], m["better"])
            spread = max(sa["spread"], sb["spread"])
            if name != "setup_s" and spread > m["bound"]:
                verdict = "unresolved"
            elif abs(worse) > m["bound"]:
                verdict = "disagree"
                status = 1
            else:
                verdict = "agree"
            print(f"{name:<18} {w:<26} {sa['median']:>12.6g} "
                  f"{sb['median']:>12.6g} {worse:>8.4f} {m['bound']:>6}  "
                  f"{verdict}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--seconds", type=float, default=0)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
