#!/usr/bin/env python3
"""Diff a fresh bench JSON against its committed BENCH_*.json baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--threshold 1.30]
                              [--strict]

Works on any google-benchmark-shaped JSON: bench_kernels' own output and
the JSON that bench_paper writes with --json. Three checks:

  * per-benchmark regression: a benchmark whose real_time grew by more
    than --threshold x its baseline is flagged. Always warn-only —
    absolute times move with hardware and CI load, so even --strict
    never fails on a timing ratio.
  * modelled-field drift: bench_paper's `value` field holds a modelled
    pipeline output or a claim/<id> verdict, not a wall time, so it
    must diff exactly on any host. A mismatch is printed as DRIFT.
    Host-measured figures live in a separate `measured` field and are
    never diffed.
  * missing rows: a baseline benchmark absent from the fresh run is
    printed as MISSING, so a bench that silently drops a row cannot pass.

--strict turns DRIFT and MISSING into a failure (exit 1): drifted
numerics mean the model moved, not the clock.
"""

import argparse
import json
import sys

# Deterministic per-benchmark fields: modelled pipeline outputs that are
# bitwise reproducible, unlike real_time.
DETERMINISTIC_KEYS = ("value",)

def load_times(path):
    """(name -> real_time, name -> deterministic fields); errored rows
    are left out."""
    with open(path) as f:
        doc = json.load(f)
    times = {}
    extras = {}
    for b in doc.get("benchmarks", []):
        if b.get("error_occurred"):
            continue
        times[b["name"]] = float(b["real_time"])
        fields = {k: b[k] for k in DETERMINISTIC_KEYS if k in b}
        if fields:
            extras[b["name"]] = fields
    return times, extras


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=1.30,
                    help="flag fresh/baseline time ratios above this")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on deterministic-field DRIFT or a MISSING "
                         "baseline row (timing ratios stay warn-only even "
                         "here)")
    args = ap.parse_args()

    base, base_extras = load_times(args.baseline)
    fresh, fresh_extras = load_times(args.fresh)

    regressions = []
    for name, t in sorted(fresh.items()):
        if name not in base:
            print(f"  new      {name}: {t:.0f} ns (no baseline)")
            continue
        ratio = t / base[name] if base[name] > 0 else float("inf")
        mark = "SLOWER" if ratio > args.threshold else "ok"
        print(f"  {mark:<8} {name}: {base[name]:.0f} -> {t:.0f} ns "
              f"({ratio:.2f}x)")
        if ratio > args.threshold:
            regressions.append((name, ratio))

    # Every baseline row must still be produced.
    missing = sorted(set(base) - set(fresh))
    for name in missing:
        print(f"  MISSING  {name}: in the baseline, not in the fresh run")

    # Deterministic modelled fields must match the baseline exactly.
    drift = []
    for name in sorted(fresh_extras):
        for key, val in fresh_extras[name].items():
            if key in base_extras.get(name, {}) \
                    and val != base_extras[name][key]:
                drift.append((name, key))
                print(f"  DRIFT    {name}.{key}: "
                      f"{base_extras[name][key]} -> {val}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) exceeded the "
              f"{args.threshold:.2f}x threshold (warn-only)")
    if drift:
        print(f"\n{len(drift)} deterministic modelled field(s) drifted "
              "from the baseline"
              + ("" if args.strict else " (warn-only)"))
    if missing:
        print(f"\n{len(missing)} baseline benchmark(s) missing from the "
              "fresh run" + ("" if args.strict else " (warn-only)"))
    if args.strict and (drift or missing):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
