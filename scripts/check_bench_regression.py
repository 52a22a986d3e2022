#!/usr/bin/env python3
"""Diff a fresh bench_kernels JSON against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--threshold 1.30]

Two checks, both derived from the google-benchmark JSON:

  * per-benchmark regression: a benchmark whose real_time grew by more
    than --threshold x its baseline is flagged. Always warn-only —
    absolute times move with hardware and CI load, so even --strict
    never fails on a timing ratio.
  * modelled-field drift: benchmarks that carry deterministic modelled
    fields (final_loss / total_mb / mean_rate / migrated_mb /
    peak_comm_ms / active_min — e.g. BENCH_adaptive_rate or
    BENCH_elastic entries) are pipeline outputs, not wall times — they
    must diff exactly on any host. A mismatch is printed as DRIFT and is
    the one thing --strict turns into a failure: drifted numerics mean
    the model moved, not the clock.
"""

import argparse
import json
import sys

# Deterministic per-benchmark fields: modelled pipeline outputs that are
# bitwise reproducible, unlike real_time.
DETERMINISTIC_KEYS = ("final_loss", "total_mb", "mean_rate",
                      "migrated_mb", "peak_comm_ms", "active_min",
                      "p50_ms", "p99_ms", "p999_ms", "hit_rate", "halo_mb")

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
                    help="exit 1 on deterministic-field DRIFT (timing "
                         "ratios stay warn-only even here)")
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
    if args.strict and drift:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
