#!/usr/bin/env bash
# Build the benchmark program and run every workload once, printing each
# metric by name with its value, unit and sample count.
#
#   benchmark/run.sh [--trace] [--smoke] [--seed N] [--seconds S]
#
# Untraced runs print the end-to-end metrics plus each mode's own outcomes
# (time to target, loss, accuracy; serving capacity and wall QPS). --trace
# prints the per-layer metrics instead and writes
# <build>/trace/<workload>.trace.json and .layers.json. --smoke runs tiny
# inputs for about a second each. Exits non-zero when any run fails or any
# correctness check does not hold.
set -euo pipefail
cd "$(dirname "$0")/.."

# Evaluate a Python expression over BENCHMARK.json (bound to `d`).
spec() {
  python3 -c "import json; d = json.load(open('BENCHMARK.json')); print($1)"
}

trace=0
smoke=()
seed=1
seconds=$(spec 'd["run_seconds"]')
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace=1 ;;
    --smoke) smoke=(--smoke); seconds=1 ;;
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    *) echo "usage: $0 [--trace] [--smoke] [--seed N] [--seconds S]" >&2
       exit 2 ;;
  esac
  shift
done

status=0
for w in $(spec '" ".join(w["name"] for w in d["workloads"])'); do
  echo "== $w (seed $seed)"
  if ! out=$(python3 benchmark/run.py --workload "$w" --seed "$seed" \
               --seconds "$seconds" --trace "$trace" "${smoke[@]}"); then
    status=1
    continue
  fi
  printf '%s\n' "$out" | sed '$d'
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
print("# correct=%s attempted=%d failed=%d"
      % (r["correct"], r["attempted"], r["failed"]))
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)' || status=1
done
exit $status
