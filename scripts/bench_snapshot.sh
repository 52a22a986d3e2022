#!/usr/bin/env bash
# Regenerate the committed benchmark baselines:
#
#   BENCH_kernels.json         — google-benchmark JSON of the kernel
#                                microbenchmarks (bench/bench_kernels.cpp),
#                                pinned to one worker thread so the rows
#                                time the kernels, not the pool;
#   BENCH_paper.json           — every paper table and figure, the system
#                                sweeps (collectives, rate schedules,
#                                elastic churn, serving, thread scaling)
#                                and the claim/<id> verdicts and gates
#                                (bench_paper) at default flags. real_time
#                                is the measured wall time of the run
#                                behind each row; `value` fields are
#                                modelled and diff exactly, `measured`
#                                fields are not diffed.
#
# Everything is pinned: fixed seeds, fixed scale, SCGNN_THREADS=1 for the
# microkernels. Run from anywhere:
#
#   scripts/bench_snapshot.sh [build-dir] [bench ...]
#
# build-dir defaults to ./build; naming a bench (bench_kernels or
# bench_paper) regenerates only its snapshot.
#
# CI's bench-smoke job re-runs the same benches and diffs against these
# files with scripts/check_bench_regression.py --strict: absolute times are
# warn-only (they shift with hardware; the committed numbers document one
# pinned host), while a drifted modelled field or a missing row fails.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift $(( $# > 0 ? 1 : 0 ))
benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
    benches=(bench_kernels bench_paper)
fi
want() { [[ " ${benches[*]} " == *" $1 "* ]]; }

for bin in "${benches[@]}"; do
    if [[ ! -x "$build_dir/bench/$bin" ]]; then
        echo "error: $build_dir/bench/$bin not built" >&2
        echo "hint: cmake --build $build_dir --target $bin" >&2
        exit 1
    fi
done

if want bench_kernels; then
    echo "== kernel microbenchmarks (1 thread) =="
    SCGNN_THREADS=1 "$build_dir/bench/bench_kernels" \
        --benchmark_min_time=0.2 \
        --benchmark_out="$repo_root/BENCH_kernels.json" \
        --benchmark_out_format=json
    echo
    echo "== kernel snapshot summary =="
    python3 "$repo_root/scripts/check_bench_regression.py" \
        "$repo_root/BENCH_kernels.json" "$repo_root/BENCH_kernels.json"
fi

if want bench_paper; then
    echo
    echo "== paper tables, figures, sweeps, claims and gates (default flags) =="
    "$build_dir/bench/bench_paper" --json "$repo_root/BENCH_paper.json"
fi

echo
echo "regenerated snapshots of: ${benches[*]}"
