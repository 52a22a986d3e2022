#!/usr/bin/env bash
# Regenerate the committed kernel-benchmark baselines:
#
#   BENCH_kernels.json         — google-benchmark JSON of the kernel
#                                microbenchmarks (bench/bench_kernels.cpp),
#                                pinned to one worker thread so the rows
#                                time the kernels, not the pool;
#   BENCH_threads_scaling.json — the 1/2/4/8-thread sweep with bitwise
#                                identity checks (bench_threads_scaling);
#   BENCH_collectives.json     — the collective-algorithm × P sweep over
#                                the topology presets (bench_collectives).
#                                Purely modelled, so it diffs exactly on
#                                any host.
#   BENCH_adaptive_rate.json   — the compression-schedule Pareto sweep
#                                (bench_adaptive_rate): ef stacks under
#                                fixed/warmup/adaptive schedules, with the
#                                bytes-to-target-loss gate. final_loss,
#                                total_mb and mean_rate are modelled and
#                                deterministic, so they diff exactly too.
#   BENCH_elastic.json         — the elastic-membership sweep
#                                (bench_elastic): static vs leave/rejoin
#                                churn at P=16/64 on the hier presets.
#                                final_loss, migrated_mb, peak_comm_ms and
#                                active_min are modelled/deterministic and
#                                diff exactly.
#   BENCH_serving.json         — the inference-serving QPS sweep
#                                (bench_serving): naive vs cached+batched
#                                at 1k/4k/16k QPS. real_time is the
#                                measured wall time of one serving run;
#                                latency quantiles, hit rate and halo MB
#                                are modelled and diff exactly.
#
# Everything is pinned: fixed seeds, fixed scale, SCGNN_THREADS=1 for the
# microkernels. Run from anywhere:
#
#   scripts/bench_snapshot.sh [build-dir] [bench ...]
#
# build-dir defaults to ./build; naming benches (e.g. bench_serving)
# regenerates only their snapshots.
#
# CI's bench-smoke job re-runs the same benches and diffs against these
# files with scripts/check_bench_regression.py (warn-only — absolute times
# shift with hardware; the committed numbers document one pinned host).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift $(( $# > 0 ? 1 : 0 ))
benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
    benches=(bench_kernels bench_threads_scaling bench_collectives
             bench_adaptive_rate bench_elastic bench_serving)
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

if want bench_threads_scaling; then
    echo
    echo "== thread-scaling sweep (pool widths 1/2/4/8) =="
    "$build_dir/bench/bench_threads_scaling" \
        --scale 0.35 --seed 2024 \
        --json "$repo_root/BENCH_threads_scaling.json"
fi

if want bench_collectives; then
    echo
    echo "== collective sweep (algorithm x P over topology presets) =="
    "$build_dir/bench/bench_collectives" \
        --payload-mb 4 \
        --json "$repo_root/BENCH_collectives.json"
fi

if want bench_adaptive_rate; then
    echo
    echo "== adaptive-rate schedule sweep (ef stacks x fixed/warmup/adaptive) =="
    "$build_dir/bench/bench_adaptive_rate" \
        --json "$repo_root/BENCH_adaptive_rate.json"
fi

if want bench_elastic; then
    echo
    echo "== elastic-membership sweep (static vs churn at P=16/64) =="
    "$build_dir/bench/bench_elastic" \
        --json "$repo_root/BENCH_elastic.json"
fi

if want bench_serving; then
    echo
    echo "== inference-serving sweep (naive vs cached+batched x QPS) =="
    "$build_dir/bench/bench_serving" \
        --json "$repo_root/BENCH_serving.json"
fi

echo
echo "regenerated snapshots of: ${benches[*]}"
