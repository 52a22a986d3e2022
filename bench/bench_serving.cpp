// Serving bench: sweep the open-loop arrival rate over the request-driven
// inference path (runtime/inference.hpp) and price the semantic halo
// cache + micro-batching against the naive per-query path. For each QPS
// in the sweep the same pubmed query stream is served twice:
//   * naive  — no halo cache, batch_max=1 (every query dispatches alone
//              and re-fetches its whole remote neighborhood);
//   * cached — the default serving path (semantic-group halo cache,
//              micro-batching under the latency deadline).
// In the committed BENCH_serving.json snapshot, `real_time` is the
// measured wall time of one InferenceServer::run() (median of
// kTimedRuns); the modelled latency quantiles, hit rate and fetched MB
// live in named fields, so they diff exactly on any host.
//
// Acceptance gates (non-zero exit on failure):
//   * at the top of the sweep — where the arrival rate is past the naive
//     path's service capacity and its queue grows — the cached+batched
//     p99 must beat the naive p99: the serving-side payoff of the paper's
//     fused-row compression has to show up at the tail under load, not
//     just in the byte counts. (At low rates batching deliberately trades
//     tail latency for throughput — the head of a batch waits out the
//     deadline — so the low-QPS rows are reported, not gated.)
//   * at every swept QPS the cache must actually engage (hit rate > 0)
//     and fetch strictly fewer halo bytes than the naive path.
//
// Flags: --scale <f> (default 0.1), --seed <n>, --parts <n> (default 4),
// --json <path> (google-benchmark JSON for
// scripts/check_bench_regression.py), plus the shared scenario flags —
// --queries / --serve-batch / --deadline-ms reshape the base serving
// config for both arms of the comparison.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "scgnn/common/timer.hpp"
#include "scgnn/graph/dataset.hpp"

namespace {

using namespace scgnn;

constexpr double kQpsSweep[] = {1000.0, 4000.0, 16000.0};
/// Timed serving passes per row; the median is reported.
constexpr int kTimedRuns = 5;

struct Row {
    double qps = 0.0;
    const char* mode = "naive";
    runtime::ServeResult r;
    double wall_ns = 0.0;  ///< median measured wall time of run()
};

/// Serve the stream kTimedRuns times; returns the median wall time in ns.
double time_runs(const runtime::InferenceServer& server,
                 runtime::ServeResult& out) {
    std::vector<double> ns;
    for (int i = 0; i < kTimedRuns; ++i) {
        const WallTimer t;
        out = server.run();
        ns.push_back(t.seconds() * 1e9);
    }
    std::nth_element(ns.begin(), ns.begin() + kTimedRuns / 2, ns.end());
    return ns[kTimedRuns / 2];
}

void write_json(const char* path, const std::vector<Row>& rows, double scale,
                std::uint32_t queries) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json output '%s'\n", path);
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"context\": {\"library\": \"scgnn.bench.serving\","
                 " \"dataset\": \"pubmed\", \"scale\": %.3f, \"queries\": %u},\n"
                 "  \"benchmarks\": [\n",
                 scale, queries);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        // real_time is measured; the modelled figures are named fields.
        std::fprintf(
            f,
            "    {\"name\": \"BM_Serving/qps:%g/%s\", "
            "\"real_time\": %.6f, \"time_unit\": \"ns\", "
            "\"p50_ms\": %.17g, \"p99_ms\": %.17g, \"p999_ms\": %.17g, "
            "\"hit_rate\": %.17g, \"halo_mb\": %.17g}%s\n",
            r.qps, r.mode, r.wall_ns, r.r.p50_ms, r.r.p99_ms,
            r.r.p999_ms, r.r.hit_rate, r.r.halo_mb,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    runtime::ScenarioConfig scn;
    double scale = 0.1;
    std::uint64_t seed = 7;
    std::uint32_t parts_n = 4;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (runtime::Scenario::parse_flag(argc, argv, i, scn)) continue;
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
            scale = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--parts") == 0 && i + 1 < argc)
            parts_n = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    runtime::Scenario::activate(scn);

    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, scale, seed);
    benchutil::print_dataset(d);
    std::printf("# serving: %u queries, batch_max %u, deadline %.2f ms\n",
                scn.serve.queries, scn.serve.batch_max,
                scn.serve.deadline_ms);

    const partition::Partitioning parts = partition::make_partitioning(
        scn.pipeline.algo, d.graph, parts_n, seed);
    std::vector<Row> rows;
    for (const double qps : kQpsSweep) {
        for (const bool cached : {false, true}) {
            runtime::ScenarioConfig arm = scn;
            arm.mode = runtime::ScenarioMode::kServe;
            arm.pipeline.num_parts = parts_n;
            arm.pipeline.partition_seed = seed;
            arm.serve.qps = qps;
            if (!cached) {
                arm.serve.halo_cache = false;
                arm.serve.batch_max = 1;
                arm.serve.deadline_ms = 0.0;
            }
            Row row;
            row.qps = qps;
            row.mode = cached ? "cached" : "naive";
            // build() validates and inherits the training-side knobs; the
            // server is built here so only run() is timed.
            const runtime::Scenario scenario =
                runtime::Scenario::build(std::move(arm));
            const runtime::InferenceServer server(d, parts,
                                                  scenario.config().serve);
            row.wall_ns = time_runs(server, row.r);
            rows.push_back(std::move(row));
        }
    }

    Table table({"QPS", "mode", "batches", "mean batch", "p50 ms", "p99 ms",
                 "p99.9 ms", "hit rate", "halo MB", "run wall ms"});
    for (const Row& r : rows)
        table.add_row({Table::num(r.qps, 0), r.mode,
                       Table::num(r.r.batches), Table::num(r.r.mean_batch, 2),
                       Table::num(r.r.p50_ms, 3), Table::num(r.r.p99_ms, 3),
                       Table::num(r.r.p999_ms, 3),
                       Table::num(r.r.hit_rate, 4),
                       Table::num(r.r.halo_mb, 3),
                       Table::num(r.wall_ns * 1e-6, 3)});
    std::printf("\n%s\n", table.str().c_str());

    if (json_path != nullptr)
        write_json(json_path, rows, scale, scn.serve.queries);

    // Gate 1: under load (the top of the sweep) caching + batching must
    // improve the tail over the naive per-query path.
    {
        const Row& naive = rows[rows.size() - 2];
        const Row& cached = rows[rows.size() - 1];
        if (!(cached.r.p99_ms < naive.r.p99_ms)) {
            std::fprintf(stderr,
                         "FAIL: qps=%g cached p99 %.3f ms >= naive p99 "
                         "%.3f ms — the halo cache must buy back tail "
                         "latency under load\n",
                         naive.qps, cached.r.p99_ms, naive.r.p99_ms);
            return 1;
        }
    }
    // Gate 2: the cache engages and saves bytes at every swept rate.
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        const Row& naive = rows[i];
        const Row& cached = rows[i + 1];
        if (cached.r.hit_rate <= 0.0) {
            std::fprintf(stderr,
                         "FAIL: qps=%g cached run never hit its halo "
                         "cache\n", naive.qps);
            return 1;
        }
        if (!(cached.r.halo_mb < naive.r.halo_mb)) {
            std::fprintf(stderr,
                         "FAIL: qps=%g cached run fetched %.3f MB >= "
                         "naive %.3f MB\n",
                         naive.qps, cached.r.halo_mb, naive.r.halo_mb);
            return 1;
        }
    }
    std::printf("# gates ok: cached+batched p99 beats naive under load, "
                "cache saves halo bytes at every swept QPS\n");
    return 0;
}
