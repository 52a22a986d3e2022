// Thread-scaling sweep for the shared pool: wall time of the four
// parallelised layers — dense GEMM, SpMM aggregation, k-means grouping and
// one full distributed epoch — at 1/2/4/8 worker threads. Alongside the
// times, every configuration's output is checksummed against the 1-thread
// run: the pool's determinism contract says all of them must match
// bit-for-bit, so the "identical" column doubles as a live regression
// check. `--threads` is ignored here (the sweep pins its own widths).
#include <functional>

#include "bench_util.hpp"

#include "scgnn/common/parallel.hpp"
#include "scgnn/common/timer.hpp"
#include "scgnn/core/kmeans.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/tensor/ops.hpp"

namespace {

using namespace scgnn;

constexpr unsigned kWidths[] = {1, 2, 4, 8};

/// FNV-1a over raw bytes: exact, order-sensitive fingerprint of a result.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t checksum(const tensor::Matrix& m) {
    return fnv1a(m.data(), m.rows() * m.cols() * sizeof(float));
}

struct Sweep {
    double ms[4] = {0, 0, 0, 0};
    bool identical = true;
};

/// Run `work` at every pool width, timing the best of `reps` and comparing
/// each width's checksum against the width-1 baseline.
Sweep sweep(int reps, const std::function<std::uint64_t()>& work) {
    Sweep s;
    std::uint64_t base = 0;
    for (std::size_t wi = 0; wi < 4; ++wi) {
        ThreadCountGuard guard(kWidths[wi]);
        double best = 1e300;
        std::uint64_t sum = 0;
        for (int r = 0; r < reps; ++r) {
            WallTimer t;
            sum = work();
            best = std::min(best, t.millis());
        }
        s.ms[wi] = best;
        if (wi == 0) base = sum;
        else if (sum != base) s.identical = false;
    }
    return s;
}

/// Rows accumulated for the optional --json snapshot.
std::vector<std::pair<std::string, Sweep>> g_results;

void add_row(Table& table, const char* name, const Sweep& s) {
    table.add_row({name, Table::num(s.ms[0], 1), Table::num(s.ms[1], 1),
                   Table::num(s.ms[2], 1), Table::num(s.ms[3], 1),
                   Table::num(s.ms[0] / std::max(1e-9, s.ms[3]), 2) + "x",
                   s.identical ? "yes" : "NO"});
    g_results.emplace_back(name, s);
}

/// Machine-readable sweep snapshot (scripts/bench_snapshot.sh commits it
/// as BENCH_threads_scaling.json; CI diffs future runs against it).
void write_json(const benchutil::Options& opt) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json output '%s'\n",
                     opt.json.c_str());
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"schema\": \"scgnn.bench.threads/1\",\n"
                 "  \"scale\": %.4f,\n  \"seed\": %llu,\n"
                 "  \"widths\": [1, 2, 4, 8],\n  \"kernels\": [\n",
                 opt.scale, static_cast<unsigned long long>(opt.seed));
    for (std::size_t i = 0; i < g_results.size(); ++i) {
        const auto& [name, s] = g_results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ms\": [%.3f, %.3f, %.3f, "
                     "%.3f], \"speedup_at_8\": %.3f, \"identical\": %s}%s\n",
                     name.c_str(), s.ms[0], s.ms[1], s.ms[2], s.ms[3],
                     s.ms[0] / std::max(1e-9, s.ms[3]),
                     s.identical ? "true" : "false",
                     i + 1 < g_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = benchutil::parse_options(argc, argv);
    const int reps = 3;

    std::printf("== Thread scaling: serial vs pool at 1/2/4/8 threads "
                "(best of %d) ==\n", reps);
    std::printf("# hardware threads available: %u\n", default_num_threads());

    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, opt.scale, opt.seed);
    benchutil::print_dataset(d);
    Table table({"kernel", "1T ms", "2T ms", "4T ms", "8T ms", "speedup@8",
                 "identical"});

    {   // Dense GEMM at the trainer's layer shape (hidden width 64).
        Rng rng(1);
        const std::size_t n = std::max<std::size_t>(
            64, static_cast<std::size_t>(384 * opt.scale));
        const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
        const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
        add_row(table, "matmul",
                sweep(reps, [&] { return checksum(tensor::matmul(a, b)); }));
    }

    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    {   // SpMM: the per-layer aggregation over the whole graph.
        Rng rng(2);
        const tensor::Matrix h =
            tensor::Matrix::randn(d.graph.num_nodes(), 64, rng);
        add_row(table, "spmm",
                sweep(reps, [&] { return checksum(tensor::spmm(adj, h)); }));
    }

    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, opt.seed);
    {   // k-means over one boundary plan's M2M pool (the grouping step).
        const graph::Dbg dbg = graph::extract_dbg(d.graph, parts.part_of, 0, 1);
        const auto cls = core::classify_sources(dbg);
        std::vector<std::uint32_t> pool;
        for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
            if (cls[u] == graph::ConnectionType::kM2M) pool.push_back(u);
        const core::KMeansConfig cfg{.k = 20, .max_iters = 20, .seed = 5};
        add_row(table, "kmeans", sweep(reps, [&] {
            const auto res = core::kmeans_dbg_rows(dbg, pool, cfg);
            return fnv1a(res.assignment.data(),
                         res.assignment.size() * sizeof(res.assignment[0]));
        }));
    }

    {   // One full distributed epoch (semantic method, 4 partitions).
        const gnn::GnnConfig mc = benchutil::model_for(d);
        dist::DistTrainConfig cfg = benchutil::train_cfg(opt);
        cfg.epochs = 1;
        cfg.record_epochs = false;
        add_row(table, "dist epoch", sweep(reps, [&] {
            core::SemanticCompressor comp(benchutil::semantic_cfg());
            const auto r = runtime::Scenario::for_training(cfg).train(d, parts, mc, comp);
            std::uint64_t h = fnv1a(&r.final_loss, sizeof(r.final_loss));
            return fnv1a(&r.test_accuracy, sizeof(r.test_accuracy), h);
        }));
    }

    std::printf("\n%s\n", table.str().c_str());
    std::printf("reading: every row must say identical=yes — the pool "
                "decomposes work by shape, never by thread count, so results "
                "are bitwise equal at every width. Speedups require real "
                "cores; on a 1-core host the sweep only verifies "
                "determinism.\n");
    if (!opt.json.empty()) write_json(opt);
    return 0;
}
