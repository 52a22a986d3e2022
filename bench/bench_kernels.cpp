// Google-benchmark microbenchmarks for the hot kernels behind the
// reproduction: SpMM (the aggregate), GEMM, semantic similarity (set and
// vectorised forms), sparse k-means grouping, quantisation, and the
// semantic fuse/disassemble kernel. These back the §3.1 claim that the
// vectorised Eq. (2) form is the fast path.
#include <benchmark/benchmark.h>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/grouping.hpp"
#include "scgnn/core/kmeans.hpp"
#include "scgnn/core/semantic_aggregate.hpp"
#include "scgnn/core/similarity.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/quantize.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace {

using namespace scgnn;

const graph::Dataset& bench_dataset() {
    static const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, 0.2, 7);
    return d;
}

const graph::Dbg& bench_dbg() {
    static const graph::Dbg dbg = [] {
        const auto& d = bench_dataset();
        const auto parts = partition::make_partitioning(
            partition::PartitionAlgo::kNodeCut, d.graph, 2, 3);
        return graph::extract_dbg(d.graph, parts.part_of, 0, 1);
    }();
    return dbg;
}

void BM_SpmmParallel(benchmark::State& state) {
    const auto& d = bench_dataset();
    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    Rng rng(1);
    const tensor::Matrix h = tensor::Matrix::randn(d.graph.num_nodes(), 64, rng);
    const ThreadCountGuard guard(static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::spmm(adj, h));
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpmmParallel)->Arg(2)->Arg(4);

void BM_SemanticSimilaritySet(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    const std::uint32_t n = std::min<std::uint32_t>(dbg.num_src(), 256);
    double acc = 0.0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            acc += core::semantic_similarity(dbg.out_neighbors(i),
                                             dbg.out_neighbors(i + 1));
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_SemanticSimilaritySet);

void BM_SemanticSimilarityVec(benchmark::State& state) {
    // The Eq. (2) vectorised form on dense rows with a shared C_A.
    const auto& dbg = bench_dbg();
    const std::uint32_t n = std::min<std::uint32_t>(dbg.num_src(), 256);
    tensor::Matrix rows(n, dbg.num_dst());
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto dense = dbg.dense_row(i);
        std::copy(dense.begin(), dense.end(), rows.row(i).begin());
    }
    const auto c = core::collection_vector(rows);
    double acc = 0.0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            acc += core::semantic_similarity_vec(rows.row(i), rows.row(i + 1),
                                                 c[i], c[i + 1]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_SemanticSimilarityVec);

void BM_KmeansDbg(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    const auto cls = core::classify_sources(dbg);
    std::vector<std::uint32_t> pool;
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == graph::ConnectionType::kM2M) pool.push_back(u);
    core::KMeansConfig cfg{.k = static_cast<std::uint32_t>(state.range(0)),
                           .max_iters = 20,
                           .seed = 5};
    for (auto _ : state)
        benchmark::DoNotOptimize(core::kmeans_dbg_rows(dbg, pool, cfg));
    state.SetItemsProcessed(state.iterations() * pool.size());
}
BENCHMARK(BM_KmeansDbg)->Arg(8)->Arg(20);

void BM_BuildGrouping(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    core::GroupingConfig cfg;
    cfg.kmeans_k = 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::build_grouping(dbg, cfg));
    state.SetItemsProcessed(state.iterations() * dbg.num_edges());
}
BENCHMARK(BM_BuildGrouping);

void BM_Quantize(benchmark::State& state) {
    Rng rng(6);
    const tensor::Matrix m = tensor::Matrix::randn(2048, 64, rng);
    const int bits = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto q = tensor::quantize_per_tensor(m, bits);
        benchmark::DoNotOptimize(tensor::dequantize(q));
    }
    state.SetBytesProcessed(state.iterations() * m.payload_bytes());
}
BENCHMARK(BM_Quantize)->Arg(4)->Arg(8);

void BM_SemanticFuse(benchmark::State& state) {
    // The Fig. 7(b) fuse+disassemble path vs per-edge transmission below.
    const auto& dbg = bench_dbg();
    const core::Grouping g = core::build_grouping(dbg, {.kmeans_k = 20});
    Rng rng(7);
    const tensor::Matrix src = tensor::Matrix::randn(dbg.num_src(), 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::semantic_aggregate(dbg, g, src));
    state.SetItemsProcessed(state.iterations() * dbg.num_edges());
}
BENCHMARK(BM_SemanticFuse);

void BM_TraditionalAggregate(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    Rng rng(8);
    const tensor::Matrix src = tensor::Matrix::randn(dbg.num_src(), 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::traditional_aggregate(dbg, src));
    state.SetItemsProcessed(state.iterations() * dbg.num_edges());
}
BENCHMARK(BM_TraditionalAggregate);

// --- steady-state kernels ------------------------------------------------
//
// The into-forms reuse their output, so each row times the kernel alone.
// Run single-threaded (scripts/bench_snapshot.sh exports SCGNN_THREADS=1)
// so the rows measure the microkernels, not the pool.

void BM_GemmInto(benchmark::State& state) {
    Rng rng(2);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
    const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
    tensor::Matrix c;
    for (auto _ : state) {
        tensor::matmul_into(a, b, c);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInto)->ArgName("n")->Arg(512);

void BM_GemmABtInto(benchmark::State& state) {
    Rng rng(3);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
    const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
    tensor::Matrix c;
    for (auto _ : state) {
        tensor::matmul_a_bt_into(a, b, c);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmABtInto)->ArgName("n")->Arg(512);

void BM_GemmAtBInto(benchmark::State& state) {
    // The weight gradient at the dense full-graph hotspot shape:
    // (18000×64)ᵀ·(18000×8), a long reduction into a small output.
    Rng rng(5);
    const auto k = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(k, 64, rng);
    const tensor::Matrix b = tensor::Matrix::randn(k, 8, rng);
    tensor::Matrix c;
    for (auto _ : state) {
        tensor::matmul_at_b_into(a, b, c);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * k * 64 * 8);
}
BENCHMARK(BM_GemmAtBInto)->ArgName("k")->Arg(18000);

void BM_SpmmInto(benchmark::State& state) {
    const auto& d = bench_dataset();
    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    Rng rng(1);
    const tensor::Matrix h = tensor::Matrix::randn(
        d.graph.num_nodes(), static_cast<std::size_t>(state.range(0)), rng);
    tensor::Matrix out;
    for (auto _ : state) {
        tensor::spmm_into(adj, h, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpmmInto)->ArgName("f")->Arg(64);

void BM_Axpy(benchmark::State& state) {
    Rng rng(4);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix x = tensor::Matrix::randn(1, n, rng);
    tensor::Matrix y = tensor::Matrix::randn(1, n, rng);
    for (auto _ : state) {
        tensor::kern::axpy(1.0009765625f, x.data(), y.data(), n);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)->ArgName("n")->Arg(4096);

} // namespace

int main(int argc, char** argv) {
    // The row-kernel rows depend on the vector tier the CPU runs them at,
    // so the snapshot names it.
    benchmark::AddCustomContext(
        "tensor.isa",
        tensor::kern::isa_name(tensor::kern::active_isa()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
