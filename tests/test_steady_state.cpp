// Tests for the zero-allocation steady-state contract (DESIGN.md §10):
// every temporary is a buffer its user owns and reuses, so after a warm-up
// has sized them, training epochs — single-device and distributed — and
// repeated compressor exchanges, full-graph or request, perform zero heap
// allocations, proven by the obs alloc counters installed in
// src/obs/alloc.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/gnn/trainer.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/obs/alloc.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/dist/factory.hpp"

namespace scgnn {
namespace {

using tensor::Matrix;

// ------------------------------------------------------- reused buffers --

TEST(Matrix, ReshapeZeroReusesCapacity) {
    Matrix m(10, 10);
    m.fill(3.0f);
    const float* payload = m.data();
    m.reshape_zero(5, 8);   // smaller: must reuse the existing storage
    EXPECT_EQ(m.rows(), 5u);
    EXPECT_EQ(m.cols(), 8u);
    EXPECT_EQ(m.data(), payload);
    for (std::size_t i = 0; i < m.size(); ++i) ASSERT_EQ(m.data()[i], 0.0f);
    m.reshape_zero(10, 10);  // back to the old size: still no new storage
    EXPECT_EQ(m.data(), payload);
}

// ------------------------------------------------- the alloc instrument --

TEST(AllocCounters, CountOnlyWhileTrackingEnabled) {
    obs::set_alloc_tracking(false);
    obs::reset_alloc_stats();
    { std::vector<char> untracked(1 << 12); }
    EXPECT_EQ(obs::alloc_stats().count, 0u);

    obs::set_alloc_tracking(true);
    { std::vector<char> tracked(1 << 12); }
    obs::set_alloc_tracking(false);
    const obs::AllocStats s = obs::alloc_stats();
    EXPECT_GE(s.count, 1u);
    EXPECT_GE(s.bytes, std::size_t{1} << 12);

    obs::reset_alloc_stats();
    EXPECT_EQ(obs::alloc_stats().count, 0u);
    EXPECT_EQ(obs::alloc_stats().bytes, 0u);
}

TEST(AllocCounters, SyncPublishesIntoMetricsRegistry) {
    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    obs::reset();
    obs::set_enabled(true);

    obs::reset_alloc_stats();
    obs::set_alloc_tracking(true);
    { std::vector<char> tracked(1 << 10); }
    obs::set_alloc_tracking(false);
    obs::sync_alloc_counters();

    EXPECT_GE(obs::registry().counter("alloc.count").value(), 1u);
    EXPECT_GE(obs::registry().counter("alloc.bytes").value(),
              std::uint64_t{1} << 10);

    // A second sync with no new allocations publishes a zero delta, not a
    // double count.
    const std::uint64_t once = obs::registry().counter("alloc.count").value();
    obs::sync_alloc_counters();
    EXPECT_EQ(obs::registry().counter("alloc.count").value(), once);

    obs::reset_alloc_stats();
    obs::reset();
    obs::set_enabled(was_enabled);
}

// --------------------------------------- the steady-state contract --

/// The headline test of DESIGN.md §10: once shapes have settled, a
/// single-device training epoch performs ZERO heap allocations — dropout
/// active, Adam stepping, loss computed.
TEST(SteadyState, SingleDeviceEpochIsAllocationFree) {
    ThreadCountGuard guard(1);  // pool dispatch itself is exempt by design
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.3, 7);
    const auto adj = gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    gnn::SpmmAggregator agg(adj);

    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.hidden_dim = 32;
    mc.out_dim = d.num_classes;
    mc.dropout = 0.3f;  // exercise the mask path, the easiest one to leak
    gnn::GnnModel model(mc);
    gnn::Adam opt(model.parameters());

    double warm = 0.0;
    for (int e = 0; e < 3; ++e)
        warm += gnn::run_epoch(model, opt, agg, d.features, d.labels,
                               d.train_mask);
    ASSERT_TRUE(std::isfinite(warm));

    obs::reset_alloc_stats();
    obs::set_alloc_tracking(true);
    double loss = 0.0;
    for (int e = 0; e < 5; ++e)
        loss += gnn::run_epoch(model, opt, agg, d.features, d.labels,
                               d.train_mask);
    obs::set_alloc_tracking(false);

    const obs::AllocStats s = obs::alloc_stats();
    EXPECT_EQ(s.count, 0u) << "steady-state epochs allocated " << s.count
                           << " times (" << s.bytes << " bytes)";
    EXPECT_TRUE(std::isfinite(loss));
}

/// Distributed counterpart, measured end-to-end through Scenario::train:
/// the allocation count of a run
/// must not grow with the epoch count once past warm-up — an 8-epoch run
/// allocates exactly as many times as a 4-epoch run, the extra epochs
/// being allocation-free. Comparing whole runs cancels the setup-time
/// allocations (partition contexts, k-means grouping, fabric state).
TEST(SteadyState, DistributedEpochsBeyondWarmupAllocationFree) {
    ThreadCountGuard guard(1);
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.25, 9);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 2, 9);
    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.hidden_dim = 32;
    mc.out_dim = d.num_classes;

    const auto count_allocs = [&](std::uint32_t epochs) {
        dist::DistTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.record_epochs = false;
        core::SemanticCompressor comp(core::SemanticCompressorConfig{});
        obs::reset_alloc_stats();
        obs::set_alloc_tracking(true);
        const auto r = runtime::Scenario::for_training(cfg).train(d, parts, mc, comp);
        obs::set_alloc_tracking(false);
        EXPECT_TRUE(std::isfinite(r.final_loss));
        return obs::alloc_stats().count;
    };

    const std::uint64_t four = count_allocs(4);
    const std::uint64_t eight = count_allocs(8);
    EXPECT_EQ(eight, four) << "epochs 5-8 allocated " << (eight - four)
                           << " times — steady state is not allocation-free";
}

// ------------------------------------------------ the exchange contract --

/// A compressor stack and whether the exchange runs on a request.
struct ExchangeCase {
    const char* label;
    const char* stack;
    bool request;
};

class ExchangeAllocations : public ::testing::TestWithParam<ExchangeCase> {};

/// Once one exchange has sized a compressor's scratch and the caller's
/// output, a second identical exchange — forward and backward — allocates
/// nothing: every buffer it needs is a reused member.
TEST_P(ExchangeAllocations, SecondIdenticalExchangeAllocatesNothing) {
    const ExchangeCase& c = GetParam();
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 2, 5);
    const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    dist::CompressorOptions opts;
    opts.semantic.grouping.kmeans_k = 6;
    const auto comp = dist::make_compressor(c.stack, opts);
    comp->setup(ctx);
    comp->begin_epoch(0);

    const std::size_t pi = 0;
    const std::uint32_t plan_rows = ctx.plans()[pi].num_rows();
    ASSERT_GT(plan_rows, 4u);
    std::vector<std::uint32_t> requested;
    for (std::uint32_t r = 0; r < plan_rows; r += 2) requested.push_back(r);
    const dist::ExchangeRows rows =
        c.request ? dist::ExchangeRows::request(ctx, pi, requested)
                  : dist::ExchangeRows::all(ctx, pi);
    Rng rng(5);
    const Matrix in = Matrix::randn(rows.size(), 8, rng);
    Matrix fwd, bwd;
    const auto run = [&] {
        std::uint64_t bytes =
            comp->exchange(ctx, pi, 0, /*backward=*/false, rows, in, fwd);
        bytes += comp->exchange(ctx, pi, 0, /*backward=*/true, rows, in, bwd);
        return bytes;
    };
    const std::uint64_t first = run();

    obs::reset_alloc_stats();
    obs::set_alloc_tracking(true);
    const std::uint64_t second = run();
    obs::set_alloc_tracking(false);
    const obs::AllocStats s = obs::alloc_stats();
    EXPECT_EQ(s.count, 0u) << c.stack << " allocated " << s.count
                           << " times (" << s.bytes << " bytes)";
    EXPECT_EQ(first, second);
    EXPECT_EQ(fwd.rows(), rows.size());
    EXPECT_EQ(bwd.rows(), rows.size());
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, ExchangeAllocations,
    ::testing::Values(ExchangeCase{"vanilla_full", "vanilla", false},
                      ExchangeCase{"vanilla_request", "vanilla", true},
                      ExchangeCase{"ours_full", "ours", false},
                      ExchangeCase{"ours_request", "ours", true},
                      ExchangeCase{"ef_ours_full", "ef+ours", false},
                      ExchangeCase{"ef_ours_request", "ef+ours", true}),
    [](const auto& param_info) {
        return std::string(param_info.param.label);
    });

} // namespace
} // namespace scgnn
