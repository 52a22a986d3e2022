// Unit/integration tests for SC-GNN's boundary compressor: fusion and
// adjoint correctness, volume accounting, the differential drop mask, and
// full training behaviour vs vanilla.
#include <gtest/gtest.h>

#include <cstring>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::core {
namespace {

using dist::DistContext;
using tensor::Matrix;

struct Ctx {
    graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7);
    partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, data.graph, 2, 5);
    DistContext ctx{data, parts, gnn::AdjNorm::kSymmetric};

    SemanticCompressorConfig cfg(std::uint32_t k = 8) {
        SemanticCompressorConfig c;
        c.grouping.kmeans_k = k;
        return c;
    }
};

TEST(SemanticCompressor, RequiresSetup) {
    Ctx c;
    SemanticCompressor s(c.cfg());
    Matrix src(c.ctx.plans()[0].num_rows(), 4), out;
    EXPECT_THROW((void)s.forward_rows(c.ctx, 0, 0, src, out), Error);
    EXPECT_THROW((void)s.grouping(0), Error);
}

TEST(SemanticCompressor, ForwardReplacesGroupMembersByFusedRow) {
    Ctx c;
    SemanticCompressor s(c.cfg());
    s.setup(c.ctx);
    const Grouping& g = s.grouping(0);
    Rng rng(1);
    const Matrix src = Matrix::randn(c.ctx.plans()[0].num_rows(), 4, rng);
    Matrix out;
    (void)s.forward_rows(c.ctx, 0, 0, src, out);

    for (const SemanticGroup& grp : g.groups) {
        // Expected fused row.
        std::vector<float> h_g(4, 0.0f);
        for (std::size_t i = 0; i < grp.members.size(); ++i)
            for (std::size_t cc = 0; cc < 4; ++cc)
                h_g[cc] += grp.out_weights[i] * src(grp.members[i], cc);
        for (std::uint32_t m : grp.members)
            for (std::size_t cc = 0; cc < 4; ++cc)
                EXPECT_NEAR(out(m, cc), h_g[cc], 1e-5f);
    }
    for (std::uint32_t r : g.raw_rows)
        for (std::size_t cc = 0; cc < 4; ++cc)
            EXPECT_EQ(out(r, cc), src(r, cc));
}

TEST(SemanticCompressor, ForwardBytesMatchWireRows) {
    Ctx c;
    SemanticCompressor s(c.cfg());
    s.setup(c.ctx);
    const auto& plan = c.ctx.plans()[0];
    const Grouping& g = s.grouping(0);
    Rng rng(2);
    const Matrix src = Matrix::randn(plan.num_rows(), 4, rng);
    Matrix out;
    const auto bytes = s.forward_rows(c.ctx, 0, 0, src, out);
    EXPECT_EQ(bytes, g.wire_rows(plan.dbg) * 4 * sizeof(float));
    EXPECT_LT(bytes, plan.num_edges() * 4 * sizeof(float));
}

TEST(SemanticCompressor, BackwardIsExactAdjointOfForward) {
    // <forward(x), y> == <x, backward(y)> for the linear fuse/reconstruct
    // map — the property that makes training gradients unbiased w.r.t. the
    // compressed forward.
    Ctx c;
    SemanticCompressor s(c.cfg());
    s.setup(c.ctx);
    const auto& plan = c.ctx.plans()[0];
    Rng rng(3);
    const Matrix x = Matrix::randn(plan.num_rows(), 4, rng);
    const Matrix y = Matrix::randn(plan.num_rows(), 4, rng);
    Matrix fx, bty;
    (void)s.forward_rows(c.ctx, 0, 0, x, fx);
    (void)s.backward_rows(c.ctx, 0, 1, y, bty);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < fx.size(); ++i) {
        lhs += static_cast<double>(fx.flat()[i]) * y.flat()[i];
        rhs += static_cast<double>(x.flat()[i]) * bty.flat()[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

TEST(SemanticCompressor, TotalWireRowsAggregatesPlans) {
    Ctx c;
    SemanticCompressor s(c.cfg());
    s.setup(c.ctx);
    std::uint64_t manual = 0;
    for (std::size_t pi = 0; pi < c.ctx.plans().size(); ++pi)
        manual += s.grouping(pi).wire_rows(c.ctx.plans()[pi].dbg);
    EXPECT_EQ(s.total_wire_rows(), manual);
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SemanticCompressor, GroupingsBitwiseAtEveryThreadCount) {
    // Plans group in parallel, and the EEP sweep runs its k values in
    // parallel; every grouping must match the single-thread one bit for
    // bit. Covers a fixed k, the EEP sweep (k = 0) and a rate below one
    // (the coarsen_grouping path).
    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7);
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, data.graph, 4, 5);
    const DistContext ctx(data, parts, gnn::AdjNorm::kSymmetric);
    struct Case {
        std::uint32_t k;
        double rate;
    };
    for (const Case cs : {Case{20, 1.0}, Case{0, 1.0}, Case{20, 0.6}}) {
        SemanticCompressorConfig cfg;
        cfg.grouping.kmeans_k = cs.k;
        std::vector<SemanticCompressor> runs;
        runs.reserve(4);
        for (unsigned threads = 1; threads <= 4; ++threads) {
            const ThreadCountGuard guard(threads);
            runs.emplace_back(cfg);
            runs.back().apply_rate(cs.rate);
            runs.back().setup(ctx);
        }
        const SemanticCompressor& one = runs.front();
        for (unsigned t = 1; t < runs.size(); ++t) {
            SCOPED_TRACE(::testing::Message() << "k " << cs.k << " rate "
                                              << cs.rate << " threads "
                                              << t + 1);
            const SemanticCompressor& s = runs[t];
            EXPECT_EQ(s.total_wire_rows(), one.total_wire_rows());
            for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
                const Grouping& a = s.grouping(pi);
                const Grouping& b = one.grouping(pi);
                EXPECT_EQ(a.raw_rows, b.raw_rows);
                EXPECT_EQ(a.group_of_row, b.group_of_row);
                EXPECT_EQ(a.chosen_k, b.chosen_k);
                ASSERT_EQ(a.groups.size(), b.groups.size());
                for (std::size_t gi = 0; gi < a.groups.size(); ++gi) {
                    const SemanticGroup& ga = a.groups[gi];
                    const SemanticGroup& gb = b.groups[gi];
                    EXPECT_EQ(ga.members, gb.members);
                    EXPECT_EQ(ga.sinks, gb.sinks);
                    EXPECT_TRUE(same_floats(ga.out_weights, gb.out_weights));
                    EXPECT_TRUE(same_floats(ga.in_weights, gb.in_weights));
                    EXPECT_EQ(ga.origin, gb.origin);
                    EXPECT_EQ(ga.edges, gb.edges);
                }
            }
        }
        if (cs.k == 0) {
            std::uint32_t max_k = 0;
            for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi)
                max_k = std::max(max_k, one.grouping(pi).chosen_k);
            EXPECT_GT(max_k, 1u) << "the EEP sweep picked no k above one";
        }
    }
}

TEST(SemanticCompressor, DropMaskHelpers) {
    const DropMask none{};
    EXPECT_FALSE(none.dropped(graph::ConnectionType::kO2O));
    const DropMask o2o = DropMask::without_o2o();
    EXPECT_TRUE(o2o.dropped(graph::ConnectionType::kO2O));
    EXPECT_FALSE(o2o.dropped(graph::ConnectionType::kM2M));
}

TEST(SemanticCompressor, DifferentialDropZeroesClassAndSavesBytes) {
    Ctx c;
    SemanticCompressorConfig cfg = c.cfg();
    SemanticCompressor keep(cfg);
    keep.setup(c.ctx);
    cfg.drop = DropMask::without_o2o();
    SemanticCompressor drop(cfg);
    drop.setup(c.ctx);

    Rng rng(4);
    const auto& plan = c.ctx.plans()[0];
    const Matrix src = Matrix::randn(plan.num_rows(), 4, rng);
    Matrix out_keep, out_drop;
    const auto bytes_keep = keep.forward_rows(c.ctx, 0, 0, src, out_keep);
    const auto bytes_drop = drop.forward_rows(c.ctx, 0, 0, src, out_drop);
    EXPECT_LE(bytes_drop, bytes_keep);

    // Every O2O raw row must be zero under the drop mask.
    const auto cls = classify_sources(plan.dbg);
    bool saw_o2o = false;
    for (std::uint32_t r = 0; r < plan.num_rows(); ++r) {
        if (cls[r] != graph::ConnectionType::kO2O) continue;
        saw_o2o = true;
        for (std::size_t cc = 0; cc < 4; ++cc) EXPECT_EQ(out_drop(r, cc), 0.0f);
    }
    // (The fixture partition usually has O2O rows; tolerate none.)
    (void)saw_o2o;
}

TEST(SemanticCompressor, DropM2MRemovesMostTraffic) {
    Ctx c;
    SemanticCompressorConfig cfg = c.cfg();
    cfg.drop = DropMask{.m2m = true};
    SemanticCompressor s(cfg);
    s.setup(c.ctx);
    SemanticCompressor full(c.cfg());
    full.setup(c.ctx);
    EXPECT_LT(s.total_wire_rows(), full.total_wire_rows());
}

TEST(SemanticCompressor, BackwardDisassemblesByOutWeights) {
    Ctx c;
    SemanticCompressor s(c.cfg());
    s.setup(c.ctx);
    const Grouping& g = s.grouping(0);
    ASSERT_FALSE(g.groups.empty());
    const auto& plan = c.ctx.plans()[0];
    Rng rng(5);
    const Matrix grad_in = Matrix::randn(plan.num_rows(), 3, rng);
    Matrix grad_out;
    (void)s.backward_rows(c.ctx, 0, 1, grad_in, grad_out);
    const SemanticGroup& grp = g.groups[0];
    std::vector<float> fused(3, 0.0f);
    for (std::uint32_t m : grp.members)
        for (std::size_t cc = 0; cc < 3; ++cc) fused[cc] += grad_in(m, cc);
    for (std::size_t i = 0; i < grp.members.size(); ++i)
        for (std::size_t cc = 0; cc < 3; ++cc)
            EXPECT_NEAR(grad_out(grp.members[i], cc),
                        grp.out_weights[i] * fused[cc], 1e-5f);
}

TEST(SemanticCompressor, TrainingMatchesVanillaAccuracy) {
    Ctx c;
    gnn::GnnConfig mc{
        .in_dim = static_cast<std::uint32_t>(c.data.features.cols()),
        .hidden_dim = 16,
        .out_dim = c.data.num_classes,
        .seed = 2};
    dist::DistTrainConfig tc;
    tc.epochs = 30;

    dist::VanillaExchange vanilla;
    const auto rv = runtime::Scenario::for_training(tc).train(c.data, c.parts, mc, vanilla);
    SemanticCompressor ours(c.cfg(12));
    const auto ro = runtime::Scenario::for_training(tc).train(c.data, c.parts, mc, ours);

    EXPECT_GT(ro.test_accuracy, rv.test_accuracy - 0.05);
    EXPECT_LT(ro.mean_comm_mb, rv.mean_comm_mb * 0.7);
}

TEST(SemanticCompressor, NameIsOurs) {
    SemanticCompressor s;
    EXPECT_EQ(s.name(), "ours");
}

} // namespace
} // namespace scgnn::core
