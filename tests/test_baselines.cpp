// Unit/behavioural tests for the three SOTA baseline compressors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "scgnn/baselines/baselines.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::baselines {
namespace {

using dist::DistContext;
using tensor::Matrix;

struct Ctx {
    graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7);
    partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, data.graph, 2, 5);
    DistContext ctx{data, parts, gnn::AdjNorm::kSymmetric};

    Matrix src_for(std::size_t plan_idx, std::size_t f = 6) {
        Rng rng(plan_idx + 1);
        return Matrix::randn(ctx.plans()[plan_idx].num_rows(), f, rng);
    }
};

// ---------------------------------------------------------------- Sampling

TEST(Sampling, ValidatesRate) {
    EXPECT_THROW(SamplingCompressor({.rate = 0.0}), Error);
    EXPECT_THROW(SamplingCompressor({.rate = 1.5}), Error);
}

TEST(Sampling, FullRateIsLosslessUpToScale) {
    Ctx c;
    SamplingCompressor s({.rate = 1.0});
    s.setup(c.ctx);
    s.begin_epoch(0);
    const Matrix src = c.src_for(0);
    Matrix out;
    const auto bytes = s.forward_rows(c.ctx, 0, 0, src, out);
    EXPECT_LT(tensor::max_abs_diff(src, out), 1e-6f);
    EXPECT_EQ(bytes, c.ctx.plans()[0].num_edges() * 6 * sizeof(float));
}

TEST(Sampling, KeptRowsAreRescaledDroppedAreZero) {
    Ctx c;
    SamplingCompressor s({.rate = 0.5, .seed = 3});
    s.setup(c.ctx);
    s.begin_epoch(0);
    const Matrix src = c.src_for(0);
    Matrix out;
    (void)s.forward_rows(c.ctx, 0, 0, src, out);
    std::size_t kept = 0, dropped = 0;
    for (std::size_t r = 0; r < src.rows(); ++r) {
        const float o = out(r, 0);
        if (o == 0.0f && out(r, 1) == 0.0f) {
            ++dropped;
        } else {
            EXPECT_NEAR(o, src(r, 0) * 2.0f, 1e-5f);
            ++kept;
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(dropped, 0u);
}

TEST(Sampling, MaskSharedAcrossLayersWithinEpoch) {
    Ctx c;
    SamplingCompressor s({.rate = 0.5, .seed = 4});
    s.setup(c.ctx);
    s.begin_epoch(0);
    const Matrix src = c.src_for(0);
    Matrix out0, out1;
    (void)s.forward_rows(c.ctx, 0, 0, src, out0);
    (void)s.forward_rows(c.ctx, 0, 1, src, out1);
    EXPECT_TRUE(out0 == out1);
}

TEST(Sampling, MaskChangesAcrossEpochs) {
    Ctx c;
    SamplingCompressor s({.rate = 0.5, .seed = 5});
    s.setup(c.ctx);
    const Matrix src = c.src_for(0);
    Matrix a, b;
    s.begin_epoch(0);
    (void)s.forward_rows(c.ctx, 0, 0, src, a);
    s.begin_epoch(1);
    (void)s.forward_rows(c.ctx, 0, 0, src, b);
    EXPECT_FALSE(a == b);
}

TEST(Sampling, BackwardUsesSameMaskAndScale) {
    Ctx c;
    SamplingCompressor s({.rate = 0.5, .seed = 6});
    s.setup(c.ctx);
    s.begin_epoch(0);
    const Matrix src = c.src_for(0);
    Matrix fwd;
    (void)s.forward_rows(c.ctx, 0, 0, src, fwd);
    Matrix grad_in = c.src_for(0), grad_out;
    (void)s.backward_rows(c.ctx, 0, 1, grad_in, grad_out);
    for (std::size_t r = 0; r < src.rows(); ++r) {
        const bool fwd_kept = fwd(r, 0) != 0.0f || fwd(r, 1) != 0.0f;
        const bool bwd_kept = grad_out(r, 0) != 0.0f || grad_out(r, 1) != 0.0f;
        EXPECT_EQ(fwd_kept, bwd_kept) << "row " << r;
    }
}

TEST(Sampling, BytesScaleWithRate) {
    Ctx c;
    const Matrix src = c.src_for(0);
    double lo = 0, hi = 0;
    {
        SamplingCompressor s({.rate = 0.1, .seed = 7});
        s.setup(c.ctx);
        s.begin_epoch(0);
        Matrix out;
        lo = static_cast<double>(s.forward_rows(c.ctx, 0, 0, src, out));
    }
    {
        SamplingCompressor s({.rate = 0.9, .seed = 7});
        s.setup(c.ctx);
        s.begin_epoch(0);
        Matrix out;
        hi = static_cast<double>(s.forward_rows(c.ctx, 0, 0, src, out));
    }
    EXPECT_LT(lo, hi * 0.4);
}

TEST(Sampling, RequiresSetup) {
    Ctx c;
    SamplingCompressor s({.rate = 0.5});
    const Matrix src = c.src_for(0);
    Matrix out;
    EXPECT_THROW((void)s.forward_rows(c.ctx, 0, 0, src, out), Error);
}

// ------------------------------------------------------------------- Quant

TEST(Quant, ValidatesBits) {
    EXPECT_THROW(QuantCompressor({.bits = 2}), Error);
    EXPECT_NO_THROW(QuantCompressor({.bits = 4}));
}

TEST(Quant, ReconstructionWithinQuantStep) {
    Ctx c;
    QuantCompressor q({.bits = 8});
    const Matrix src = c.src_for(0);
    Matrix out;
    (void)q.forward_rows(c.ctx, 0, 0, src, out);
    // 8-bit over the observed range: error below range/255/2 + slack.
    float range = 0.0f;
    for (float v : src.flat()) range = std::max(range, std::abs(v));
    EXPECT_LT(tensor::max_abs_diff(src, out), 2.0f * range / 255.0f + 1e-4f);
}

TEST(Quant, BytesMatchBitWidthPerEdge) {
    Ctx c;
    const Matrix src = c.src_for(0);
    const auto edges = c.ctx.plans()[0].num_edges();
    Matrix out;
    QuantCompressor q8({.bits = 8});
    EXPECT_EQ(q8.forward_rows(c.ctx, 0, 0, src, out), edges * 6 + 8);
    QuantCompressor q4({.bits = 4});
    EXPECT_EQ(q4.forward_rows(c.ctx, 0, 0, src, out), edges * 6 / 2 + 8);
    QuantCompressor q16({.bits = 16});
    EXPECT_EQ(q16.forward_rows(c.ctx, 0, 0, src, out), edges * 6 * 2 + 8);
}

TEST(Quant, BackwardQuantisesGradients) {
    Ctx c;
    QuantCompressor q({.bits = 4});
    const Matrix g = c.src_for(0);
    Matrix out;
    const auto bytes = q.backward_rows(c.ctx, 0, 1, g, out);
    EXPECT_GT(bytes, 0u);
    EXPECT_GT(tensor::max_abs_diff(g, out), 0.0f);  // lossy
    EXPECT_LT(tensor::max_abs_diff(g, out), 1.0f);  // but bounded
}

// ------------------------------------------------------------------- Delay

TEST(Delay, ValidatesPeriod) {
    EXPECT_THROW(DelayCompressor({.period = 0}), Error);
}

TEST(Delay, PeriodOneIsVanilla) {
    Ctx c;
    DelayCompressor d({.period = 1});
    d.setup(c.ctx);
    const Matrix src = c.src_for(0);
    for (std::uint64_t e = 0; e < 3; ++e) {
        d.begin_epoch(e);
        Matrix out;
        const auto bytes = d.forward_rows(c.ctx, 0, 0, src, out);
        EXPECT_TRUE(out == src);
        EXPECT_GT(bytes, 0u);
    }
}

TEST(Delay, StaleEpochsReturnCacheAndZeroBytes) {
    Ctx c;
    DelayCompressor d({.period = 3});
    d.setup(c.ctx);
    Rng rng(1);
    const Matrix first = c.src_for(0);

    d.begin_epoch(0);
    Matrix out0;
    EXPECT_GT(d.forward_rows(c.ctx, 0, 0, first, out0), 0u);

    // Epoch 1: fresh data offered, stale returned, no traffic.
    const Matrix second =
        Matrix::randn(first.rows(), first.cols(), rng);
    d.begin_epoch(1);
    Matrix out1;
    EXPECT_EQ(d.forward_rows(c.ctx, 0, 0, second, out1), 0u);
    EXPECT_TRUE(out1 == first);

    // Epoch 3: transmit epoch again → fresh.
    d.begin_epoch(3);
    Matrix out3;
    EXPECT_GT(d.forward_rows(c.ctx, 0, 0, second, out3), 0u);
    EXPECT_TRUE(out3 == second);
}

TEST(Delay, CachesArePerLayerAndPerPlan) {
    Ctx c;
    ASSERT_GE(c.ctx.plans().size(), 2u);
    DelayCompressor d({.period = 2});
    d.setup(c.ctx);
    const Matrix a = c.src_for(0);
    const Matrix b = c.src_for(1);
    d.begin_epoch(0);
    Matrix oa, ob;
    (void)d.forward_rows(c.ctx, 0, 0, a, oa);
    (void)d.forward_rows(c.ctx, 1, 0, b, ob);
    d.begin_epoch(1);
    Matrix sa, sb;
    (void)d.forward_rows(c.ctx, 0, 0, b.rows() == a.rows() ? b : a, sa);
    (void)d.forward_rows(c.ctx, 1, 0, b, sb);
    EXPECT_TRUE(sa == a);
    EXPECT_TRUE(sb == b);
}

TEST(Delay, FirstUseAlwaysTransmits) {
    Ctx c;
    DelayCompressor d({.period = 4});
    d.setup(c.ctx);
    // Start at a non-transmit epoch: the cache is cold, so it must send.
    d.begin_epoch(1);
    const Matrix src = c.src_for(0);
    Matrix out;
    EXPECT_GT(d.forward_rows(c.ctx, 0, 0, src, out), 0u);
    EXPECT_TRUE(out == src);
}

TEST(Delay, BackwardDelaysGradientsToo) {
    Ctx c;
    DelayCompressor d({.period = 2});
    d.setup(c.ctx);
    const Matrix g0 = c.src_for(0);
    d.begin_epoch(0);
    Matrix out0;
    EXPECT_GT(d.backward_rows(c.ctx, 0, 1, g0, out0), 0u);
    Rng rng(9);
    const Matrix g1 = Matrix::randn(g0.rows(), g0.cols(), rng);
    d.begin_epoch(1);
    Matrix out1;
    EXPECT_EQ(d.backward_rows(c.ctx, 0, 1, g1, out1), 0u);
    EXPECT_TRUE(out1 == g0);  // stale gradient, Dorylus-style
}

// ----------------------------------------------------- training integration

class BaselineTraining : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineTraining, EveryBaselineStillLearns) {
    Ctx c;
    dist::CompressorOptions opts;
    opts.sampling.rate = 0.5;
    opts.quant.bits = 8;
    opts.delay.period = 2;
    const auto comp = dist::make_compressor(GetParam(), opts);
    dist::DistTrainConfig cfg;
    cfg.epochs = 30;
    gnn::GnnConfig mc{
        .in_dim = static_cast<std::uint32_t>(c.data.features.cols()),
        .hidden_dim = 16,
        .out_dim = c.data.num_classes,
        .seed = 2};
    const auto r = runtime::Scenario::for_training(cfg).train(c.data, c.parts, mc, *comp);
    EXPECT_GT(r.test_accuracy, 1.0 / c.data.num_classes + 0.15);
}

INSTANTIATE_TEST_SUITE_P(All, BaselineTraining,
                         ::testing::Values("sampling", "quant", "delay"),
                         [](const auto& param_info) {
                             return std::string(param_info.param);
                         });

class DeepDelay : public ::testing::TestWithParam<const char*> {};

TEST_P(DeepDelay, NineLayersTrainAndReplay) {
    // Deeper than any fixed cache table: each plan's per-layer caches
    // grow on first use. Period 2 transmits on even epochs and replays
    // the cached blocks (no halo bytes) on odd ones.
    Ctx c;
    dist::CompressorOptions opts;
    opts.delay.period = 2;
    const auto comp = dist::make_compressor(GetParam(), opts);
    dist::DistTrainConfig cfg;
    cfg.epochs = 4;
    gnn::GnnConfig mc{
        .in_dim = static_cast<std::uint32_t>(c.data.features.cols()),
        .hidden_dim = 8,
        .out_dim = c.data.num_classes,
        .num_layers = 9,
        .seed = 2};
    const auto r =
        runtime::Scenario::for_training(cfg).train(c.data, c.parts, mc, *comp);
    ASSERT_EQ(r.epoch_metrics.size(), 4u);
    for (const auto& m : r.epoch_metrics) EXPECT_TRUE(std::isfinite(m.loss));
    EXPECT_GT(r.epoch_metrics[0].comm_mb, 0.0);
    EXPECT_LT(r.epoch_metrics[1].comm_mb, r.epoch_metrics[0].comm_mb);
    EXPECT_DOUBLE_EQ(r.epoch_metrics[2].comm_mb, r.epoch_metrics[0].comm_mb);
    EXPECT_DOUBLE_EQ(r.epoch_metrics[3].comm_mb, r.epoch_metrics[1].comm_mb);
}

INSTANTIATE_TEST_SUITE_P(Stacks, DeepDelay,
                         ::testing::Values("delay", "ours+delay"),
                         [](const auto& param_info) {
                             std::string name = param_info.param;
                             std::replace(name.begin(), name.end(), '+', '_');
                             return name;
                         });

} // namespace
} // namespace scgnn::baselines
