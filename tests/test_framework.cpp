// Integration tests for the Fig. 8 pipeline, the method factory and the
// compressor composition used by the §5.5 compatibility study.
#include <gtest/gtest.h>

#include "scgnn/core/framework.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace scgnn::core {
namespace {

graph::Dataset small() {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 42);
}

PipelineConfig base_cfg(const graph::Dataset& d) {
    PipelineConfig cfg;
    cfg.num_parts = 2;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 12;
    cfg.method.semantic.grouping.kmeans_k = 8;
    return cfg;
}

TEST(MethodFactory, NamesMatchPaperRows) {
    EXPECT_STREQ(to_string(Method::kVanilla), "Vanilla.");
    EXPECT_STREQ(to_string(Method::kDelay), "Delay.");
    EXPECT_STREQ(to_string(Method::kQuant), "Quant.");
    EXPECT_STREQ(to_string(Method::kSampling), "Samp.");
    EXPECT_STREQ(to_string(Method::kSemantic), "Ours");
    EXPECT_EQ(dist::compressor_names().size(), 5u);
}

TEST(MethodFactory, BuildsEveryMethod) {
    for (const std::string& key : dist::compressor_names()) {
        MethodConfig cfg;
        ASSERT_TRUE(parse_method(key, cfg.method)) << key;
        const auto comp = make_compressor(cfg);
        ASSERT_NE(comp, nullptr);
        EXPECT_FALSE(comp->name().empty());
    }
}

TEST(Pipeline, ReportsStaticStatistics) {
    const graph::Dataset d = small();
    PipelineConfig cfg = base_cfg(d);
    cfg.method.method = Method::kSemantic;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.cross_edges, 0u);
    EXPECT_GT(res.wire_rows, 0u);
    EXPECT_LT(res.wire_rows, res.cross_edges);
    EXPECT_GT(res.compression_ratio, 1.0);
    EXPECT_GT(res.num_groups, 0u);
    EXPECT_GT(res.mean_group_size, 1.0);
    EXPECT_GT(res.partition_quality.cut_edges, 0u);
}

TEST(Pipeline, BaselineMethodStillReportsSemanticStats) {
    const graph::Dataset d = small();
    PipelineConfig cfg = base_cfg(d);
    cfg.method.method = Method::kQuant;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.num_groups, 0u);  // computed for reference
    EXPECT_GT(res.train.test_accuracy, 1.0 / d.num_classes);
}

TEST(Pipeline, PartitionAlgoIsConfigurable) {
    const graph::Dataset d = small();
    PipelineConfig cfg = base_cfg(d);
    cfg.train.epochs = 3;
    cfg.algo = partition::PartitionAlgo::kRandomCut;
    const PipelineResult random_cut = run_pipeline(d, cfg);
    cfg.algo = partition::PartitionAlgo::kNodeCut;
    const PipelineResult node_cut = run_pipeline(d, cfg);
    // Table 2's direction: random cut moves more data.
    EXPECT_GT(random_cut.cross_edges, node_cut.cross_edges);
}

TEST(Composed, RequiresStages) {
    EXPECT_THROW(ComposedCompressor({}), Error);
}

TEST(Composed, NameConcatenatesStages) {
    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages;
    stages.push_back(std::make_unique<SemanticCompressor>());
    stages.push_back(std::make_unique<baselines::QuantCompressor>());
    ComposedCompressor comp(std::move(stages));
    EXPECT_EQ(comp.name(), "ours+quant");
}

TEST(Composed, OursPlusQuantMultipliesCompression) {
    const graph::Dataset d = small();
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 2, 99);
    const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);

    SemanticCompressorConfig sc;
    sc.grouping.kmeans_k = 8;
    SemanticCompressor alone(sc);
    alone.setup(ctx);

    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages;
    stages.push_back(std::make_unique<SemanticCompressor>(sc));
    stages.push_back(std::make_unique<baselines::QuantCompressor>(
        baselines::QuantConfig{.bits = 8}));
    ComposedCompressor composed(std::move(stages));
    composed.setup(ctx);

    Rng rng(1);
    const tensor::Matrix src =
        tensor::Matrix::randn(ctx.plans()[0].num_rows(), 8, rng);
    tensor::Matrix out_a, out_c;
    const auto bytes_alone = alone.forward_rows(ctx, 0, 0, src, out_a);
    const auto bytes_comp = composed.forward_rows(ctx, 0, 0, src, out_c);
    // Quant stage multiplies the semantic volume by bits/32 ≈ 1/4.
    EXPECT_NEAR(static_cast<double>(bytes_comp),
                static_cast<double>(bytes_alone) / 4.0,
                static_cast<double>(bytes_alone) * 0.05 + 16.0);
    // Reconstruction is the quantised fused rows: close to the pure ones.
    EXPECT_LT(tensor::max_abs_diff(out_a, out_c), 0.2f);
}

TEST(Composed, DelayStageGatesEpochs) {
    const graph::Dataset d = small();
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 2, 99);
    const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);

    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages;
    SemanticCompressorConfig sc;
    sc.grouping.kmeans_k = 8;
    stages.push_back(std::make_unique<SemanticCompressor>(sc));
    stages.push_back(std::make_unique<baselines::DelayCompressor>(
        baselines::DelayConfig{.period = 2}));
    ComposedCompressor composed(std::move(stages));
    composed.setup(ctx);

    Rng rng(2);
    const tensor::Matrix src =
        tensor::Matrix::randn(ctx.plans()[0].num_rows(), 4, rng);
    tensor::Matrix out;
    composed.begin_epoch(0);
    EXPECT_GT(composed.forward_rows(ctx, 0, 0, src, out), 0u);
    composed.begin_epoch(1);
    EXPECT_EQ(composed.forward_rows(ctx, 0, 0, src, out), 0u);  // gated
}

TEST(Composed, TrainingWithCompositionLearns) {
    const graph::Dataset d = small();
    PipelineConfig cfg = base_cfg(d);
    const auto parts = partition::make_partitioning(
        cfg.algo, d.graph, cfg.num_parts, cfg.partition_seed);

    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages;
    SemanticCompressorConfig sc;
    sc.grouping.kmeans_k = 8;
    stages.push_back(std::make_unique<SemanticCompressor>(sc));
    stages.push_back(std::make_unique<baselines::QuantCompressor>(
        baselines::QuantConfig{.bits = 8}));
    ComposedCompressor composed(std::move(stages));

    dist::DistTrainConfig tc;
    tc.epochs = 25;
    const auto r = runtime::Scenario::for_training(tc).train(d, parts, cfg.model, composed);
    EXPECT_GT(r.test_accuracy, 1.0 / d.num_classes + 0.15);
}

} // namespace
} // namespace scgnn::core
