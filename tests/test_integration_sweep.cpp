// Cross-cutting integration sweeps: every (preset × method) and
// (preset × partitioner) combination must train, learn, and keep its
// volume accounting consistent. These are the paper's evaluation grid at
// unit-test scale.
#include <gtest/gtest.h>

#include "scgnn/core/framework.hpp"

namespace scgnn::core {
namespace {

struct SweepCase {
    graph::DatasetPreset preset;
    Method method;
};

class MethodSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MethodSweep, TrainsLearnsAndAccounts) {
    const auto [preset, method] = GetParam();
    const graph::Dataset d = graph::make_dataset(preset, 0.12, 33);

    PipelineConfig cfg;
    cfg.num_parts = 2;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 25;
    cfg.method.method = method;
    cfg.method.sampling.rate = 0.5;
    cfg.method.quant.bits = 8;
    cfg.method.delay.period = 2;
    cfg.method.semantic.grouping.kmeans_k = 10;

    const PipelineResult res = run_pipeline(d, cfg);

    // Learns above chance.
    EXPECT_GT(res.train.test_accuracy, 1.0 / d.num_classes + 0.08)
        << preset_name(preset) << " + " << to_string(method);
    // Volume accounting is sane.
    EXPECT_GT(res.train.mean_comm_mb, 0.0);
    EXPECT_GT(res.cross_edges, 0u);
    EXPECT_GE(res.compression_ratio, 1.0);
    // Loss decreased.
    ASSERT_GE(res.train.epoch_metrics.size(), 2u);
    EXPECT_LT(res.train.epoch_metrics.back().loss,
              res.train.epoch_metrics.front().loss);
}

std::vector<SweepCase> make_cases() {
    std::vector<SweepCase> cases;
    for (graph::DatasetPreset p : graph::all_presets())
        for (Method m : all_methods()) cases.push_back({p, m});
    return cases;
}

std::string case_name(const ::testing::TestParamInfo<SweepCase>& param_info) {
    std::string n = graph::preset_name(param_info.param.preset) + "_" +
                    to_string(param_info.param.method);
    for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(Grid, MethodSweep, ::testing::ValuesIn(make_cases()),
                         case_name);

class PartitionerSweep
    : public ::testing::TestWithParam<partition::PartitionAlgo> {};

TEST_P(PartitionerSweep, SemanticPipelineWorksOnEveryPartitioner) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kYelpSim, 0.12, 44);
    PipelineConfig cfg;
    cfg.algo = GetParam();
    cfg.num_parts = 3;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 20;
    cfg.method.semantic.grouping.kmeans_k = 10;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.train.test_accuracy, 1.0 / d.num_classes + 0.08);
    EXPECT_GT(res.compression_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, PartitionerSweep,
                         ::testing::Values(partition::PartitionAlgo::kNodeCut,
                                           partition::PartitionAlgo::kEdgeCut,
                                           partition::PartitionAlgo::kMultilevel,
                                           partition::PartitionAlgo::kRandomCut),
                         [](const auto& param_info) {
                             const std::string s =
                                 partition::to_string(param_info.param);
                             return s.substr(0, s.find('-'));
                         });

class PartsCountSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartsCountSweep, VolumeGrowsWithPartitionCount) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kOgbnProductsSim, 0.12, 55);
    PipelineConfig cfg;
    cfg.num_parts = GetParam();
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 4;
    cfg.method.method = Method::kVanilla;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.train.mean_comm_mb, 0.0);
    EXPECT_GT(res.train.test_accuracy, 0.0);
    // Stash the volume in a static map keyed by part count and check
    // monotonicity against the previous (smaller) configuration.
    static double last_volume = 0.0;
    static std::uint32_t last_parts = 0;
    if (last_parts != 0 && GetParam() > last_parts) {
        EXPECT_GT(res.train.mean_comm_mb, last_volume);
    }
    last_volume = res.train.mean_comm_mb;
    last_parts = GetParam();
}

INSTANTIATE_TEST_SUITE_P(Counts, PartsCountSweep,
                         ::testing::Values(2u, 4u, 8u),
                         [](const auto& param_info) {
                             std::string name = "p";
                             name += std::to_string(param_info.param);
                             return name;
                         });

TEST(DeepModelIntegration, ThreeLayerSemanticPipeline) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 66);
    PipelineConfig cfg;
    cfg.num_parts = 2;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.model.num_layers = 3;
    cfg.train.epochs = 25;
    cfg.method.semantic.grouping.kmeans_k = 8;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.train.test_accuracy, 1.0 / d.num_classes + 0.1);
}

TEST(GinIntegration, SemanticPipelineWithGin) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 78);
    PipelineConfig cfg;
    cfg.num_parts = 2;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.model.kind = gnn::LayerKind::kGin;
    cfg.train.norm = gnn::AdjNorm::kSum;
    cfg.train.adam.lr = 2e-3f;  // sum aggregation has larger activations
    cfg.train.epochs = 30;
    cfg.method.semantic.grouping.kmeans_k = 8;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.train.test_accuracy, 1.0 / d.num_classes + 0.1);
}

TEST(SageIntegration, SemanticPipelineWithSage) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 77);
    PipelineConfig cfg;
    cfg.num_parts = 2;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.model.kind = gnn::LayerKind::kSage;
    cfg.train.norm = gnn::AdjNorm::kRowMean;
    cfg.train.epochs = 25;
    cfg.method.semantic.grouping.kmeans_k = 8;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.train.test_accuracy, 1.0 / d.num_classes + 0.1);
}

TEST(DifferentialIntegration, WithoutO2OSavesTrafficKeepsAccuracy) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.25, 88);
    PipelineConfig cfg;
    cfg.num_parts = 4;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 25;
    cfg.method.semantic.grouping.kmeans_k = 8;
    const PipelineResult full = run_pipeline(d, cfg);
    cfg.method.semantic.drop = DropMask::without_o2o();
    const PipelineResult diff = run_pipeline(d, cfg);
    EXPECT_LT(diff.train.mean_comm_mb, full.train.mean_comm_mb);
    EXPECT_GT(diff.train.test_accuracy, full.train.test_accuracy - 0.06);
}

} // namespace
} // namespace scgnn::core
