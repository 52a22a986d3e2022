// End-to-end smoke tests: the full Fig. 8 pipeline must run and learn on a
// small preset with every method. Deeper per-module tests live in the
// sibling files; this file is the canary.
#include <gtest/gtest.h>

#include "scgnn/core/framework.hpp"

namespace scgnn {
namespace {

graph::Dataset small_dataset() {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.25, 42);
}

TEST(Smoke, PipelineTrainsAboveChanceForEveryMethod) {
    const graph::Dataset data = small_dataset();
    const double chance = 1.0 / data.num_classes;

    for (const std::string& key : dist::compressor_names()) {
        core::Method m{};
        ASSERT_TRUE(core::parse_method(key, m)) << key;
        core::PipelineConfig cfg;
        cfg.num_parts = 2;
        cfg.model.in_dim = static_cast<std::uint32_t>(data.features.cols());
        cfg.model.out_dim = data.num_classes;
        cfg.model.hidden_dim = 16;
        cfg.train.epochs = 30;
        cfg.method.method = m;
        cfg.method.sampling.rate = 0.5;
        cfg.method.delay.period = 2;
        cfg.method.semantic.grouping.kmeans_k = 8;

        const core::PipelineResult res = core::run_pipeline(data, cfg);
        EXPECT_GT(res.train.test_accuracy, chance + 0.1)
            << "method " << core::to_string(m) << " failed to learn";
        EXPECT_GT(res.train.mean_comm_mb, 0.0);
    }
}

TEST(Smoke, SemanticCompressionBeatsVanillaVolume) {
    const graph::Dataset data = small_dataset();
    core::PipelineConfig cfg;
    cfg.num_parts = 2;
    cfg.model.in_dim = static_cast<std::uint32_t>(data.features.cols());
    cfg.model.out_dim = data.num_classes;
    cfg.model.hidden_dim = 16;
    cfg.train.epochs = 5;
    cfg.method.method = core::Method::kSemantic;
    cfg.method.semantic.grouping.kmeans_k = 8;
    const core::PipelineResult ours = core::run_pipeline(data, cfg);

    cfg.method.method = core::Method::kVanilla;
    const core::PipelineResult vanilla = core::run_pipeline(data, cfg);

    EXPECT_LT(ours.train.mean_comm_mb, vanilla.train.mean_comm_mb);
    EXPECT_GT(ours.compression_ratio, 1.0);
}

} // namespace
} // namespace scgnn
