// Integration tests for the single-device trainer: learning on planted
// communities, determinism, and the evaluation helpers.
#include <gtest/gtest.h>

#include "scgnn/gnn/trainer.hpp"

namespace scgnn::gnn {
namespace {

graph::Dataset tiny_data(std::uint64_t seed = 3) {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.25, seed);
}

GnnConfig model_for(const graph::Dataset& d, LayerKind kind = LayerKind::kGcn) {
    return GnnConfig{.in_dim = static_cast<std::uint32_t>(d.features.cols()),
                     .hidden_dim = 16,
                     .out_dim = d.num_classes,
                     .kind = kind,
                     .seed = 11};
}

TEST(Training, GcnLearnsAboveChance) {
    const graph::Dataset d = tiny_data();
    TrainConfig tc;
    tc.epochs = 40;
    const TrainResult r = train_single_device(d, model_for(d), tc);
    EXPECT_GT(r.test_accuracy, 1.0 / d.num_classes + 0.15);
    EXPECT_GT(r.train_accuracy, r.test_accuracy - 0.1);
}

TEST(Training, SageLearnsAboveChance) {
    const graph::Dataset d = tiny_data();
    TrainConfig tc;
    tc.epochs = 40;
    tc.norm = AdjNorm::kRowMean;
    const TrainResult r =
        train_single_device(d, model_for(d, LayerKind::kSage), tc);
    EXPECT_GT(r.test_accuracy, 1.0 / d.num_classes + 0.15);
}

TEST(Training, LossDecreasesOverall) {
    const graph::Dataset d = tiny_data();
    TrainConfig tc;
    tc.epochs = 30;
    const TrainResult r = train_single_device(d, model_for(d), tc);
    ASSERT_EQ(r.losses.size(), 30u);
    EXPECT_LT(r.losses.back(), r.losses.front() * 0.8);
}

TEST(Training, DeterministicGivenSeeds) {
    const graph::Dataset d = tiny_data();
    TrainConfig tc;
    tc.epochs = 10;
    const TrainResult a = train_single_device(d, model_for(d), tc);
    const TrainResult b = train_single_device(d, model_for(d), tc);
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
}

TEST(Training, ValidatesModelAgainstDataset) {
    const graph::Dataset d = tiny_data();
    GnnConfig bad = model_for(d);
    bad.in_dim += 1;
    EXPECT_THROW((void)train_single_device(d, bad, {}), Error);
    bad = model_for(d);
    bad.out_dim += 1;
    EXPECT_THROW((void)train_single_device(d, bad, {}), Error);
    TrainConfig tc;
    tc.epochs = 0;
    EXPECT_THROW((void)train_single_device(d, model_for(d), tc), Error);
}

TEST(Training, EvaluateAccuracyIsInUnitInterval) {
    const graph::Dataset d = tiny_data();
    const auto adj = normalized_adjacency(d.graph, AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    GnnModel model(model_for(d));
    const double acc = evaluate_accuracy(model, agg, d.features, d.labels,
                                         d.test_mask);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(Training, DropoutTrainsAndEvaluatesDeterministically) {
    const graph::Dataset d = tiny_data();
    GnnConfig mc = model_for(d);
    mc.dropout = 0.5f;
    TrainConfig tc;
    tc.epochs = 30;
    const TrainResult r = train_single_device(d, mc, tc);
    EXPECT_GT(r.test_accuracy, 1.0 / d.num_classes + 0.1);

    // Evaluation mode is dropout-free: two forwards agree exactly.
    GnnModel model(mc);
    const auto adj = normalized_adjacency(d.graph, AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    model.set_training(false);
    const auto a = model.forward(d.features, agg);
    const auto b = model.forward(d.features, agg);
    EXPECT_TRUE(a == b);
    // Training mode draws fresh masks: forwards differ.
    model.set_training(true);
    const auto c = model.forward(d.features, agg);
    EXPECT_FALSE(a == c);
}

TEST(Training, DropoutValidated) {
    GnnConfig mc{.in_dim = 2, .hidden_dim = 2, .out_dim = 2};
    mc.dropout = 1.0f;
    EXPECT_THROW(GnnModel{mc}, Error);
    mc.dropout = -0.1f;
    EXPECT_THROW(GnnModel{mc}, Error);
}

TEST(Training, MeanEpochTimeIsPositive) {
    const graph::Dataset d = tiny_data();
    TrainConfig tc;
    tc.epochs = 3;
    const TrainResult r = train_single_device(d, model_for(d), tc);
    EXPECT_GT(r.mean_epoch_ms, 0.0);
}

} // namespace
} // namespace scgnn::gnn
