// Integration tests for the distributed trainer. The key invariant: with
// the vanilla exchange, the distributed aggregate and the whole training
// trajectory must match the single-device reference to float tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "scgnn/common/parallel.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::dist {
namespace {

graph::Dataset data_small(std::uint64_t seed = 3) {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.25, seed);
}

partition::Partitioning parts_for(const graph::Dataset& d, std::uint32_t k) {
    return partition::make_partitioning(partition::PartitionAlgo::kNodeCut,
                                        d.graph, k, 17);
}

gnn::GnnConfig model_for(const graph::Dataset& d) {
    return gnn::GnnConfig{
        .in_dim = static_cast<std::uint32_t>(d.features.cols()),
        .hidden_dim = 16,
        .out_dim = d.num_classes,
        .seed = 11};
}

TEST(DistAggregator, VanillaForwardMatchesGlobalSpmm) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 3);
    const DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    comm::Fabric fabric(3);
    VanillaExchange vanilla;
    DistAggregator agg(ctx, fabric, vanilla);

    const auto global = gnn::normalized_adjacency(d.graph,
                                                  gnn::AdjNorm::kSymmetric);
    Rng rng(5);
    const tensor::Matrix h =
        tensor::Matrix::randn(d.graph.num_nodes(), 8, rng);
    const tensor::Matrix expect = tensor::spmm(global, h);
    const tensor::Matrix got = agg.forward(h, 0);
    EXPECT_LT(tensor::max_abs_diff(expect, got), 1e-4f);
}

TEST(DistAggregator, VanillaBackwardMatchesGlobalSpmmT) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 3);
    const DistContext ctx(d, parts, gnn::AdjNorm::kRowMean);
    comm::Fabric fabric(3);
    VanillaExchange vanilla;
    DistAggregator agg(ctx, fabric, vanilla);

    const auto global =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kRowMean);
    Rng rng(6);
    const tensor::Matrix g =
        tensor::Matrix::randn(d.graph.num_nodes(), 8, rng);
    const tensor::Matrix expect = tensor::spmm(global.transposed(), g);
    const tensor::Matrix got = agg.backward(g, 1);
    EXPECT_LT(tensor::max_abs_diff(expect, got), 1e-4f);
}

TEST(DistAggregator, RecordsTrafficOnFabric) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 2);
    const DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    comm::Fabric fabric(2);
    VanillaExchange vanilla;
    DistAggregator agg(ctx, fabric, vanilla);
    Rng rng(7);
    (void)agg.forward(tensor::Matrix::randn(d.graph.num_nodes(), 8, rng), 0);
    EXPECT_EQ(fabric.epoch_stats().bytes, ctx.vanilla_exchange_bytes(8));
    EXPECT_EQ(fabric.epoch_stats().messages, ctx.plans().size());
}

/// Everything one faulted aggregator run produces: every forward and
/// backward output, in call order, plus its staleness counters.
struct AggregatorTrace {
    std::vector<tensor::Matrix> outputs;
    FaultSummary fault;
};

/// Four epochs of a 2-layer forward/backward through a P = 5 aggregator
/// with 30% drops, a 2-attempt retry budget and link 0→1 down for epochs
/// 0-1, so fresh, stale and cold-miss (zero) blocks all land.
AggregatorTrace run_faulted_aggregator(const DistContext& ctx,
                                       std::size_t num_nodes,
                                       unsigned threads) {
    ThreadCountGuard guard(threads);
    comm::Fabric fabric(ctx.num_parts());
    comm::FaultModel faults;
    faults.drop_probability = 0.3;
    faults.seed = 77;
    faults.down_windows.push_back(comm::LinkDownWindow{
        .src = 0, .dst = 1, .first_epoch = 0, .last_epoch = 1});
    fabric.set_fault_model(faults);
    fabric.set_retry_policy(comm::RetryPolicy{.max_attempts = 2});
    VanillaExchange vanilla;
    DistAggregator agg(ctx, fabric, vanilla);

    AggregatorTrace trace;
    Rng rng(19);
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (const auto& [layer, width] : {std::pair{0, 8}, std::pair{1, 4}}) {
            const auto h = tensor::Matrix::randn(num_nodes, width, rng);
            trace.outputs.emplace_back();
            agg.forward_into(h, layer, trace.outputs.back());
        }
        for (const auto& [layer, width] : {std::pair{1, 4}, std::pair{0, 8}}) {
            const auto g = tensor::Matrix::randn(num_nodes, width, rng);
            trace.outputs.emplace_back();
            agg.backward_into(g, layer, trace.outputs.back());
        }
        fabric.end_epoch();
    }
    trace.fault = agg.fault_summary();
    return trace;
}

TEST(DistAggregator, OverlappingPlansAreBitwiseEqualAtEveryThreadCount) {
    const graph::Dataset d = data_small();
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kRandomCut, d.graph, 5, 17);
    const DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    // The backward land adds every plan that carries a boundary node into
    // that node's output row: the fixture needs a node sent on >= 3 plans.
    std::map<std::uint32_t, int> plans_per_node;
    for (const PairPlan& plan : ctx.plans())
        for (const std::uint32_t u : plan.dbg.src_nodes) ++plans_per_node[u];
    int widest = 0;
    for (const auto& [node, count] : plans_per_node)
        widest = std::max(widest, count);
    ASSERT_GE(widest, 3);

    const std::size_t n = d.graph.num_nodes();
    const AggregatorTrace at1 = run_faulted_aggregator(ctx, n, 1);
    EXPECT_GT(at1.fault.cold_misses, 0u);
    EXPECT_GT(at1.fault.stale_uses, at1.fault.cold_misses);
    for (const unsigned threads : {2u, 3u, 4u}) {
        const AggregatorTrace got = run_faulted_aggregator(ctx, n, threads);
        ASSERT_EQ(got.outputs.size(), at1.outputs.size());
        for (std::size_t i = 0; i < got.outputs.size(); ++i)
            EXPECT_TRUE(got.outputs[i] == at1.outputs[i])
                << "output " << i << " differs at " << threads << " threads";
        EXPECT_EQ(got.fault.stale_uses, at1.fault.stale_uses);
        EXPECT_EQ(got.fault.cold_misses, at1.fault.cold_misses);
        EXPECT_EQ(got.fault.max_staleness, at1.fault.max_staleness);
        EXPECT_EQ(got.fault.stale_by_part, at1.fault.stale_by_part);
    }
}

TEST(DistTrainer, VanillaMatchesSingleDeviceTrajectory) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 4);

    gnn::TrainConfig single_cfg;
    single_cfg.epochs = 15;
    const gnn::TrainResult single =
        gnn::train_single_device(d, model_for(d), single_cfg);

    DistTrainConfig dist_cfg;
    dist_cfg.epochs = 15;
    VanillaExchange vanilla;
    const DistTrainResult dist =
        runtime::Scenario::for_training(dist_cfg).train(d, parts, model_for(d), vanilla);

    ASSERT_EQ(dist.epoch_metrics.size(), 15u);
    for (std::size_t e = 0; e < 15; ++e)
        EXPECT_NEAR(dist.epoch_metrics[e].loss, single.losses[e], 2e-3)
            << "epoch " << e;
    EXPECT_NEAR(dist.test_accuracy, single.test_accuracy, 0.02);
}

TEST(DistTrainer, EpochMetricsAreConsistent) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 2);
    DistTrainConfig cfg;
    cfg.epochs = 5;
    VanillaExchange vanilla;
    const DistTrainResult r =
        runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), vanilla);
    for (const EpochMetrics& m : r.epoch_metrics) {
        EXPECT_GT(m.comm_mb, 0.0);
        EXPECT_GT(m.comm_ms, 0.0);
        EXPECT_GT(m.compute_ms, 0.0);
        EXPECT_NEAR(m.epoch_ms, m.comm_ms + m.compute_ms, 1e-9);
    }
    EXPECT_NEAR(r.total_comm_mb, r.mean_comm_mb * 5.0, 1e-9);
}

TEST(DistTrainer, CommVolumeIsThreeExchangesPerEpoch) {
    // 2-layer GCN: forward X, forward H1, backward dH1 — all same width
    // when in_dim == hidden_dim.
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 2);
    const DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    gnn::GnnConfig mc = model_for(d);
    mc.hidden_dim = mc.in_dim;
    DistTrainConfig cfg;
    cfg.epochs = 1;
    VanillaExchange vanilla;
    const DistTrainResult r = runtime::Scenario::for_training(cfg).train(d, parts, mc, vanilla);
    const double expected_mb =
        3.0 * static_cast<double>(ctx.vanilla_exchange_bytes(mc.in_dim)) / 1e6;
    EXPECT_NEAR(r.mean_comm_mb, expected_mb, expected_mb * 1e-6);
}

TEST(DistTrainer, MorePartitionsMoreTraffic) {
    const graph::Dataset d = data_small();
    DistTrainConfig cfg;
    cfg.epochs = 2;
    VanillaExchange v1, v2;
    const DistTrainResult r2 =
        runtime::Scenario::for_training(cfg).train(d, parts_for(d, 2), model_for(d), v1);
    const DistTrainResult r8 =
        runtime::Scenario::for_training(cfg).train(d, parts_for(d, 8), model_for(d), v2);
    EXPECT_GT(r8.mean_comm_mb, r2.mean_comm_mb);
}

TEST(DistTrainer, ThreeLayerVanillaMatchesSingleDevice) {
    // Deeper models perform more exchanges (L forward + L−1 backward); the
    // equivalence must hold for them too.
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 3);
    gnn::GnnConfig mc = model_for(d);
    mc.num_layers = 3;

    gnn::TrainConfig single_cfg;
    single_cfg.epochs = 8;
    const gnn::TrainResult single = gnn::train_single_device(d, mc, single_cfg);

    DistTrainConfig dist_cfg;
    dist_cfg.epochs = 8;
    VanillaExchange vanilla;
    const DistTrainResult dist =
        runtime::Scenario::for_training(dist_cfg).train(d, parts, mc, vanilla);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_NEAR(dist.epoch_metrics[e].loss, single.losses[e], 5e-3);
}

TEST(DistTrainer, WeightSyncAddsRingAllReduceVolume) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 4);
    DistTrainConfig cfg;
    cfg.epochs = 1;
    const gnn::GnnConfig mc = model_for(d);

    VanillaExchange v1, v2;
    const auto without = runtime::Scenario::for_training(cfg).train(d, parts, mc, v1);
    cfg.comm.count_weight_sync = true;
    const auto with = runtime::Scenario::for_training(cfg).train(d, parts, mc, v2);

    // Expected ring volume: P devices × 2(P−1)/P × |params| bytes.
    gnn::GnnModel model(mc);
    std::uint64_t param_bytes = 0;
    for (const tensor::Matrix* p : model.parameters())
        param_bytes += p->payload_bytes();
    const double expected_mb =
        4.0 * 2.0 * 3.0 / 4.0 * static_cast<double>(param_bytes) / 1e6;
    EXPECT_NEAR(with.mean_comm_mb - without.mean_comm_mb, expected_mb,
                expected_mb * 0.01 + 1e-6);
}

TEST(DistTrainer, HierarchicalTopologyKeepsNumericsAndChargesTieredLinks) {
    // A node-grouped fabric reprices the traffic but must not perturb the
    // training numerics: losses are bitwise those of the flat run.
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 4);
    const gnn::GnnConfig mc = model_for(d);
    DistTrainConfig cfg;
    cfg.epochs = 2;
    cfg.comm.count_weight_sync = true;

    VanillaExchange v1, v2;
    const auto flat = runtime::Scenario::for_training(cfg).train(d, parts, mc, v1);
    ASSERT_TRUE(comm::parse_topology("hier:2x2", cfg.comm.topology));
    cfg.comm.collective = comm::collective::Algo::kHier;
    const auto hier = runtime::Scenario::for_training(cfg).train(d, parts, mc, v2);

    for (std::size_t e = 0; e < 2; ++e)
        EXPECT_DOUBLE_EQ(hier.epoch_metrics[e].loss,
                         flat.epoch_metrics[e].loss);
    EXPECT_GT(hier.mean_comm_mb, 0.0);
    EXPECT_GT(hier.mean_comm_ms, 0.0);
}

TEST(DistTrainer, TopologyShapeMustCoverThePartitionCount) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 3);
    DistTrainConfig cfg;
    cfg.epochs = 1;
    ASSERT_TRUE(comm::parse_topology("hier:2x2", cfg.comm.topology));
    VanillaExchange vanilla;
    EXPECT_THROW((void)runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), vanilla),
                 Error);
}

TEST(DistTrainer, DeeperModelsMoveMoreTraffic) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 2);
    DistTrainConfig cfg;
    cfg.epochs = 1;
    gnn::GnnConfig mc = model_for(d);
    mc.hidden_dim = mc.in_dim;

    VanillaExchange v2, v3;
    mc.num_layers = 2;
    const auto r2 = runtime::Scenario::for_training(cfg).train(d, parts, mc, v2);
    mc.num_layers = 3;
    const auto r3 = runtime::Scenario::for_training(cfg).train(d, parts, mc, v3);
    // 2-layer: 3 same-width exchanges; 3-layer: 5.
    EXPECT_NEAR(r3.mean_comm_mb / r2.mean_comm_mb, 5.0 / 3.0, 1e-3);
}

TEST(DistTrainer, FaultFreeRunReportsNoFaultActivity) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 2);
    DistTrainConfig cfg;
    cfg.epochs = 3;
    VanillaExchange vanilla;
    const DistTrainResult r =
        runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), vanilla);
    EXPECT_FALSE(r.fault.degraded());
    EXPECT_EQ(r.fault.fabric.attempts, 0u);
    EXPECT_EQ(r.fault.stale_uses, 0u);
    EXPECT_EQ(r.fault.max_staleness, 0u);
}

TEST(DistTrainer, DegradedRunSurvivesAndKeepsLedgerConsistent) {
    // A hostile schedule (40% drops, retry budget of 1) forces stale-halo
    // fallbacks; training must finish every epoch with finite metrics and
    // the fault ledger must reconcile.
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 4);
    DistTrainConfig cfg;
    cfg.epochs = 6;
    cfg.comm.fault.drop_probability = 0.4;
    cfg.comm.fault.seed = 31;
    cfg.comm.retry.max_attempts = 1;
    cfg.comm.retry.timeout_s = 1e-3;
    VanillaExchange vanilla;
    const DistTrainResult r =
        runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), vanilla);

    ASSERT_EQ(r.epoch_metrics.size(), 6u);
    for (const EpochMetrics& m : r.epoch_metrics)
        EXPECT_TRUE(std::isfinite(m.loss));
    EXPECT_GT(r.test_accuracy, 1.0 / d.num_classes);  // still learned

    const FaultSummary& f = r.fault;
    EXPECT_TRUE(f.degraded());
    EXPECT_GT(f.fabric.drops, 0u);
    EXPECT_GT(f.fabric.failures, 0u);
    EXPECT_GT(f.max_staleness, 0u);
    EXPECT_EQ(f.fabric.drops + f.fabric.link_down_hits,
              f.fabric.retries + f.fabric.failures);
    EXPECT_EQ(f.stale_uses, f.fabric.failures);
    std::uint64_t by_part = 0;
    for (std::uint64_t s : f.stale_by_part) by_part += s;
    EXPECT_EQ(by_part, f.stale_uses);
    // Timeout penalties surface in the modelled comm time.
    EXPECT_GT(f.fabric.penalty_s, 0.0);
}

TEST(DistTrainer, RetryBudgetConvertsFailuresIntoRetries) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 4);
    DistTrainConfig cfg;
    cfg.epochs = 4;
    cfg.comm.fault.drop_probability = 0.25;
    cfg.comm.fault.seed = 5;
    cfg.comm.retry.timeout_s = 1e-3;
    VanillaExchange v1, v8;

    cfg.comm.retry.max_attempts = 1;
    const DistTrainResult tight =
        runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), v1);
    cfg.comm.retry.max_attempts = 8;
    const DistTrainResult roomy =
        runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), v8);

    // With a single attempt every drop is a failure; with eight attempts
    // nearly all sends eventually land, trading failures for retries.
    EXPECT_EQ(tight.fault.fabric.retries, 0u);
    EXPECT_GT(tight.fault.fabric.failures, 0u);
    EXPECT_GT(roomy.fault.fabric.retries, 0u);
    EXPECT_LT(roomy.fault.fabric.failures, tight.fault.fabric.failures);
    EXPECT_LT(roomy.fault.stale_uses, tight.fault.stale_uses);
    // The retry wire traffic is visible in the volume ledger.
    EXPECT_GT(roomy.mean_comm_mb, tight.mean_comm_mb);
}

TEST(DistTrainer, FaultScheduleIsDeterministicPerSeed) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 3);
    DistTrainConfig cfg;
    cfg.epochs = 4;
    cfg.comm.fault.drop_probability = 0.3;
    cfg.comm.fault.seed = 123;
    cfg.comm.retry.max_attempts = 2;
    auto run = [&]() {
        VanillaExchange vanilla;
        return runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), vanilla);
    };
    const DistTrainResult a = run();
    const DistTrainResult b = run();
    EXPECT_EQ(a.fault.fabric.drops, b.fault.fabric.drops);
    EXPECT_EQ(a.fault.stale_uses, b.fault.stale_uses);
    EXPECT_EQ(a.fault.max_staleness, b.fault.max_staleness);
    for (std::size_t e = 0; e < a.epoch_metrics.size(); ++e)
        EXPECT_EQ(a.epoch_metrics[e].loss, b.epoch_metrics[e].loss);  // bitwise
}

TEST(DistTrainer, ValidatesConfig) {
    const graph::Dataset d = data_small();
    const auto parts = parts_for(d, 2);
    VanillaExchange vanilla;
    gnn::GnnConfig bad = model_for(d);
    bad.in_dim += 1;
    EXPECT_THROW(
        (void)runtime::Scenario::for_training(DistTrainConfig{}).train(d, parts, bad, vanilla),
        Error);
    DistTrainConfig cfg;
    cfg.epochs = 0;
    EXPECT_THROW(
        (void)runtime::Scenario::for_training(cfg).train(d, parts, model_for(d), vanilla), Error);
}

} // namespace
} // namespace scgnn::dist
