// The Scenario API contract (runtime/scenario.hpp): the one flag parse
// loop from_flags(), the single validation pass of build(), the training
// dispatch equivalence of Scenario::for_training with the direct
// full-graph entry and of Scenario::run with core::run_pipeline, the
// sampled-training workload on the shared epoch driver (one report
// schema, rate control and overlap), and the serving
// workload's determinism and caching/batching behaviour, its equality
// with a signature-keyed reference model, and concurrent run().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "scgnn/common/parallel.hpp"
#include "scgnn/common/rng.hpp"
#include "scgnn/common/stats.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::runtime {
namespace {

graph::Dataset tiny_data(std::uint64_t seed = 5) {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.1, seed);
}

ScenarioConfig base_cfg(const graph::Dataset& d, ScenarioMode mode) {
    ScenarioConfig cfg;
    cfg.mode = mode;
    cfg.pipeline.num_parts = 4;
    cfg.pipeline.model.in_dim =
        static_cast<std::uint32_t>(d.features.cols());
    cfg.pipeline.model.hidden_dim = 16;
    cfg.pipeline.model.out_dim = d.num_classes;
    cfg.pipeline.train.epochs = 3;
    cfg.pipeline.method.method = core::Method::kSemantic;
    cfg.sampler.batch_size = 48;
    cfg.sampler.fanout = {5, 4};
    cfg.serve.queries = 400;
    cfg.serve.qps = 4000.0;
    return cfg;
}

std::string g17(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

TEST(ScenarioBuild, ModeNamesRoundTrip) {
    for (const ScenarioMode m :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe}) {
        ScenarioMode back;
        ASSERT_TRUE(parse_mode(mode_name(m), back));
        EXPECT_EQ(back, m);
    }
    ScenarioMode out;
    EXPECT_FALSE(parse_mode("inference", out));
}

/// Run Scenario::from_flags over `words` (argv[0] included) into `cfg`.
void parse_words(std::vector<std::string> words, ScenarioConfig& cfg,
                 const std::vector<ExtraFlag>& own = {}) {
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    Scenario::from_flags(static_cast<int>(argv.size()), argv.data(), cfg,
                         own);
}

TEST(ScenarioFlags, FromFlagsReadsThePipelineFlagsAndTheOwnFlags) {
    ScenarioConfig cfg;
    cfg.pipeline.partition_seed = 5;  // a default no flag names stays
    std::string dataset, load, save, scale, seed, staleness;
    parse_words({"scgnn_cli", "--parts", "8", "--epochs", "7", "--layers",
                 "3", "--method", "ours+quant", "--partition", "edge",
                 "--rate", "0.25", "--bits", "16", "--tau", "3", "--groups",
                 "12", "--ef-flush", "0.75", "--drop-o2o", "--sage",
                 "--dropout", "0.5", "--dataset", "reddit", "--load", "in",
                 "--save", "out", "--scale", "0.5", "--seed", "9",
                 "--max-staleness", "4"},
                cfg,
                {{"--dataset", &dataset},
                 {"--load", &load},
                 {"--save", &save},
                 {"--scale", &scale},
                 {"--seed", &seed},
                 {"--max-staleness", &staleness}});
    const core::PipelineConfig& p = cfg.pipeline;
    EXPECT_EQ(p.num_parts, 8u);
    EXPECT_EQ(p.train.epochs, 7u);
    EXPECT_EQ(p.model.num_layers, 3u);
    EXPECT_EQ(p.method.name, "ours+quant");
    EXPECT_EQ(p.algo, partition::PartitionAlgo::kEdgeCut);
    EXPECT_EQ(p.method.sampling.rate, 0.25);
    EXPECT_EQ(p.method.quant.bits, 16);
    EXPECT_EQ(p.method.delay.period, 3u);
    EXPECT_EQ(p.method.semantic.grouping.kmeans_k, 12u);
    EXPECT_EQ(p.method.ef.flush_threshold, 0.75);
    EXPECT_TRUE(p.method.semantic.drop.o2o);
    EXPECT_FALSE(p.method.semantic.drop.m2m);
    EXPECT_EQ(p.model.kind, gnn::LayerKind::kSage);
    EXPECT_EQ(p.train.norm, gnn::AdjNorm::kRowMean);
    EXPECT_EQ(p.model.dropout, 0.5f);
    EXPECT_EQ(p.partition_seed, 5u);
    EXPECT_EQ(dataset, "reddit");
    EXPECT_EQ(load, "in");
    EXPECT_EQ(save, "out");
    EXPECT_EQ(scale, "0.5");
    EXPECT_EQ(seed, "9");
    EXPECT_EQ(staleness, "4");

    // --gin sets its kind and norm together; a plain method key sets the
    // enum and clears the stack name.
    parse_words({"bench_paper", "--gin", "--method", "vanilla"}, cfg);
    EXPECT_EQ(cfg.pipeline.model.kind, gnn::LayerKind::kGin);
    EXPECT_EQ(cfg.pipeline.train.norm, gnn::AdjNorm::kSum);
    EXPECT_EQ(cfg.pipeline.method.method, core::Method::kVanilla);
    EXPECT_TRUE(cfg.pipeline.method.name.empty());
}

TEST(ScenarioBuild, ValidatesOnce) {
    const graph::Dataset d = tiny_data();
    // Valid configs build in every mode.
    for (const ScenarioMode m :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe})
        EXPECT_NO_THROW((void)Scenario::build(base_cfg(d, m)));

    ScenarioConfig bad = base_cfg(d, ScenarioMode::kTrain);
    bad.pipeline.num_parts = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad = base_cfg(d, ScenarioMode::kTrain);
    bad.pipeline.train.epochs = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);

    // Sampler invariants only bite in sample-train mode.
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.sampler.fanout.clear();
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad.mode = ScenarioMode::kTrain;
    EXPECT_NO_THROW((void)Scenario::build(bad));
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.sampler.batch_size = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.pipeline.train.membership.events = {
        {MembershipEventKind::kLeave, 1, 1}};
    EXPECT_THROW((void)Scenario::build(bad), Error);
    // Delay has no request path, alone or anywhere in a stack; the same
    // stacks still train full-graph.
    for (const char* stack : {"delay", "ours+delay", "ef+delay"}) {
        bad = base_cfg(d, ScenarioMode::kSampleTrain);
        bad.pipeline.method.name = stack;
        EXPECT_THROW((void)Scenario::build(bad), Error) << stack;
        bad.mode = ScenarioMode::kTrain;
        EXPECT_NO_THROW((void)Scenario::build(bad)) << stack;
    }
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.pipeline.method.method = core::Method::kDelay;
    EXPECT_THROW((void)Scenario::build(bad), Error);

    // Serve invariants.
    bad = base_cfg(d, ScenarioMode::kServe);
    bad.serve.qps = 0.0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad = base_cfg(d, ScenarioMode::kServe);
    bad.serve.batch_max = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
}

TEST(ScenarioBuild, RejectsFaultsAndRetriesNoFabricAccepts) {
    const graph::Dataset d = tiny_data();
    using Comm = dist::DistTrainConfig::CommPolicy;
    const std::function<void(Comm&)> edits[] = {
        [](Comm& c) { c.fault.drop_probability = 1.0; },
        [](Comm& c) { c.fault.drop_probability = -0.1; },
        [](Comm& c) { c.fault.down_windows = {{1, 1, 0, 2}}; },
        [](Comm& c) { c.fault.down_windows = {{0, 1, 3, 2}}; },
        [](Comm& c) { c.retry.max_attempts = 0; },
        [](Comm& c) { c.retry.timeout_s = -1.0; },
    };
    for (const auto& edit : edits) {
        ScenarioConfig bad = base_cfg(d, ScenarioMode::kTrain);
        edit(bad.pipeline.train.comm);
        EXPECT_THROW((void)Scenario::build(bad), Error);
    }
    // A window beyond this P is the fabric's to reject: for_training()
    // callers name P only when they train.
    dist::DistTrainConfig far;
    far.comm.fault.down_windows = {{0, 99, 0, 1}};
    EXPECT_NO_THROW((void)Scenario::for_training(far));
}

TEST(ScenarioBuild, ServeInheritsTrainingSideKnobs) {
    const graph::Dataset d = tiny_data();
    ScenarioConfig cfg = base_cfg(d, ScenarioMode::kServe);
    cfg.pipeline.train.comm.cost.latency_s = 0.125;
    cfg.pipeline.method.semantic.grouping.kmeans_k = 7;
    const Scenario s = Scenario::build(cfg);
    EXPECT_DOUBLE_EQ(s.config().serve.cost.latency_s, 0.125);
    EXPECT_EQ(s.config().serve.compressor.grouping.kmeans_k, 7u);
}

TEST(ScenarioTrain, ForTrainingMatchesDirectFullGraphEntry) {
    const graph::Dataset d = tiny_data();
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 5);
    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.hidden_dim = 16;
    mc.out_dim = d.num_classes;
    dist::DistTrainConfig cfg;
    cfg.epochs = 3;

    auto comp_a = dist::make_compressor("ours");
    const dist::DistTrainResult via_scenario =
        Scenario::for_training(cfg).train(d, parts, mc, *comp_a);
    auto comp_b = dist::make_compressor("ours");
    const dist::DistTrainResult via_detail =
        dist::detail::train_full(d, parts, mc, cfg, *comp_b);

    ASSERT_EQ(via_scenario.epoch_metrics.size(),
              via_detail.epoch_metrics.size());
    for (std::size_t e = 0; e < via_scenario.epoch_metrics.size(); ++e)
        EXPECT_EQ(via_scenario.epoch_metrics[e].loss,
                  via_detail.epoch_metrics[e].loss);  // bitwise
    EXPECT_EQ(via_scenario.test_accuracy, via_detail.test_accuracy);
    EXPECT_EQ(via_scenario.mean_comm_mb, via_detail.mean_comm_mb);
}

// The CLI's full-graph path (Scenario::run in train mode) and
// core::run_pipeline (the path the goldens pin) give the same result.
TEST(ScenarioTrain, RunMatchesRunPipeline) {
    const graph::Dataset d = tiny_data();
    const ScenarioConfig cfg = base_cfg(d, ScenarioMode::kTrain);
    const core::PipelineResult a = Scenario::build(cfg).run(d).pipeline;
    const core::PipelineResult b = core::run_pipeline(d, cfg.pipeline);

    ASSERT_EQ(a.train.epoch_metrics.size(), b.train.epoch_metrics.size());
    for (std::size_t e = 0; e < a.train.epoch_metrics.size(); ++e) {
        EXPECT_EQ(a.train.epoch_metrics[e].loss,
                  b.train.epoch_metrics[e].loss);  // bitwise
        EXPECT_EQ(a.train.epoch_metrics[e].comm_mb,
                  b.train.epoch_metrics[e].comm_mb);
    }
    EXPECT_EQ(a.train.test_accuracy, b.train.test_accuracy);
    EXPECT_EQ(a.train.val_accuracy, b.train.val_accuracy);
    EXPECT_EQ(a.partition_quality.cut_edges, b.partition_quality.cut_edges);
    EXPECT_EQ(a.cross_edges, b.cross_edges);
    EXPECT_EQ(a.wire_rows, b.wire_rows);
    EXPECT_EQ(a.num_groups, b.num_groups);
    EXPECT_EQ(a.compression_ratio, b.compression_ratio);
}

TEST(ScenarioSampleTrain, RunsAndReportsSamplingStats) {
    const graph::Dataset d = tiny_data();
    const Scenario s =
        Scenario::build(base_cfg(d, ScenarioMode::kSampleTrain));
    const ScenarioResult r = s.run(d);
    ASSERT_EQ(r.pipeline.train.epoch_metrics.size(), 3u);
    for (const dist::EpochMetrics& m : r.pipeline.train.epoch_metrics)
        EXPECT_TRUE(std::isfinite(m.loss));
    const dist::SampleStats& smp = r.pipeline.train.sampling;
    EXPECT_GT(smp.batches, 0u);
    EXPECT_GT(smp.mean_batch_nodes, 0.0);
    EXPECT_GT(smp.requested_rows, 0u);
    EXPECT_GT(smp.request_bytes, 0u);
    // The sampled path still pays for its requests on the wire.
    EXPECT_GT(r.pipeline.train.mean_comm_mb, 0.0);
    // Semantic statistics come from the same fill as the full-batch path.
    EXPECT_GT(r.pipeline.cross_edges, 0u);
    EXPECT_GE(r.pipeline.compression_ratio, 1.0);
}

TEST(ScenarioSampleTrain, BaselinesPriceTheirOwnRequests) {
    // Each method serves requests through its own exchange body, so a
    // quantised or sampled request moves fewer bytes than fp32 rows, and
    // quantising the semantic rows moves fewer than the semantic rows.
    const graph::Dataset d = tiny_data();
    const auto request_bytes = [&](const char* stack) {
        ScenarioConfig cfg = base_cfg(d, ScenarioMode::kSampleTrain);
        cfg.pipeline.method.name = stack;
        const ScenarioResult r = Scenario::build(cfg).run(d);
        EXPECT_GT(r.pipeline.train.sampling.requested_rows, 0u) << stack;
        return r.pipeline.train.sampling.request_bytes;
    };
    const std::uint64_t vanilla = request_bytes("vanilla");
    const std::uint64_t ours = request_bytes("ours");
    const std::uint64_t quant = request_bytes("quant");
    const std::uint64_t sampling = request_bytes("sampling");
    const std::uint64_t ours_quant = request_bytes("ours+quant");
    EXPECT_LT(ours, vanilla);
    EXPECT_LT(quant, vanilla);
    EXPECT_LT(quant, ours);
    EXPECT_LT(sampling, vanilla);
    EXPECT_LT(ours_quant, vanilla);
    EXPECT_LT(ours_quant, ours);
}

TEST(ScenarioSampleTrain, BitwiseReproducibleAcrossThreadCounts) {
    // The trainer builds batches in a lookahead window of one batch per
    // pool thread. Besides the base config, cover a batch count that is
    // not a multiple of the window (7 batches at 4 threads) and one with
    // fewer batches than threads.
    const graph::Dataset d = tiny_data();
    const std::size_t train = d.train_mask.size();
    struct Case {
        std::uint32_t batch_size;
        std::uint64_t batches;  ///< per epoch; 0 = unchecked
    };
    const Case cases[] = {{48, 0},
                          {static_cast<std::uint32_t>((train + 6) / 7), 7},
                          {static_cast<std::uint32_t>((train + 2) / 3), 3}};
    for (const Case& c : cases) {
        auto run_at = [&](unsigned threads) {
            ThreadCountGuard guard(threads);
            ScenarioConfig cfg = base_cfg(d, ScenarioMode::kSampleTrain);
            cfg.sampler.batch_size = c.batch_size;
            const ScenarioResult r = Scenario::build(cfg).run(d);
            const dist::DistTrainResult& t = r.pipeline.train;
            if (c.batches != 0) {
                EXPECT_EQ(t.sampling.batches, c.batches * t.epochs_run);
            }
            std::ostringstream o;
            for (const dist::EpochMetrics& m : t.epoch_metrics)
                o << g17(m.loss) << "," << g17(m.comm_mb) << ","
                  << g17(m.comm_ms) << ",";
            o << g17(t.final_loss) << "," << g17(t.train_accuracy) << ","
              << g17(t.val_accuracy) << "," << g17(t.test_accuracy) << ","
              << t.sampling.batches << ","
              << g17(t.sampling.mean_batch_nodes) << ","
              << t.sampling.requested_rows << ","
              << t.sampling.request_bytes;
            return o.str();
        };
        EXPECT_EQ(run_at(1), run_at(4)) << "batch_size " << c.batch_size;
    }
}

/// Keys of the flat `"<section>":{...}` object of a ledger report (the
/// config and final sections hold only string and number values).
std::vector<std::string> report_keys(const std::string& json,
                                     const std::string& section) {
    std::vector<std::string> keys;
    const std::string head = "\"" + section + "\":{";
    std::size_t pos = json.find(head);
    if (pos == std::string::npos) return keys;
    pos += head.size();
    while (json[pos] == '"') {
        const std::size_t close = json.find('"', pos + 1);
        keys.push_back(json.substr(pos + 1, close - pos - 1));
        pos = close + 2;  // past `":`
        if (json[pos] == '"') pos = json.find('"', pos + 1) + 1;
        pos = json.find_first_of(",}", pos);
        if (json[pos] == '}') break;
        ++pos;
    }
    return keys;
}

TEST(ScenarioReport, SampledRunEmitsTheTrainRunsKeys) {
    // Both training modes run on one epoch driver, so a sample-train
    // report carries every config and final key a train report does; only
    // elastic membership (full-graph only) may add keys to the train run.
    // A fault model is on, so the fault keys are in both reports too.
    const graph::Dataset d = tiny_data();
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    auto run_keys = [&](ScenarioMode mode, const std::string& section) {
        obs::reset();
        ScenarioConfig cfg = base_cfg(d, mode);
        cfg.pipeline.train.comm.fault.drop_probability = 0.05;
        (void)Scenario::build(cfg).run(d);
        return report_keys(obs::ledger().to_json(), section);
    };
    auto has = [](const std::vector<std::string>& keys, const char* key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    for (const char* section : {"config", "final"}) {
        const std::vector<std::string> train =
            run_keys(ScenarioMode::kTrain, section);
        const std::vector<std::string> sampled =
            run_keys(ScenarioMode::kSampleTrain, section);
        EXPECT_FALSE(train.empty()) << section;
        // Training runs a fixed epoch count and faults have no straggler
        // mode, so neither report names them.
        for (const auto* keys : {&train, &sampled}) {
            EXPECT_FALSE(has(*keys, "best_val_accuracy")) << section;
            EXPECT_FALSE(has(*keys, "fault.straggler_probability"))
                << section;
        }
        if (std::string(section) == "config") {
            EXPECT_TRUE(has(train, "fault.drop_probability"));
        }
        for (const std::string& key : train) {
            if (key.rfind("membership.", 0) == 0) continue;
            EXPECT_TRUE(has(sampled, key.c_str()))
                << section << " key " << key << " missing in sample-train";
        }
    }
    EXPECT_NE(obs::ledger().to_json().find(
                  "\"trainer.mode\":\"sample-train\""),
              std::string::npos);
    obs::reset();
    obs::set_enabled(was_enabled);
}

TEST(ScenarioReport, EveryModeRecordsTheKernelTier) {
    // Measured compute depends on the vector tier the row kernels ran, so
    // every report names it.
    const graph::Dataset d = tiny_data();
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    const std::string want = std::string("\"tensor.isa\":\"") +
                             tensor::kern::isa_name(
                                 tensor::kern::active_isa()) +
                             "\"";
    for (const ScenarioMode mode :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe}) {
        obs::reset();
        (void)Scenario::build(base_cfg(d, mode)).run(d);
        EXPECT_NE(obs::ledger().to_json().find(want), std::string::npos)
            << mode_name(mode);
    }
    obs::reset();
    obs::set_enabled(was_enabled);
}

TEST(ScenarioReport, TrainingRecordsEachDevicesLocalNnz) {
    // Both training reports name every device's local SpMM nonzeros and
    // their max/mean, the load imbalance of the partitioning.
    const graph::Dataset d = tiny_data();
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    for (const ScenarioMode mode :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain}) {
        obs::reset();
        (void)Scenario::build(base_cfg(d, mode)).run(d);
        const std::string json = obs::ledger().to_json();
        for (const char* key :
             {"\"load.local_nnz.0\":", "\"load.local_nnz.3\":",
              "\"load.local_nnz_max_over_mean\":"})
            EXPECT_NE(json.find(key), std::string::npos)
                << mode_name(mode) << " " << key;
        EXPECT_EQ(json.find("\"load.local_nnz.4\":"), std::string::npos);
    }
    obs::reset();
    obs::set_enabled(was_enabled);
}

TEST(ScenarioSampleTrain, SharesRateAndOverlap) {
    // Sampled mode runs the driver's rate controller and overlap schedule.
    // The warmup ramp is a pure function of the epoch, so both modes
    // apply the same rate sequence.
    const graph::Dataset d = tiny_data();
    auto run_at = [&](ScenarioMode mode, unsigned threads) {
        ThreadCountGuard guard(threads);
        ScenarioConfig cfg = base_cfg(d, mode);
        dist::DistTrainConfig& t = cfg.pipeline.train;
        t.epochs = 6;
        t.rate.kind = dist::RateSchedule::kWarmup;
        t.rate.warmup_epochs = 4;
        t.comm.mode = comm::CostModel::Mode::kOverlap;
        return Scenario::build(cfg).run(d).pipeline.train;
    };
    const dist::DistTrainResult full = run_at(ScenarioMode::kTrain, 1);
    const dist::DistTrainResult one = run_at(ScenarioMode::kSampleTrain, 1);
    const dist::DistTrainResult four = run_at(ScenarioMode::kSampleTrain, 4);

    ASSERT_EQ(one.epoch_metrics.size(), 6u);
    ASSERT_EQ(full.epoch_metrics.size(), 6u);
    for (std::size_t e = 0; e < 6; ++e)
        EXPECT_EQ(one.epoch_metrics[e].rate, full.epoch_metrics[e].rate)
            << "epoch " << e;
    EXPECT_LT(one.epoch_metrics.back().rate, 1.0);
    for (const dist::EpochMetrics& m : one.epoch_metrics) {
        EXPECT_LE(m.epoch_ms, m.compute_ms + m.comm_ms);
        EXPECT_GE(m.overlap_ms, 0.0);
    }
    ASSERT_EQ(one.epoch_metrics.size(), four.epoch_metrics.size());
    for (std::size_t e = 0; e < one.epoch_metrics.size(); ++e) {
        EXPECT_EQ(one.epoch_metrics[e].loss, four.epoch_metrics[e].loss);
        EXPECT_EQ(one.epoch_metrics[e].comm_mb,
                  four.epoch_metrics[e].comm_mb);
        EXPECT_EQ(one.epoch_metrics[e].rate, four.epoch_metrics[e].rate);
    }
}

std::string render_serve(const ServeResult& s) {
    std::ostringstream o;
    o << s.queries << "," << s.batches << "," << g17(s.mean_batch) << ","
      << g17(s.p50_ms) << "," << g17(s.p99_ms) << "," << g17(s.p999_ms)
      << "," << g17(s.mean_ms) << "," << s.cache_hits << ","
      << s.cache_misses << "," << g17(s.halo_mb);
    return o.str();
}

TEST(ScenarioServe, DeterministicAndWellFormed) {
    const graph::Dataset d = tiny_data();
    const Scenario s = Scenario::build(base_cfg(d, ScenarioMode::kServe));
    const ServeResult a = s.run(d).serve;
    const ServeResult b = s.run(d).serve;
    EXPECT_EQ(render_serve(a), render_serve(b));
    EXPECT_EQ(a.queries, 400u);
    EXPECT_GE(a.batches, 1u);
    EXPECT_LE(a.batches, a.queries);
    EXPECT_GE(a.mean_batch, 1.0);
    // Quantiles ordered and inside the histogram range.
    EXPECT_LE(a.p50_ms, a.p99_ms);
    EXPECT_LE(a.p99_ms, a.p999_ms);
    // The binned quantile may overshoot the exact max by at most one bin
    // width (the documented interpolation bias).
    const double bin_ms =
        s.config().serve.hist_max_ms / ServeConfig::kHistBins;
    EXPECT_LE(a.p999_ms, a.max_ms + bin_ms);
    EXPECT_GT(a.p50_ms, 0.0);
    EXPECT_GT(a.hit_rate, 0.0);  // warm cache pays off within 400 queries
    EXPECT_EQ(a.cache_hits + a.cache_misses > 0,
              true);
}

TEST(ScenarioServe, CacheReducesFetchVolume) {
    const graph::Dataset d = tiny_data();
    ScenarioConfig cfg = base_cfg(d, ScenarioMode::kServe);
    const ServeResult cached = Scenario::build(cfg).run(d).serve;
    cfg.serve.halo_cache = false;
    const ServeResult naive = Scenario::build(cfg).run(d).serve;
    EXPECT_EQ(naive.cache_hits, 0u);
    EXPECT_DOUBLE_EQ(naive.hit_rate, 0.0);
    EXPECT_LT(cached.halo_mb, naive.halo_mb);
    EXPECT_GT(cached.hit_rate, 0.0);
}

// Reference model of the serving run: a hash-set BFS over Â and halo
// units keyed by splitmix64 signatures in hash-set caches. InferenceServer
// replaces the signatures with dense ids and must reproduce it exactly.
std::uint64_t ref_unit_sig(std::uint64_t tag, std::uint64_t a,
                           std::uint64_t b) {
    std::uint64_t s = tag;
    s = splitmix64(s) ^ a;
    s = splitmix64(s) ^ b;
    return splitmix64(s);
}

ServeResult reference_serve(const graph::Dataset& d,
                            const dist::DistContext& ctx,
                            const ServeConfig& cfg) {
    const std::uint32_t p = ctx.num_parts();
    const tensor::SparseMatrix adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    std::vector<std::int64_t> plan_of_pair(static_cast<std::size_t>(p) * p,
                                           -1);
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi)
        plan_of_pair[static_cast<std::size_t>(ctx.plans()[pi].src_part) * p +
                     ctx.plans()[pi].dst_part] = static_cast<std::int64_t>(pi);
    std::vector<std::vector<std::int32_t>> group_of(ctx.plans().size());
    if (cfg.semantic) {
        core::SemanticCompressor comp(cfg.compressor);
        comp.setup(ctx);
        for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi)
            group_of[pi] = comp.grouping(pi).group_of_row;
    }

    auto resolve = [&](std::uint32_t v, std::vector<std::uint64_t>& units,
                       std::vector<std::uint32_t>& owners) {
        const std::uint32_t home = ctx.owner(v);
        std::vector<std::uint32_t> visited{v};
        std::unordered_set<std::uint32_t> seen{v};
        std::size_t lo = 0;
        for (std::uint32_t hop = 0; hop < cfg.layers; ++hop) {
            const std::size_t hi = visited.size();
            for (std::size_t fi = lo; fi < hi; ++fi)
                for (const std::uint32_t w : adj.row_cols(visited[fi]))
                    if (seen.insert(w).second) visited.push_back(w);
            lo = hi;
        }
        for (const std::uint32_t u : visited) {
            const std::uint32_t o = ctx.owner(u);
            if (o == home) continue;
            std::uint64_t sig = ref_unit_sig(0xC9, o, u);
            const std::int64_t pi =
                plan_of_pair[static_cast<std::size_t>(o) * p + home];
            if (pi >= 0) {
                const auto& src = ctx.plans()[static_cast<std::size_t>(pi)]
                                      .dbg.src_nodes;
                const auto it = std::lower_bound(src.begin(), src.end(), u);
                if (it != src.end() && *it == u) {
                    const auto row =
                        static_cast<std::uint64_t>(it - src.begin());
                    const std::int32_t g =
                        cfg.semantic
                            ? group_of[static_cast<std::size_t>(pi)][row]
                            : -1;
                    sig = g >= 0 ? ref_unit_sig(
                                       0xA5, static_cast<std::uint64_t>(pi),
                                       static_cast<std::uint64_t>(g))
                                 : ref_unit_sig(
                                       0xB7, static_cast<std::uint64_t>(pi),
                                       row);
                }
            }
            units.push_back(sig);
            owners.push_back(o);
        }
        return visited.size();
    };

    struct Query {
        double arrival_ms;
        std::uint32_t node;
    };
    std::vector<std::vector<Query>> per_device(p);
    Rng rng(cfg.seed);
    for (std::uint32_t i = 0; i < cfg.queries; ++i) {
        const auto v =
            static_cast<std::uint32_t>(rng.uniform_u64(d.graph.num_nodes()));
        per_device[ctx.owner(v)].push_back({i * (1e3 / cfg.qps), v});
    }

    comm::Fabric fabric(comm::Topology::flat(p, cfg.cost));
    Histogram hist(0.0, cfg.hist_max_ms, ServeConfig::kHistBins);
    RunningStat lat;
    ServeResult res;
    res.queries = cfg.queries;
    std::uint64_t fetched = 0;
    const std::uint64_t unit_bytes =
        static_cast<std::uint64_t>(cfg.embed_dim) * sizeof(float);
    for (std::uint32_t dev = 0; dev < p; ++dev) {
        const std::vector<Query>& q = per_device[dev];
        std::unordered_set<std::uint64_t> cache;
        double busy_ms = 0.0;
        for (std::size_t i = 0; i < q.size();) {
            const double t0 = q[i].arrival_ms;
            std::size_t j = i + 1;
            while (j < q.size() && j - i < cfg.batch_max &&
                   q[j].arrival_ms <= t0 + cfg.deadline_ms)
                ++j;
            const double close_ms =
                j - i == cfg.batch_max
                    ? q[j - 1].arrival_ms
                    : std::min(t0 + cfg.deadline_ms, q.back().arrival_ms);
            const double dispatch_ms = std::max(busy_ms, close_ms);
            std::vector<std::uint64_t> units;
            std::vector<std::uint32_t> owners;
            std::size_t touched = 0;
            for (std::size_t k = i; k < j; ++k)
                touched += resolve(q[k].node, units, owners);
            std::unordered_set<std::uint64_t> batch_seen;
            std::map<std::uint32_t, std::uint64_t> by_owner;
            for (std::size_t u = 0; u < units.size(); ++u) {
                if (!batch_seen.insert(units[u]).second) continue;
                if (cfg.halo_cache && cache.count(units[u]) > 0) {
                    ++res.cache_hits;
                    continue;
                }
                ++res.cache_misses;
                by_owner[owners[u]] += unit_bytes;
                if (cfg.halo_cache) cache.insert(units[u]);
            }
            double fetch_ms = 0.0;
            for (const auto& [o, bytes] : by_owner) {
                fetch_ms += fabric.send(o, dev, bytes).modelled_ms;
                fetched += bytes;
            }
            const double service_ms =
                ServeConfig::kDispatchOverheadMs +
                ServeConfig::kComputeMsPerNode * static_cast<double>(touched) +
                fetch_ms;
            const double done_ms = dispatch_ms + service_ms;
            busy_ms = done_ms;
            for (std::size_t k = i; k < j; ++k) {
                hist.add(done_ms - q[k].arrival_ms);
                lat.add(done_ms - q[k].arrival_ms);
            }
            ++res.batches;
            i = j;
        }
    }
    res.mean_batch = static_cast<double>(res.queries) /
                     static_cast<double>(res.batches);
    res.p50_ms = hist.quantile(0.50);
    res.p99_ms = hist.quantile(0.99);
    res.p999_ms = hist.quantile(0.999);
    res.mean_ms = lat.mean();
    res.max_ms = lat.max();
    const std::uint64_t touches = res.cache_hits + res.cache_misses;
    res.hit_rate = touches > 0 ? static_cast<double>(res.cache_hits) /
                                     static_cast<double>(touches)
                               : 0.0;
    res.halo_mb = static_cast<double>(fetched) / 1e6;
    return res;
}

/// Every ServeResult field, bitwise.
void expect_same(const ServeResult& a, const ServeResult& b) {
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.mean_batch, b.mean_batch);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.p999_ms, b.p999_ms);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.hit_rate, b.hit_rate);
    EXPECT_EQ(a.halo_mb, b.halo_mb);
}

/// Contiguous chunks of BFS order from node 0, unreached nodes last. An
/// edge joins nodes at most one BFS level apart, so distant chunks share
/// no cross edge and their part pairs get no exchange plan.
partition::Partitioning bfs_chunks(const graph::Graph& g, std::uint32_t p) {
    const std::uint32_t n = g.num_nodes();
    std::vector<std::uint32_t> order{0};
    std::vector<bool> seen(n, false);
    seen[0] = true;
    for (std::size_t i = 0; i < order.size(); ++i)
        for (const std::uint32_t w : g.neighbors(order[i]))
            if (!seen[w]) {
                seen[w] = true;
                order.push_back(w);
            }
    for (std::uint32_t u = 0; u < n; ++u)
        if (!seen[u]) order.push_back(u);
    partition::Partitioning parts;
    parts.num_parts = p;
    parts.part_of.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        parts.part_of[order[i]] = static_cast<std::uint32_t>(i * p / n);
    return parts;
}

TEST(ScenarioServe, MatchesSignatureKeyedReferenceModel) {
    const graph::Dataset d = tiny_data();
    const ServeConfig base = base_cfg(d, ScenarioMode::kServe).serve;
    for (const std::uint32_t p : {2u, 8u}) {
        const partition::Partitioning parts = bfs_chunks(d.graph, p);
        if (p == 8) {
            // Part pairs without a plan resolve to off-plan units only.
            const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
            ASSERT_LT(ctx.plans().size(), std::size_t{p} * (p - 1));
        }
        for (const bool semantic : {true, false})
            for (const bool cache : {true, false})
                for (const std::uint32_t batch_max : {1u, 8u})
                    for (const std::uint32_t layers : {1u, 3u}) {
                        SCOPED_TRACE(testing::Message()
                                     << "P=" << p << " semantic=" << semantic
                                     << " cache=" << cache
                                     << " batch_max=" << batch_max
                                     << " layers=" << layers);
                        ServeConfig cfg = base;
                        cfg.semantic = semantic;
                        cfg.halo_cache = cache;
                        cfg.batch_max = batch_max;
                        cfg.layers = layers;
                        const InferenceServer server(d, parts, cfg);
                        expect_same(server.run(),
                                    reference_serve(d, server.context(), cfg));
                    }
    }
}

TEST(ScenarioServe, ConcurrentRunsMatchSerialRun) {
    const graph::Dataset d = tiny_data();
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 5);
    const InferenceServer server(d, parts,
                                 base_cfg(d, ScenarioMode::kServe).serve);
    const ServeResult serial = server.run();
    std::vector<ServeResult> results(4);
    std::vector<std::thread> threads;
    for (ServeResult& r : results)
        threads.emplace_back([&server, &r] { r = server.run(); });
    for (std::thread& t : threads) t.join();
    for (const ServeResult& r : results) expect_same(r, serial);
}

TEST(ScenarioServe, TrainingDispatchThrows) {
    const graph::Dataset d = tiny_data();
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 5);
    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.out_dim = d.num_classes;
    auto comp = dist::make_compressor("vanilla");
    const Scenario s = Scenario::build(base_cfg(d, ScenarioMode::kServe));
    EXPECT_THROW((void)s.train(d, parts, mc, *comp), Error);
}

} // namespace
} // namespace scgnn::runtime
