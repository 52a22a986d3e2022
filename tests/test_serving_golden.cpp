// Golden pins for the two Scenario workloads: neighbor-sampled training
// runs (pubmed_sampled*.json, one per compressor stack) and one open-loop
// serving run (pubmed_serving.json), all rendered at %.17g so any numeric
// drift — sampler stream, request pricing, micro-batching, cache
// accounting — fails the diff bitwise. On mismatch the check prints the regen command:
//   SCGNN_GOLDEN_REGEN=1 ./build/tests/test_serving_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scgnn/common/parallel.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace scgnn::runtime {
namespace {

constexpr double kScale = 0.1;
constexpr std::uint64_t kSeed = 7;

graph::Dataset golden_data() {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, kScale,
                               kSeed);
}

ScenarioConfig golden_cfg(const graph::Dataset& d, ScenarioMode mode) {
    ScenarioConfig cfg;
    cfg.mode = mode;
    cfg.pipeline.num_parts = 4;
    cfg.pipeline.partition_seed = kSeed;
    cfg.pipeline.model.in_dim =
        static_cast<std::uint32_t>(d.features.cols());
    cfg.pipeline.model.hidden_dim = 32;
    cfg.pipeline.model.out_dim = d.num_classes;
    cfg.pipeline.train.epochs = 4;
    cfg.pipeline.method.method = core::Method::kSemantic;
    cfg.sampler.batch_size = 48;
    cfg.sampler.fanout = {6, 4};
    cfg.sampler.seed = 17;
    cfg.serve.qps = 4000.0;
    cfg.serve.queries = 1000;
    cfg.serve.seed = 23;
    cfg.serve.batch_max = 8;
    cfg.serve.deadline_ms = 2.0;
    return cfg;
}

std::string g17(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string render_sampled(const core::PipelineResult& r,
                           const std::string& method) {
    const dist::SampleStats& smp = r.train.sampling;
    std::ostringstream o;
    o << "{\n";
    o << "  \"schema\": \"scgnn.golden/1\",\n";
    o << "  \"preset\": \"pubmed\",\n";
    o << "  \"config\": {\"scale\": " << g17(kScale)
      << ", \"epochs\": 4, \"parts\": 4, \"seed\": " << kSeed
      << ", \"hidden\": 32, \"method\": \"" << method << '"'
      << ", \"mode\": \"sample-train\", \"batch_size\": 48"
      << ", \"fanout\": \"6,4\", \"sampler_seed\": 17},\n";
    o << "  \"epoch_loss\": [";
    for (std::size_t e = 0; e < r.train.epoch_metrics.size(); ++e)
        o << (e ? ", " : "") << g17(r.train.epoch_metrics[e].loss);
    o << "],\n";
    o << "  \"final_loss\": " << g17(r.train.final_loss) << ",\n";
    o << "  \"test_accuracy\": " << g17(r.train.test_accuracy) << ",\n";
    o << "  \"val_accuracy\": " << g17(r.train.val_accuracy) << ",\n";
    o << "  \"mean_comm_mb\": " << g17(r.train.mean_comm_mb) << ",\n";
    o << "  \"sampling\": {\"batches\": " << smp.batches
      << ", \"mean_batch_nodes\": " << g17(smp.mean_batch_nodes)
      << ", \"requested_rows\": " << smp.requested_rows
      << ", \"request_bytes\": " << smp.request_bytes << "}\n";
    o << "}\n";
    return o.str();
}

std::string render_serving(const ServeResult& s) {
    std::ostringstream o;
    o << "{\n";
    o << "  \"schema\": \"scgnn.golden/1\",\n";
    o << "  \"preset\": \"pubmed\",\n";
    o << "  \"config\": {\"scale\": " << g17(kScale)
      << ", \"parts\": 4, \"seed\": " << kSeed
      << ", \"mode\": \"serve\", \"qps\": 4000, \"queries\": 1000"
      << ", \"serve_seed\": 23, \"batch_max\": 8, \"deadline_ms\": 2},\n";
    o << "  \"queries\": " << s.queries << ",\n";
    o << "  \"batches\": " << s.batches << ",\n";
    o << "  \"mean_batch\": " << g17(s.mean_batch) << ",\n";
    o << "  \"p50_ms\": " << g17(s.p50_ms) << ",\n";
    o << "  \"p99_ms\": " << g17(s.p99_ms) << ",\n";
    o << "  \"p999_ms\": " << g17(s.p999_ms) << ",\n";
    o << "  \"mean_ms\": " << g17(s.mean_ms) << ",\n";
    o << "  \"max_ms\": " << g17(s.max_ms) << ",\n";
    o << "  \"cache_hits\": " << s.cache_hits << ",\n";
    o << "  \"cache_misses\": " << s.cache_misses << ",\n";
    o << "  \"hit_rate\": " << g17(s.hit_rate) << ",\n";
    o << "  \"halo_mb\": " << g17(s.halo_mb) << "\n";
    o << "}\n";
    return o.str();
}

bool regen_mode() { return std::getenv("SCGNN_GOLDEN_REGEN") != nullptr; }

void check_golden(const std::string& name, const std::string& got) {
    const std::string path =
        std::string(SCGNN_GOLDEN_DIR) + "/" + name + ".json";
    if (regen_mode()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path << "\nregenerate with:\n"
        << "  SCGNN_GOLDEN_REGEN=1 ./build/tests/test_serving_golden";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), got)
        << "golden mismatch for " << path
        << "\nIf this numeric change is intentional, regenerate with:\n"
        << "  SCGNN_GOLDEN_REGEN=1 ./build/tests/test_serving_golden\n"
        << "and commit the refreshed tests/golden/*.json.";
}

/// Run the sample-train golden config with compressor stack `method`
/// (empty = the plain semantic method, rendered "ours") at 1, 3 and 4
/// threads, pin the 1-thread render as `golden` and require the others
/// to match it: the batch SpMMs of both passes run on the pool, and 3
/// splits their rows into uneven chunks.
void check_sampled_golden(const std::string& golden,
                          const std::string& method) {
    const graph::Dataset d = golden_data();
    ScenarioConfig cfg = golden_cfg(d, ScenarioMode::kSampleTrain);
    cfg.pipeline.method.name = method;
    const Scenario s = Scenario::build(std::move(cfg));
    const std::string label = method.empty() ? "ours" : method;
    auto run_at = [&](unsigned threads) {
        ThreadCountGuard guard(threads);
        return render_sampled(s.run(d).pipeline, label);
    };
    const std::string pinned = run_at(1);
    check_golden(golden, pinned);
    EXPECT_EQ(pinned, run_at(3));
    EXPECT_EQ(pinned, run_at(4));
}

TEST(ServingGolden, SampledTrainingRunPinned) {
    check_sampled_golden("pubmed_sampled", "");
}

// Error feedback over the semantic request path: the residual slot keeps
// the full plan shape while each batch updates only its requested rows.
TEST(ServingGolden, SampledEfRunPinned) {
    check_sampled_golden("pubmed_sampled_ef", "ef+ours");
}

// The §5.5 composition on the request path: each request's fused rows are
// quantised as one tensor, so it moves fewer bytes than plain "ours".
TEST(ServingGolden, SampledComposedRunPinned) {
    check_sampled_golden("pubmed_sampled_composed", "ours+quant");
}

TEST(ServingGolden, ServingRunPinned) {
    const graph::Dataset d = golden_data();
    const Scenario s = Scenario::build(golden_cfg(d, ScenarioMode::kServe));
    check_golden("pubmed_serving", render_serving(s.run(d).serve));
}

} // namespace
} // namespace scgnn::runtime
