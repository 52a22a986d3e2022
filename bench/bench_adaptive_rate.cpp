// Adaptive-rate Pareto bench: wire bytes vs final loss for the rate
// schedules of dist/rate_control.hpp on the pubmed preset, across the
// error-feedback stacks the schedules are designed for.
//
// Comparing schedules by mean MB/epoch alone is misleading — a schedule
// can "save" bytes by silently converging slower. The honest metric is
// *bytes to target loss*: pick the worse of the two final losses as the
// target both runs provably reach, then charge each run the wire bytes it
// spent up to its first crossing. That is the number the acceptance gate
// checks: the adaptive ef+ours+quant run must reach the shared target
// with ≥ 30% fewer wire bytes than the fixed-rate run of the same stack.
//
// Flags: --scale <f> (default 0.2), --epochs <n> (default 96),
// --seed <n>, --parts <n> (default 4), --json <path> (google-benchmark
// JSON for scripts/check_bench_regression.py; committed as
// BENCH_adaptive_rate.json), plus the shared scenario flags — the bench
// presets the tuned adaptive operating point (floor 0.25, drift 1.0,
// improve 0.001, hold 4), which --schedule-floor/--schedule-drift/
// --schedule-improve still override. Everything is deterministic at any
// thread count, so the committed snapshot diffs exactly.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "scgnn/dist/rate_control.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"

namespace {

using namespace scgnn;

struct Run {
    std::string stack;
    dist::RateSchedule schedule = dist::RateSchedule::kFixed;
    dist::DistTrainResult result;

    [[nodiscard]] double total_mb() const {
        return result.total_comm_mb;
    }
    [[nodiscard]] double mean_rate() const {
        if (result.epoch_metrics.empty()) return 1.0;
        double s = 0.0;
        for (const auto& m : result.epoch_metrics) s += m.rate;
        return s / static_cast<double>(result.epoch_metrics.size());
    }
    /// Wire MB spent until the train loss first reaches `target`
    /// (total when it never does — the caller picks targets both runs
    /// reach).
    [[nodiscard]] double mb_to_loss(double target) const {
        double mb = 0.0;
        for (const auto& m : result.epoch_metrics) {
            mb += m.comm_mb;
            if (m.loss <= target) return mb;
        }
        return mb;
    }
};

const Run* find(const std::vector<Run>& runs, const char* stack,
                dist::RateSchedule s) {
    for (const Run& r : runs)
        if (r.stack == stack && r.schedule == s) return &r;
    return nullptr;
}

void write_json(const char* path, const std::vector<Run>& runs,
                double scale, std::uint32_t epochs) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json output '%s'\n", path);
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"context\": {\"library\": \"scgnn.bench.adaptive_rate\","
                 " \"dataset\": \"pubmed\", \"scale\": %.3f, \"epochs\": %u},\n"
                 "  \"benchmarks\": [\n",
                 scale, epochs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run& r = runs[i];
        // total wire bytes go out as real_time so the regression checker's
        // ratio logic applies to the quantity this bench is about.
        std::fprintf(
            f,
            "    {\"name\": \"BM_AdaptiveRate/%s/%s\", "
            "\"real_time\": %.1f, \"time_unit\": \"ns\", "
            "\"final_loss\": %.17g, \"total_mb\": %.6f, "
            "\"mean_rate\": %.6f}%s\n",
            r.stack.c_str(), dist::schedule_name(r.schedule),
            r.total_mb() * 1e6, r.result.final_loss, r.total_mb(),
            r.mean_rate(), i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    runtime::ScenarioConfig scn;
    dist::RateScheduleConfig& rate = scn.pipeline.train.rate;
    // Tuned operating point for the adaptive runs (pubmed, see DESIGN.md
    // §12); the --schedule-* flags still override.
    rate.floor = 0.25;
    rate.drift_threshold = 1.0;
    rate.improve_threshold = 0.001;
    double scale = 0.2;
    std::uint32_t epochs = 96, parts_n = 4;
    std::uint64_t seed = 2024;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (runtime::Scenario::parse_flag(argc, argv, i, scn)) continue;
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
            scale = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc)
            epochs = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--parts") == 0 && i + 1 < argc)
            parts_n = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    runtime::Scenario::activate(scn);

    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, scale, seed);
    benchutil::print_dataset(d);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, parts_n, seed);
    gnn::GnnConfig mc = benchutil::model_for(d);
    mc.num_layers = 3;

    std::printf("# schedules: adaptive floor=%.3g drift=%.3g improve=%.3g, "
                "warmup floor=%.3g over %u epochs\n",
                rate.floor, rate.drift_threshold, rate.improve_threshold,
                rate.floor, rate.warmup_epochs);

    struct Plan {
        const char* stack;
        dist::RateSchedule schedule;
    };
    const Plan plans[] = {
        {"vanilla", dist::RateSchedule::kFixed},
        {"ours", dist::RateSchedule::kFixed},
        {"ef+ours", dist::RateSchedule::kFixed},
        {"ef+ours", dist::RateSchedule::kWarmup},
        {"ef+ours", dist::RateSchedule::kAdaptive},
        {"ef+ours+quant", dist::RateSchedule::kFixed},
        {"ef+ours+quant", dist::RateSchedule::kWarmup},
        {"ef+ours+quant", dist::RateSchedule::kAdaptive},
    };

    std::vector<Run> runs;
    for (const Plan& p : plans) {
        core::MethodConfig m;
        m.name = p.stack;
        m.semantic = benchutil::semantic_cfg();
        m.quant.bits = 16;
        dist::DistTrainConfig cfg = scn.pipeline.train;
        cfg.epochs = epochs;
        cfg.rate.kind = p.schedule;
        auto comp = core::make_compressor(m);
        Run run;
        run.stack = p.stack;
        run.schedule = p.schedule;
        run.result = runtime::Scenario::for_training(cfg).train(d, parts, mc, *comp);
        runs.push_back(std::move(run));
    }

    Table table({"stack", "schedule", "final loss", "MB/epoch", "total MB",
                 "mean rate"});
    for (const Run& r : runs)
        table.add_row({r.stack, dist::schedule_name(r.schedule),
                       Table::num(r.result.final_loss, 4),
                       Table::num(r.result.mean_comm_mb, 3),
                       Table::num(r.total_mb(), 2),
                       Table::num(r.mean_rate(), 3)});
    std::printf("\n%s\n", table.str().c_str());

    if (json_path != nullptr) write_json(json_path, runs, scale, epochs);

    // Acceptance gate: on the scheduled stack, adaptive must reach the
    // shared target loss (the worse of the two finals — both runs provably
    // get there) with ≥ 30% fewer wire bytes than fixed-rate.
    const Run* fixed =
        find(runs, "ef+ours+quant", dist::RateSchedule::kFixed);
    const Run* adaptive =
        find(runs, "ef+ours+quant", dist::RateSchedule::kAdaptive);
    const double target =
        std::max(fixed->result.final_loss, adaptive->result.final_loss);
    const double mb_fixed = fixed->mb_to_loss(target);
    const double mb_adaptive = adaptive->mb_to_loss(target);
    const double reduction = 1.0 - mb_adaptive / std::max(1e-9, mb_fixed);
    std::printf("# gate: loss target %.4f — fixed %.2f MB, adaptive %.2f MB "
                "(%.1f%% reduction)\n",
                target, mb_fixed, mb_adaptive, reduction * 100.0);
    if (reduction < 0.30) {
        std::fprintf(stderr,
                     "FAIL: adaptive ef+ours+quant reached loss %.4f with "
                     "%.2f MB vs fixed %.2f MB — %.1f%% reduction is below "
                     "the 30%% gate\n",
                     target, mb_adaptive, mb_fixed, reduction * 100.0);
        return 1;
    }
    return 0;
}
