// Rate-schedule Pareto bench: wire bytes vs final loss for the rate
// schedules of dist/rate_control.hpp on the pubmed preset, across the
// error-feedback stacks the schedules are designed for.
//
// A schedule trades bytes for loss, so neither axis alone ranks it. The
// acceptance gate is Pareto dominance: within each stack, no schedule's
// (final loss, total MB) may be dominated by another schedule's — ≤ on
// both and < on one. A dominated schedule costs more bytes for no better
// loss and should not ship; the binary exits 1 naming it.
//
// Flags: --scale <f> (default 0.2), --epochs <n> (default 96),
// --seed <n>, --parts <n> (default 4), --json <path> (google-benchmark
// JSON for scripts/check_bench_regression.py; committed as
// BENCH_adaptive_rate.json), plus the shared scenario flags
// (--schedule-floor and --warmup-epochs shape the warmup ramp). In the
// JSON, `real_time` is the measured wall time of one training run;
// final_loss, total_mb and mean_rate are modelled and deterministic at
// any thread count, so the committed snapshot diffs them exactly.
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "scgnn/common/timer.hpp"
#include "scgnn/dist/rate_control.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"

namespace {

using namespace scgnn;

struct Run {
    std::string stack;
    dist::RateSchedule schedule = dist::RateSchedule::kFixed;
    dist::DistTrainResult result;
    double wall_s = 0.0;  ///< measured wall time of the training run

    [[nodiscard]] double total_mb() const {
        return result.total_comm_mb;
    }
    [[nodiscard]] double mean_rate() const {
        if (result.epoch_metrics.empty()) return 1.0;
        double s = 0.0;
        for (const auto& m : result.epoch_metrics) s += m.rate;
        return s / static_cast<double>(result.epoch_metrics.size());
    }
};

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
        // real_time is measured; the modelled figures are named fields.
        std::fprintf(
            f,
            "    {\"name\": \"BM_AdaptiveRate/%s/%s\", "
            "\"real_time\": %.1f, \"time_unit\": \"ns\", "
            "\"final_loss\": %.17g, \"total_mb\": %.6f, "
            "\"mean_rate\": %.6f}%s\n",
            r.stack.c_str(), dist::schedule_name(r.schedule),
            r.wall_s * 1e9, r.result.final_loss, r.total_mb(),
            r.mean_rate(), i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    runtime::ScenarioConfig scn;
    const dist::RateScheduleConfig& rate = scn.pipeline.train.rate;
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

    std::printf("# schedules: fixed, warmup floor=%.3g over %u epochs\n",
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
        {"ef+ours+quant", dist::RateSchedule::kFixed},
        {"ef+ours+quant", dist::RateSchedule::kWarmup},
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
        const WallTimer timer;
        run.result = runtime::Scenario::for_training(cfg).train(d, parts, mc, *comp);
        run.wall_s = timer.seconds();
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

    // Acceptance gate: within each stack, no schedule may be dominated —
    // another schedule at ≤ loss and ≤ MB, strictly better on one.
    int dominated = 0;
    for (const Run& a : runs)
        for (const Run& b : runs) {
            if (&a == &b || a.stack != b.stack) continue;
            const double la = a.result.final_loss, lb = b.result.final_loss;
            const double ma = a.total_mb(), mb = b.total_mb();
            if (lb <= la && mb <= ma && (lb < la || mb < ma)) {
                std::fprintf(stderr,
                             "FAIL: %s/%s (loss %.4f, %.2f MB) is dominated "
                             "by %s (loss %.4f, %.2f MB)\n",
                             a.stack.c_str(), dist::schedule_name(a.schedule),
                             la, ma, dist::schedule_name(b.schedule), lb, mb);
                ++dominated;
            }
        }
    if (dominated > 0) return 1;
    std::printf("# gate: no schedule is Pareto-dominated within its stack\n");
    return 0;
}
