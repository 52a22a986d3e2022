// Elastic-membership bench: price mid-training leaves and rejoins on the
// large-P hierarchical presets. For P ∈ {16, 64} the same pubmed run is
// trained twice — once static, once under a literal churn schedule (one
// early leave, a second mid-run leave, both devices rejoining late) — and
// the migration/rebuild overhead is reported next to the static baseline.
// Everything that goes into the committed BENCH_elastic.json snapshot is
// modelled (comm ms, migrated MB) or bitwise-deterministic (loss), so the
// diff is exact on any host; wall-clock compute never enters the JSON.
//
// Two acceptance gates (non-zero exit on failure):
//   * the elastic run's final loss is bitwise-identical to the static
//     run's — membership only remaps partitions onto devices, it never
//     touches the numerics;
//   * the last epoch runs at full strength (active devices == P) — every
//     departed device has rejoined and taken its home partition back.
//
// Flags: --scale <f> (default 0.15), --epochs <n> (default 10),
// --seed <n>, --json <path> (google-benchmark JSON for
// scripts/check_bench_regression.py), plus the shared scenario flags — a
// --membership flag replaces the built-in churn schedule.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/runtime/membership.hpp"

namespace {

using namespace scgnn;

constexpr std::uint32_t kDeviceCounts[] = {16, 64};

struct Row {
    std::uint32_t devices = 0;
    const char* mode = "static";
    dist::DistTrainResult result;

    [[nodiscard]] double peak_comm_ms() const {
        double peak = 0.0;
        for (const auto& m : result.epoch_metrics)
            peak = std::max(peak, m.comm_ms);
        return peak;
    }
    [[nodiscard]] double total_comm_ms() const {
        double s = 0.0;
        for (const auto& m : result.epoch_metrics) s += m.comm_ms;
        return s;
    }
    [[nodiscard]] std::uint32_t active_min() const {
        return result.membership.changed() ? result.membership.min_active
                                           : devices;
    }
};

/// One early leave, a second leave mid-run, both rejoining near the end —
/// the last epoch must run at full strength again.
runtime::MembershipSchedule churn_for(std::uint32_t epochs) {
    runtime::MembershipSchedule s;
    const std::uint32_t last = epochs - 1;
    s.events = {
        {runtime::MembershipEventKind::kLeave, 2, 3},
        {runtime::MembershipEventKind::kLeave, epochs / 2, 7},
        {runtime::MembershipEventKind::kJoin, last - 1, 3},
        {runtime::MembershipEventKind::kJoin, last, 7},
    };
    return s;
}

void write_json(const char* path, const std::vector<Row>& rows, double scale,
                std::uint32_t epochs) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json output '%s'\n", path);
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"context\": {\"library\": \"scgnn.bench.elastic\","
                 " \"dataset\": \"pubmed\", \"scale\": %.3f, \"epochs\": %u},\n"
                 "  \"benchmarks\": [\n",
                 scale, epochs);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        // Modelled total comm time goes out as real_time — deterministic,
        // so the regression checker's ratio logic tracks the quantity this
        // bench is about (the migration spike's cost).
        std::fprintf(
            f,
            "    {\"name\": \"BM_Elastic/P:%u/%s\", "
            "\"real_time\": %.6f, \"time_unit\": \"ns\", "
            "\"final_loss\": %.17g, \"total_mb\": %.6f, "
            "\"migrated_mb\": %.6f, \"peak_comm_ms\": %.6f, "
            "\"active_min\": %u}%s\n",
            r.devices, r.mode, r.total_comm_ms() * 1e6, r.result.final_loss,
            r.result.total_comm_mb,
            static_cast<double>(r.result.membership.migrated_bytes) / 1e6,
            r.peak_comm_ms(), r.active_min(),
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    runtime::ScenarioConfig scn;
    double scale = 0.15;
    std::uint32_t epochs = 10;
    std::uint64_t seed = 2024;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (runtime::Scenario::parse_flag(argc, argv, i, scn)) continue;
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
            scale = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc)
            epochs = static_cast<std::uint32_t>(std::atoi(argv[++i]));
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
    if (epochs < 6) {
        std::fprintf(stderr, "need --epochs >= 6 for the churn schedule\n");
        return 2;
    }

    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, scale, seed);
    benchutil::print_dataset(d);

    const runtime::MembershipSchedule& flagged = scn.pipeline.train.membership;
    const runtime::MembershipSchedule churn =
        flagged.active() ? flagged : churn_for(epochs);
    std::printf("# membership: %s\n",
                runtime::membership_name(churn).c_str());

    std::vector<Row> rows;
    for (const std::uint32_t p : kDeviceCounts) {
        const auto parts = partition::make_partitioning(
            partition::PartitionAlgo::kNodeCut, d.graph, p, seed);
        const gnn::GnnConfig mc = benchutil::model_for(d);
        for (const bool elastic : {false, true}) {
            dist::DistTrainConfig cfg = scn.pipeline.train;
            cfg.epochs = epochs;
            cfg.comm.topology = comm::TopologySpec::preset(p);
            cfg.comm.collective = comm::collective::Algo::kHier;
            cfg.comm.count_weight_sync = true;
            cfg.membership =
                elastic ? churn : runtime::MembershipSchedule{};
            core::MethodConfig m;
            m.method = core::Method::kVanilla;
            auto comp = core::make_compressor(m);
            Row row;
            row.devices = p;
            row.mode = elastic ? "elastic" : "static";
            row.result = runtime::Scenario::for_training(cfg).train(d, parts, mc, *comp);
            rows.push_back(std::move(row));
        }
    }

    Table table({"P", "mode", "final loss", "total MB", "migrated MB",
                 "peak comm ms", "rebuild ms", "min active"});
    for (const Row& r : rows)
        table.add_row(
            {Table::num(static_cast<std::uint64_t>(r.devices)), r.mode,
             Table::num(r.result.final_loss, 4),
             Table::num(r.result.total_comm_mb, 2),
             Table::num(
                 static_cast<double>(r.result.membership.migrated_bytes) / 1e6,
                 3),
             Table::num(r.peak_comm_ms(), 3),
             Table::num(r.result.membership.rebuild_ms, 3),
             Table::num(static_cast<std::uint64_t>(r.active_min()))});
    std::printf("\n%s\n", table.str().c_str());

    if (json_path != nullptr) write_json(json_path, rows, scale, epochs);

    // Gate 1: membership must never touch the numerics — the elastic final
    // loss is bitwise-identical to the static run at every P.
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        const Row& st = rows[i];
        const Row& el = rows[i + 1];
        if (st.result.final_loss != el.result.final_loss) {
            std::fprintf(stderr,
                         "FAIL: P=%u elastic final loss %.17g != static "
                         "%.17g — membership perturbed the numerics\n",
                         st.devices, el.result.final_loss,
                         st.result.final_loss);
            return 1;
        }
    }
    // Gate 2: the schedule's rejoins restore the full cluster — the last
    // epoch must run with every device active.
    for (const Row& r : rows) {
        if (std::strcmp(r.mode, "elastic") != 0) continue;
        const auto& per_epoch = r.result.membership.active_per_epoch;
        if (per_epoch.empty() || per_epoch.back() != r.devices) {
            std::fprintf(stderr,
                         "FAIL: P=%u elastic run ended with %u active "
                         "devices (want %u)\n",
                         r.devices,
                         per_epoch.empty() ? 0u : per_epoch.back(),
                         r.devices);
            return 1;
        }
    }
    std::printf("# gates ok: elastic loss bitwise-equal to static, full "
                "strength restored by the last epoch\n");
    return 0;
}
