// Collective-algorithm × device-count sweep over the large-P topology
// presets: for P ∈ {16, 64, 128}, price a GCN-sized gradient allreduce
// with every algorithm on both the flat fabric and the hierarchical
// preset (4×4 / 8×8 / 16×8 with its oversubscribed core), and report
// rounds, wire volume and the modelled sync makespan. Everything here is
// modelled, not measured — the numbers are a pure function of (topology,
// algorithm, payload), so the committed BENCH_collectives.json snapshot
// diffs exactly across hosts.
//
// The acceptance row: at P=64 on the hier preset, the hierarchical
// allreduce's modelled time must sit strictly below flat p2p (checked
// here with a non-zero exit, and again by test_collective.cpp).
//
// Flags: --payload-mb <f> (default 4), --json <path> (google-benchmark
// JSON with modelled ns as real_time, for check_bench_regression.py),
// plus the shared scenario flags.
#include <cstring>
#include <vector>

#include "bench_util.hpp"

#include "scgnn/comm/collective.hpp"

namespace {

using namespace scgnn;
using comm::collective::Algo;

constexpr std::uint32_t kDeviceCounts[] = {16, 64, 128};
constexpr Algo kAlgos[] = {Algo::kP2P, Algo::kRing, Algo::kTree, Algo::kHier};

struct Row {
    std::uint32_t devices = 0;
    const char* topology = "flat";
    Algo algo = Algo::kP2P;
    comm::collective::Outcome outcome;
};

std::vector<Row> g_rows;

void run_sweep(std::uint64_t payload_bytes) {
    for (const std::uint32_t p : kDeviceCounts) {
        const comm::Topology flat = comm::Topology::flat(p);
        const comm::Topology hier =
            comm::Topology::build(comm::TopologySpec::preset(p), p);
        for (const auto& [name, topo] :
             {std::pair{"flat", &flat}, std::pair{"hier", &hier}}) {
            for (const Algo a : kAlgos) {
                comm::Fabric fabric(*topo);
                comm::collective::Allreduce plan(*topo, a, payload_bytes);
                Row row;
                row.devices = p;
                row.topology = name;
                row.algo = a;
                row.outcome = plan.run(fabric);
                g_rows.push_back(row);
            }
        }
    }
}

double find_modelled_s(std::uint32_t p, const char* topology, Algo a) {
    for (const Row& r : g_rows)
        if (r.devices == p && std::strcmp(r.topology, topology) == 0 &&
            r.algo == a)
            return r.outcome.modelled_s;
    return 0.0;
}

/// google-benchmark-shaped snapshot (scripts/bench_snapshot.sh commits it
/// as BENCH_collectives.json; CI re-runs and diffs it warn-only). The
/// modelled makespan goes out as real_time in ns — deterministic, so the
/// diff is exact on any host.
void write_json(const char* path, double payload_mb) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json output '%s'\n", path);
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"context\": {\"library\": \"scgnn.bench.collectives\","
                 " \"payload_mb\": %.3f},\n  \"benchmarks\": [\n",
                 payload_mb);
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
        const Row& r = g_rows[i];
        std::fprintf(
            f,
            "    {\"name\": \"BM_Allreduce/%s/P:%u/%s\", "
            "\"real_time\": %.6f, \"time_unit\": \"ns\", "
            "\"rounds\": %u, \"wire_bytes\": %llu}%s\n",
            comm::collective::algo_name(r.algo), r.devices, r.topology,
            r.outcome.modelled_s * 1e9, r.outcome.rounds,
            static_cast<unsigned long long>(r.outcome.wire_bytes),
            i + 1 < g_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    runtime::ScenarioConfig scn;
    double payload_mb = 4.0;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (runtime::Scenario::parse_flag(argc, argv, i, scn)) continue;
        if (std::strcmp(argv[i], "--payload-mb") == 0 && i + 1 < argc)
            payload_mb = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    runtime::Scenario::activate(scn);

    const auto payload_bytes =
        static_cast<std::uint64_t>(payload_mb * 1e6);
    std::printf("# collectives: payload=%.2f MB, presets hier 4x4 (x2) / "
                "8x8 (x4) / 16x8 (x8 oversubscribed)\n",
                payload_mb);
    run_sweep(payload_bytes);

    Table table({"P", "topology", "algo", "rounds", "wire MB",
                 "modelled ms", "vs p2p"});
    for (const Row& r : g_rows) {
        const double p2p = find_modelled_s(r.devices, r.topology, Algo::kP2P);
        table.add_row(
            {Table::num(static_cast<std::uint64_t>(r.devices)), r.topology,
             comm::collective::algo_name(r.algo),
             Table::num(static_cast<std::uint64_t>(r.outcome.rounds)),
             Table::num(static_cast<double>(r.outcome.wire_bytes) / 1e6, 1),
             Table::num(r.outcome.modelled_s * 1e3, 3),
             Table::num(p2p / std::max(1e-12, r.outcome.modelled_s), 2) +
                 "x"});
    }
    std::printf("\n%s\n", table.str().c_str());

    if (json_path != nullptr) write_json(json_path, payload_mb);

    // Acceptance gate: the hierarchical algorithm on the P=64 preset must
    // beat the flat all-pairs exchange.
    const double hier64 = find_modelled_s(64, "hier", Algo::kHier);
    const double p2p64 = find_modelled_s(64, "flat", Algo::kP2P);
    if (hier64 >= p2p64) {
        std::fprintf(stderr,
                     "FAIL: hier allreduce (%.3f ms) not below flat p2p "
                     "(%.3f ms) at P=64\n",
                     hier64 * 1e3, p2p64 * 1e3);
        return 1;
    }
    std::printf("# P=64: hier %.3f ms vs flat p2p %.3f ms (%.1fx faster)\n",
                hier64 * 1e3, p2p64 * 1e3, p2p64 / hier64);
    return 0;
}
