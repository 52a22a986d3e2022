#pragma once
/// \file bench_util.hpp
/// \brief Shared plumbing for the bench binaries: checked flag parsing,
///        scaled dataset construction and the standard model/train
///        configs.
///
/// parse_options reads `--scale <f>` (dataset size multiplier, default
/// 0.35), `--epochs <n>` (default 30), `--seed <n>` (default 2024),
/// `--json <path>` and the shared scenario flags of Scenario::parse_flag
/// (runtime/scenario.hpp): `--threads`, `--log-level`, `--obs-out`,
/// `--overlap`, `--topology`, `--collective`, the rate-schedule flags and
/// the fault-injection flags (comm/fault.hpp). An unknown flag or a
/// malformed value exits 2. All seeds are fixed and printed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "scgnn/comm/collective.hpp"
#include "scgnn/comm/topology.hpp"
#include "scgnn/common/error.hpp"
#include "scgnn/common/log.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/table.hpp"
#include "scgnn/core/framework.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/runtime/membership.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace scgnn::benchutil {

/// Printable name of a log level.
inline const char* log_level_name(LogLevel l) {
    switch (l) {
        case LogLevel::kDebug: return "debug";
        case LogLevel::kInfo: return "info";
        case LogLevel::kWarn: return "warn";
        case LogLevel::kError: return "error";
    }
    return "?";
}

/// Parsed common CLI options: the bench-local `--scale/--epochs/--seed/
/// --json` plus the one shared ScenarioConfig that Scenario::parse_flag
/// fills in.
struct Options {
    double scale = 0.35;
    std::uint32_t epochs = 30;
    std::uint64_t seed = 2024;
    std::string json;               ///< --json output path; empty = none
    runtime::ScenarioConfig scn{};  ///< shared flags, already activated
};

/// A bench-specific string-valued flag parsed next to the common ones.
struct ExtraFlag {
    const char* name;
    std::string* value;
};

/// Parse argv: the shared scenario flags, the common bench flags and
/// `extra`. An unknown flag, a missing or malformed value, or flags that
/// Scenario::build rejects together exit 2 before any work starts.
inline Options parse_options(int argc, char** argv,
                             std::initializer_list<ExtraFlag> extra = {}) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (runtime::Scenario::parse_flag(argc, argv, i, opt.scn))
            continue;
        const char* flag = argv[i];
        const std::string_view f = flag;
        std::string* text = f == "--json" ? &opt.json : nullptr;
        for (const ExtraFlag& e : extra)
            if (f == e.name) text = e.value;
        if (!text && f != "--scale" && f != "--epochs" && f != "--seed") {
            std::fprintf(stderr, "unknown flag '%s'\n", flag);
            std::exit(2);
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag);
            std::exit(2);
        }
        const char* v = argv[++i];
        if (text)
            *text = v;
        else if (f == "--scale")
            opt.scale = runtime::parse_number(flag, v, 1e-3, 100.0);
        else if (f == "--epochs")
            opt.epochs = static_cast<std::uint32_t>(
                runtime::parse_number(flag, v, 1.0, 1e6, true));
        else  // seeds up to 2^53, the doubles that hold every integer
            opt.seed = static_cast<std::uint64_t>(
                runtime::parse_number(flag, v, 0.0, 0x1p53, true));
    }
    try {
        (void)runtime::Scenario::build(opt.scn);
    } catch (const Error& e) {
        std::fprintf(stderr, "bad flags: %s\n", e.what());
        std::exit(2);
    }
    runtime::Scenario::activate(opt.scn);
    const dist::DistTrainConfig& t = opt.scn.pipeline.train;
    std::printf(
        "# options: scale=%.2f epochs=%u seed=%llu threads=%u "
        "log-level=%s obs=%s mode=%s topology=%s collective=%s "
        "schedule=%s\n",
        opt.scale, opt.epochs, static_cast<unsigned long long>(opt.seed),
        opt.scn.threads, log_level_name(log_level()),
        opt.scn.obs_out.empty() ? "off" : opt.scn.obs_out.c_str(),
        t.comm.overlap() ? "overlap" : "additive",
        comm::topology_name(t.comm.topology).c_str(),
        comm::collective::algo_name(t.comm.collective),
        dist::schedule_name(t.rate.kind));
    if (t.membership.active())
        std::printf("# membership: %s\n",
                    runtime::membership_name(t.membership).c_str());
    if (t.comm.fault.active())
        std::printf("# faults: drop=%.3f seed=%llu down-windows=%zu "
                    "retry-max=%u timeout=%gs\n",
                    t.comm.fault.drop_probability,
                    static_cast<unsigned long long>(t.comm.fault.seed),
                    t.comm.fault.down_windows.size(),
                    t.comm.retry.max_attempts, t.comm.retry.timeout_s);
    return opt;
}

/// Model config matched to a dataset (hidden width 64, GCN).
inline gnn::GnnConfig model_for(const graph::Dataset& d) {
    return gnn::GnnConfig{
        .in_dim = static_cast<std::uint32_t>(d.features.cols()),
        .hidden_dim = 64,
        .out_dim = d.num_classes,
        .kind = gnn::LayerKind::kGcn,
        .seed = 11};
}

/// Default distributed-train config: the parsed shared flags (comm,
/// faults, rate schedule, membership) with the bench's epoch count.
inline dist::DistTrainConfig train_cfg(const Options& opt) {
    dist::DistTrainConfig cfg = opt.scn.pipeline.train;
    cfg.epochs = opt.epochs;
    return cfg;
}

/// Default semantic config: k=20 (the paper's Reddit EEP).
inline core::SemanticCompressorConfig semantic_cfg() {
    core::SemanticCompressorConfig cfg;
    cfg.grouping.kmeans_k = 20;
    return cfg;
}

/// One-line dataset banner.
inline void print_dataset(const graph::Dataset& d) {
    std::printf("# %s: %u nodes, %llu edges, avg degree %.1f, %u classes\n",
                d.name.c_str(), d.graph.num_nodes(),
                static_cast<unsigned long long>(d.graph.num_edges()),
                d.graph.average_degree(), d.num_classes);
}

} // namespace scgnn::benchutil
