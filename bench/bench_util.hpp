#pragma once
/// \file bench_util.hpp
/// \brief Shared plumbing for the paper-reproduction bench binaries: scaled
///        dataset construction, standard model/train configs, and the
///        traffic-equalisation solver of §5.2.
///
/// Every bench accepts optional CLI args: `--scale <f>` (dataset size
/// multiplier, default 0.35), `--epochs <n>` (training epochs, default
/// 30), plus the shared scenario flags that Scenario::parse_flag reads
/// (runtime/scenario.hpp) — among them `--threads <n>` (worker pool
/// width, default all cores / SCGNN_THREADS), `--log-level
/// <debug|info|warn|error>`, `--obs-out <prefix>` (enable observability;
/// write `<prefix>.trace.json` and `<prefix>.report.json` at exit),
/// `--overlap`, `--topology`, `--collective`, the rate-schedule flags and
/// the fault-injection flags `--fault-drop/--fault-seed/
/// --fault-link-down/--retry-max/--timeout` (see comm/fault.hpp) — so the
/// full suite stays minutes-scale while remaining faithful in shape. All
/// seeds are fixed and printed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scgnn/comm/collective.hpp"
#include "scgnn/comm/topology.hpp"
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

/// Parsed common CLI options: the bench-local `--scale/--epochs/--seed`
/// plus the one shared ScenarioConfig that Scenario::parse_flag fills in.
struct Options {
    double scale = 0.35;
    std::uint32_t epochs = 30;
    std::uint64_t seed = 2024;
    runtime::ScenarioConfig scn{};  ///< shared flags, already activated
};

inline Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (runtime::Scenario::parse_flag(argc, argv, i, opt.scn))
            continue;
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
            opt.scale = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc)
            opt.epochs = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
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

/// Solve the §5.2 traffic equalisation: pick each baseline's knob so its
/// per-epoch volume roughly matches SC-GNN's. `target_fraction` is
/// (ours bytes) / (vanilla bytes).
struct EqualizedKnobs {
    double sampling_rate = 1.0;
    int quant_bits = 32;             ///< 32 = leave uncompressed
    std::uint32_t delay_period = 1;
};

inline EqualizedKnobs equalize(double target_fraction) {
    EqualizedKnobs k;
    // Sampling drops whole boundary rows: rate ≈ fraction, floored so the
    // model still sees some fresh data.
    k.sampling_rate = std::max(0.02, std::min(1.0, target_fraction));
    // Quant can shrink at most 8× (32 → 4 bits): pick the nearest width.
    const double bits = 32.0 * target_fraction;
    k.quant_bits = bits <= 4.0 ? 4 : (bits <= 8.0 ? 8 : 16);
    // Delay transmits every τ-th epoch: τ ≈ 1/fraction, capped.
    k.delay_period = static_cast<std::uint32_t>(
        std::min(64.0, std::max(1.0, 1.0 / std::max(1e-3, target_fraction))));
    return k;
}

/// One-line dataset banner.
inline void print_dataset(const graph::Dataset& d) {
    std::printf("# %s: %u nodes, %llu edges, avg degree %.1f, %u classes\n",
                d.name.c_str(), d.graph.num_nodes(),
                static_cast<unsigned long long>(d.graph.num_edges()),
                d.graph.average_degree(), d.num_classes);
}

} // namespace scgnn::benchutil
