#pragma once
/// \file bench_util.hpp
/// \brief Shared plumbing for the bench binaries: checked flag parsing,
///        scaled dataset construction and the standard model/train
///        configs.
///
/// parse_options reads its own `--scale <f>` (dataset size multiplier,
/// default 0.35), `--seed <n>` (default 2024) and `--json <path>`, plus
/// the flags of Scenario::from_flags (runtime/scenario.hpp), the one
/// parse loop the CLI shares: `--epochs` (default 30 here), `--threads`,
/// `--log-level`, `--obs-out`, the model flags (`--layers`, `--sage`,
/// `--gin`, `--dropout`; hidden width 64 and weight seed 11 here), the
/// fabric, fault and rate-schedule flags, `--partition`, `--groups` and
/// `--drop-o2o` (the serving figure inherits the partitioner and the
/// semantic knobs) and the serving shape (`--queries`, `--serve-batch`,
/// `--deadline-ms`). Figures fix the parts, the method and its knobs,
/// the mode, the sampler, the QPS ladder and the cache per arm, so
/// `--parts --method --rate --bits --tau --ef-flush --mode --batch-size
/// --fanout --qps --no-serve-cache` exit 2 naming the flag, as do an
/// unknown flag and a malformed value. All seeds are fixed and printed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

/// Parsed common options: the bench's own `--scale/--seed/--json` and
/// the ScenarioConfig that Scenario::from_flags fills in.
struct Options {
    double scale = 0.35;
    std::uint64_t seed = 2024;
    std::string json;               ///< --json output path; empty = none
    runtime::ScenarioConfig scn{};  ///< every scenario flag, activated
};

/// Parse argv: the scenario flags, the common bench flags and `extra`.
/// An unknown or ignored flag, a missing or malformed value, or flags
/// that Scenario::build rejects together exit 2 before any work starts.
inline Options parse_options(int argc, char** argv,
                             std::vector<runtime::ExtraFlag> extra = {}) {
    Options opt;
    gnn::GnnConfig& model = opt.scn.pipeline.model;
    model.hidden_dim = 64;
    model.seed = 11;
    opt.scn.pipeline.train.epochs = 30;
    std::string scale = "0.35", seed = "2024";
    extra.insert(extra.end(), {{"--scale", &scale},
                               {"--seed", &seed},
                               {"--json", &opt.json}});
    // Scenario flags that no figure reads.
    for (const char* ignored :
         {"--parts", "--method", "--rate", "--bits", "--tau", "--ef-flush",
          "--mode", "--batch-size", "--fanout", "--qps", "--no-serve-cache"})
        extra.push_back({ignored, nullptr});
    runtime::Scenario::from_flags(argc, argv, opt.scn, extra);
    opt.scale = runtime::parse_number("--scale", scale.c_str(), 1e-3, 100.0);
    // seeds up to 2^53, the doubles that hold every integer
    opt.seed = static_cast<std::uint64_t>(
        runtime::parse_number("--seed", seed.c_str(), 0.0, 0x1p53, true));
    runtime::Scenario::activate(opt.scn);
    const dist::DistTrainConfig& t = opt.scn.pipeline.train;
    std::printf(
        "# options: scale=%.2f epochs=%u seed=%llu threads=%u "
        "log-level=%s obs=%s mode=%s topology=%s collective=%s "
        "schedule=%s\n",
        opt.scale, t.epochs, static_cast<unsigned long long>(opt.seed),
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

/// The parsed model, sized to a dataset's features and classes.
inline gnn::GnnConfig model_for(const Options& opt, const graph::Dataset& d) {
    gnn::GnnConfig mc = opt.scn.pipeline.model;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.out_dim = d.num_classes;
    return mc;
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
