/// \file scenario.cpp
/// \brief The unified workload builder: one flag-parsing pass, one
///        validation pass, three dispatchable workloads (DESIGN.md §14).

#include "scgnn/runtime/scenario.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "scgnn/comm/fault.hpp"
#include "scgnn/common/log.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::runtime {

const char* mode_name(ScenarioMode m) noexcept {
    switch (m) {
        case ScenarioMode::kTrain: return "train";
        case ScenarioMode::kSampleTrain: return "sample-train";
        case ScenarioMode::kServe: return "serve";
    }
    return "?";
}

bool parse_mode(const std::string& key, ScenarioMode& out) noexcept {
    for (const ScenarioMode m :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe}) {
        if (key == mode_name(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

namespace {

bool parse_log_level_key(const char* s, LogLevel& out) {
    if (std::strcmp(s, "debug") == 0) out = LogLevel::kDebug;
    else if (std::strcmp(s, "info") == 0) out = LogLevel::kInfo;
    else if (std::strcmp(s, "warn") == 0) out = LogLevel::kWarn;
    else if (std::strcmp(s, "error") == 0) out = LogLevel::kError;
    else return false;
    return true;
}

constexpr double kMaxU32 = 4294967295.0;
/// Seeds up to 2^53, the doubles that hold every integer.
constexpr double kMaxSeed = 0x1p53;

/// The `sep`-separated fields of `s`, each a whole number in [lo, 2^32);
/// exit 2 on an empty or malformed field.
std::vector<std::uint32_t> parse_list(const char* flag, const char* s,
                                      char sep, double lo) {
    std::vector<std::uint32_t> out;
    for (const char* p = s;; ++p) {
        const char* end = std::strchr(p, sep);
        const std::string field = end ? std::string(p, end) : std::string(p);
        out.push_back(static_cast<std::uint32_t>(
            parse_number(flag, field.c_str(), lo, kMaxU32, true)));
        if (!end) return out;
        p = end;
    }
}

} // namespace

double parse_number(const char* flag, const char* s, double lo, double hi,
                    bool integral) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno != 0 || !(v >= lo && v <= hi) ||
        (integral && v != std::floor(v))) {
        std::fprintf(stderr, "bad %s '%s' (expected a %s in [%g, %g])\n",
                     flag, s, integral ? "whole number" : "number", lo, hi);
        std::exit(2);
    }
    return v;
}

bool Scenario::parse_flag(int argc, char** argv, int& i, ScenarioConfig& out) {
    const std::string_view flag = argv[i];
    auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    auto number = [&](double lo, double hi) {
        const char* name = argv[i];
        return parse_number(name, value(), lo, hi);
    };
    auto whole = [&](double lo, double hi) {
        const char* name = argv[i];
        return static_cast<std::uint32_t>(
            parse_number(name, value(), lo, hi, true));
    };
    dist::DistTrainConfig& train = out.pipeline.train;
    if (flag == "--mode") {
        const char* s = value();
        if (!parse_mode(s, out.mode)) {
            std::fprintf(stderr,
                         "unknown --mode '%s' "
                         "(expected train|sample-train|serve)\n", s);
            std::exit(2);
        }
    } else if (flag == "--batch-size") {
        out.sampler.batch_size = whole(1, kMaxU32);
    } else if (flag == "--fanout") {
        out.sampler.fanout = parse_list("--fanout", value(), ',', 1);
    } else if (flag == "--qps") {
        out.serve.qps = number(1e-6, 1e9);
    } else if (flag == "--deadline-ms") {
        out.serve.deadline_ms = number(0, 1e9);
    } else if (flag == "--queries") {
        out.serve.queries = whole(1, kMaxU32);
    } else if (flag == "--serve-batch") {
        out.serve.batch_max = whole(1, kMaxU32);
    } else if (flag == "--no-serve-cache") {
        out.serve.halo_cache = false;  // flag only, no value
    } else if (flag == "--threads") {
        out.threads = whole(0, 1024);  // 0 = SCGNN_THREADS / all cores
    } else if (flag == "--log-level") {
        LogLevel level;
        const char* s = value();
        if (!parse_log_level_key(s, level)) {
            std::fprintf(stderr,
                         "unknown --log-level '%s' "
                         "(expected debug|info|warn|error)\n", s);
            std::exit(2);
        }
        set_log_level(level);
    } else if (flag == "--obs-out") {
        out.obs_out = value();
    } else if (flag == "--overlap") {
        train.comm.mode = comm::CostModel::Mode::kOverlap;  // flag only
    } else if (flag == "--topology") {
        const char* s = value();
        if (!comm::parse_topology(s, train.comm.topology)) {
            std::fprintf(stderr,
                         "bad --topology '%s' (expected flat|hier:NxM)\n", s);
            std::exit(2);
        }
    } else if (flag == "--collective") {
        const char* s = value();
        if (!comm::collective::parse_algo(s, train.comm.collective)) {
            std::fprintf(stderr,
                         "unknown --collective '%s' "
                         "(expected p2p|ring|tree|hier)\n", s);
            std::exit(2);
        }
    } else if (flag == "--compressor-schedule") {
        const char* s = value();
        if (!dist::parse_schedule(s, train.rate.kind)) {
            std::fprintf(stderr,
                         "unknown --compressor-schedule '%s' "
                         "(expected fixed|warmup)\n", s);
            std::exit(2);
        }
    } else if (flag == "--schedule-floor") {
        train.rate.floor = number(1e-6, 1);
    } else if (flag == "--warmup-epochs") {
        train.rate.warmup_epochs = whole(1, kMaxU32);
    } else if (flag == "--membership") {
        const char* s = value();
        if (!runtime::parse_membership(s, train.membership)) {
            std::fprintf(stderr,
                         "bad --membership '%s' (expected comma-joined "
                         "leave:<epoch>@d<dev> / join:<epoch>@d<dev> "
                         "events, optional seed:<n>)\n", s);
            std::exit(2);
        }
    } else if (flag == "--fault-drop") {
        train.comm.fault.drop_probability = number(0, 1);
    } else if (flag == "--fault-seed") {
        const char* s = value();
        train.comm.fault.seed = static_cast<std::uint64_t>(
            parse_number("--fault-seed", s, 0, kMaxSeed, true));
    } else if (flag == "--fault-link-down") {
        const char* s = value();
        const auto f = parse_list("--fault-link-down", s, ':', 0);
        if (f.size() != 4) {
            std::fprintf(stderr,
                         "bad --fault-link-down '%s' "
                         "(expected src:dst:first_epoch:last_epoch)\n", s);
            std::exit(2);
        }
        train.comm.fault.down_windows.push_back(
            {.src = f[0], .dst = f[1], .first_epoch = f[2], .last_epoch = f[3]});
    } else if (flag == "--retry-max") {
        train.comm.retry.max_attempts = whole(1, kMaxU32);
    } else if (flag == "--timeout") {
        train.comm.retry.timeout_s = number(0, 1e6);
    } else {
        return false;
    }
    return true;
}

ScenarioConfig Scenario::from_flags(int argc, char** argv) {
    ScenarioConfig cfg;
    for (int i = 1; i < argc; ++i) {
        if (!parse_flag(argc, argv, i, cfg)) {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            std::exit(2);
        }
    }
    return cfg;
}

void Scenario::activate(ScenarioConfig& cfg) {
    if (!cfg.obs_out.empty()) {
        obs::set_enabled(true);
        obs::set_output_prefix(cfg.obs_out);  // arms write-at-exit
    }
    set_num_threads(cfg.threads);
    cfg.threads = num_threads();
}

Scenario Scenario::build(ScenarioConfig cfg) {
    // The single validation pass. Only data-independent invariants live
    // here; anything needing the dataset (mask shapes, feature widths) is
    // checked by the dispatched workload itself.
    SCGNN_CHECK(cfg.pipeline.num_parts >= 1, "need at least one partition");
    SCGNN_CHECK(cfg.pipeline.train.epochs >= 1, "need at least one epoch");
    dist::validate(cfg.pipeline.train.rate);
    // The fabric's own checks, minus the device range of a down window:
    // for_training() callers name P only when they train.
    comm::validate(cfg.pipeline.train.comm.fault);
    comm::validate(cfg.pipeline.train.comm.retry);
    if (cfg.mode == ScenarioMode::kSampleTrain) {
        SCGNN_CHECK(!cfg.pipeline.train.membership.active(),
                    "membership schedules are not supported in "
                    "sample-train mode");
        // Delay replays a plan's full cached row block, which a batch
        // request never ships (baselines.hpp).
        const core::MethodConfig& m = cfg.pipeline.method;
        const std::string stack =
            '+' + (m.name.empty() ? core::method_key(m.method) : m.name) + '+';
        SCGNN_CHECK(stack.find("+delay+") == std::string::npos,
                    "delay has no request path and is not supported in "
                    "sample-train mode");
        SCGNN_CHECK(cfg.sampler.batch_size >= 1,
                    "sampler batch size must be at least 1");
        SCGNN_CHECK(!cfg.sampler.fanout.empty(),
                    "sampler fanout must not be empty");
        for (const std::uint32_t f : cfg.sampler.fanout)
            SCGNN_CHECK(f >= 1, "fanout entries must be at least 1");
    }
    if (cfg.mode == ScenarioMode::kServe) {
        validate(cfg.serve);
        // The serving scenario inherits the training-side link pricing
        // and semantic-grouping knobs, so one config shapes both worlds.
        cfg.serve.cost = cfg.pipeline.train.comm.cost;
        cfg.serve.compressor = cfg.pipeline.method.semantic;
    }
    return Scenario(std::move(cfg));
}

Scenario Scenario::for_training(dist::DistTrainConfig cfg) {
    ScenarioConfig scn;
    scn.pipeline.train = std::move(cfg);
    return build(std::move(scn));
}

ScenarioResult Scenario::run(const graph::Dataset& data) const {
    ScenarioResult res;
    if (obs::enabled()) {
        obs::record_config("scenario.mode", mode_name(cfg_.mode));
        obs::record_config("tensor.isa",
                           tensor::kern::isa_name(tensor::kern::active_isa()));
    }
    const core::PipelineConfig& pc = cfg_.pipeline;
    const partition::Partitioning parts = partition::make_partitioning(
        pc.algo, data.graph, pc.num_parts, pc.partition_seed);
    if (cfg_.mode == ScenarioMode::kServe) {
        res.serve = InferenceServer(data, parts, cfg_.serve).run();
        return res;
    }
    res.pipeline.partition_quality = partition::evaluate(data.graph, parts);
    const std::unique_ptr<dist::BoundaryCompressor> comp =
        core::make_compressor(pc.method);
    res.pipeline.train = train(data, parts, pc.model, *comp);
    const dist::DistContext ctx(data, parts, pc.train.norm);
    core::detail::fill_semantic_stats(res.pipeline, ctx, pc.method, comp.get());
    return res;
}

dist::DistTrainResult Scenario::train(
    const graph::Dataset& data, const partition::Partitioning& parts,
    const gnn::GnnConfig& model_cfg,
    dist::BoundaryCompressor& compressor) const {
    SCGNN_CHECK(cfg_.mode != ScenarioMode::kServe,
                "the serve scenario has no training dispatch");
    if (cfg_.mode == ScenarioMode::kSampleTrain)
        return dist::train_sampled(data, parts, model_cfg, cfg_.pipeline.train,
                                   cfg_.sampler, compressor);
    return dist::detail::train_full(data, parts, model_cfg,
                                    cfg_.pipeline.train, compressor);
}

} // namespace scgnn::runtime
