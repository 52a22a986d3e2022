/// \file scenario.cpp
/// \brief The unified workload builder: one flag-parsing pass, one
///        validation pass, three dispatchable workloads (DESIGN.md §14).

#include "scgnn/runtime/scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "scgnn/common/log.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/obs.hpp"

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

/// Parse a comma-separated fanout list ("10,5"); false on any malformed
/// or zero entry.
bool parse_fanout(const char* s, std::vector<std::uint32_t>& out) {
    out.clear();
    const char* p = s;
    while (*p != '\0') {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v < 1) return false;
        out.push_back(static_cast<std::uint32_t>(v));
        p = end;
        if (*p == ',') ++p;
        else if (*p != '\0') return false;
    }
    return !out.empty();
}

} // namespace

bool Scenario::parse_flag(int argc, char** argv, int& i, ScenarioConfig& out) {
    auto value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    dist::DistTrainConfig& train = out.pipeline.train;
    if (std::strcmp(argv[i], "--mode") == 0) {
        const char* s = value("--mode");
        if (!parse_mode(s, out.mode)) {
            std::fprintf(stderr,
                         "unknown --mode '%s' "
                         "(expected train|sample-train|serve)\n", s);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--batch-size") == 0) {
        const int v = std::atoi(value("--batch-size"));
        if (v < 1) {
            std::fprintf(stderr, "bad --batch-size (expected >= 1)\n");
            std::exit(2);
        }
        out.sampler.batch_size = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--fanout") == 0) {
        const char* s = value("--fanout");
        if (!parse_fanout(s, out.sampler.fanout)) {
            std::fprintf(stderr,
                         "bad --fanout '%s' (expected comma-joined "
                         "per-layer budgets, each >= 1)\n", s);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--qps") == 0) {
        out.serve.qps = std::atof(value("--qps"));
        if (out.serve.qps <= 0.0) {
            std::fprintf(stderr, "bad --qps (expected > 0)\n");
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
        out.serve.deadline_ms = std::atof(value("--deadline-ms"));
        if (out.serve.deadline_ms < 0.0) {
            std::fprintf(stderr, "bad --deadline-ms (expected >= 0)\n");
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--queries") == 0) {
        const int v = std::atoi(value("--queries"));
        if (v < 1) {
            std::fprintf(stderr, "bad --queries (expected >= 1)\n");
            std::exit(2);
        }
        out.serve.queries = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--serve-batch") == 0) {
        const int v = std::atoi(value("--serve-batch"));
        if (v < 1) {
            std::fprintf(stderr, "bad --serve-batch (expected >= 1)\n");
            std::exit(2);
        }
        out.serve.batch_max = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--no-serve-cache") == 0) {
        out.serve.halo_cache = false;  // flag only, no value
    } else if (std::strcmp(argv[i], "--threads") == 0) {
        out.threads = static_cast<unsigned>(std::atoi(value("--threads")));
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
        LogLevel level;
        const char* s = value("--log-level");
        if (!parse_log_level_key(s, level)) {
            std::fprintf(stderr,
                         "unknown --log-level '%s' "
                         "(expected debug|info|warn|error)\n", s);
            std::exit(2);
        }
        set_log_level(level);
    } else if (std::strcmp(argv[i], "--obs-out") == 0) {
        out.obs_out = value("--obs-out");
    } else if (std::strcmp(argv[i], "--overlap") == 0) {
        train.comm.mode = comm::CostModel::Mode::kOverlap;  // flag only
    } else if (std::strcmp(argv[i], "--topology") == 0) {
        const char* s = value("--topology");
        if (!comm::parse_topology(s, train.comm.topology)) {
            std::fprintf(stderr,
                         "bad --topology '%s' (expected flat|hier:NxM)\n", s);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--collective") == 0) {
        const char* s = value("--collective");
        if (!comm::collective::parse_algo(s, train.comm.collective)) {
            std::fprintf(stderr,
                         "unknown --collective '%s' "
                         "(expected p2p|ring|tree|hier)\n", s);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--compressor-schedule") == 0) {
        const char* s = value("--compressor-schedule");
        if (!dist::parse_schedule(s, train.rate.kind)) {
            std::fprintf(stderr,
                         "unknown --compressor-schedule '%s' "
                         "(expected fixed|warmup)\n", s);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--schedule-floor") == 0) {
        train.rate.floor = std::atof(value("--schedule-floor"));
        if (train.rate.floor <= 0.0 || train.rate.floor > 1.0) {
            std::fprintf(stderr, "bad --schedule-floor %g (expected (0, 1])\n",
                         train.rate.floor);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--warmup-epochs") == 0) {
        const int v = std::atoi(value("--warmup-epochs"));
        if (v < 1) {
            std::fprintf(stderr, "bad --warmup-epochs (expected >= 1)\n");
            std::exit(2);
        }
        train.rate.warmup_epochs = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--membership") == 0) {
        const char* s = value("--membership");
        if (!runtime::parse_membership(s, train.membership)) {
            std::fprintf(stderr,
                         "bad --membership '%s' (expected comma-joined "
                         "leave:<epoch>@d<dev> / join:<epoch>@d<dev> "
                         "events, optional seed:<n>)\n", s);
            std::exit(2);
        }
    } else if (std::strcmp(argv[i], "--fault-drop") == 0) {
        train.comm.fault.drop_probability = std::atof(value("--fault-drop"));
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
        train.comm.fault.seed =
            static_cast<std::uint64_t>(std::atoll(value("--fault-seed")));
    } else if (std::strcmp(argv[i], "--fault-link-down") == 0) {
        const char* spec = value("--fault-link-down");
        comm::LinkDownWindow w;
        if (std::sscanf(spec, "%u:%u:%u:%u", &w.src, &w.dst, &w.first_epoch,
                        &w.last_epoch) != 4) {
            std::fprintf(stderr,
                         "bad --fault-link-down '%s' "
                         "(expected src:dst:first_epoch:last_epoch)\n", spec);
            std::exit(2);
        }
        train.comm.fault.down_windows.push_back(w);
    } else if (std::strcmp(argv[i], "--retry-max") == 0) {
        train.comm.retry.max_attempts =
            static_cast<std::uint32_t>(std::atoi(value("--retry-max")));
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
        train.comm.retry.timeout_s = std::atof(value("--timeout"));
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
    SCGNN_CHECK(cfg.pipeline.train.lr_decay > 0.0f &&
                    cfg.pipeline.train.lr_decay <= 1.0f,
                "lr_decay must be in (0, 1]");
    dist::validate(cfg.pipeline.train.rate);
    if (cfg.mode == ScenarioMode::kSampleTrain) {
        SCGNN_CHECK(!cfg.pipeline.train.membership.active(),
                    "membership schedules are not supported in "
                    "sample-train mode");
        SCGNN_CHECK(cfg.sampler.batch_size >= 1,
                    "sampler batch size must be at least 1");
        SCGNN_CHECK(!cfg.sampler.fanout.empty(),
                    "sampler fanout must not be empty");
        for (const std::uint32_t f : cfg.sampler.fanout)
            SCGNN_CHECK(f >= 1, "fanout entries must be at least 1");
    }
    if (cfg.mode == ScenarioMode::kServe) {
        SCGNN_CHECK(cfg.serve.qps > 0.0, "qps must be positive");
        SCGNN_CHECK(cfg.serve.queries >= 1, "need at least one query");
        SCGNN_CHECK(cfg.serve.batch_max >= 1, "batch_max must be at least 1");
        SCGNN_CHECK(cfg.serve.deadline_ms >= 0.0,
                    "deadline must be non-negative");
        SCGNN_CHECK(cfg.serve.layers >= 1,
                    "a query resolves at least one hop");
        SCGNN_CHECK(cfg.serve.embed_dim >= 1, "embed_dim must be at least 1");
        SCGNN_CHECK(cfg.serve.hist_max_ms > 0.0 && cfg.serve.hist_bins >= 1,
                    "latency histogram needs a positive range and >= 1 bins");
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
    if (obs::enabled())
        obs::record_config("scenario.mode", mode_name(cfg_.mode));
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
