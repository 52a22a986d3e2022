/// \file scenario.cpp
/// \brief The unified workload builder: one flag-parsing pass, one
///        validation pass, three dispatchable workloads (DESIGN.md §14).

#include "scgnn/runtime/scenario.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "scgnn/comm/fault.hpp"
#include "scgnn/common/log.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/dist/factory.hpp"
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

bool parse_partition(const char* s, partition::PartitionAlgo& out) {
    using partition::PartitionAlgo;
    if (std::strcmp(s, "node") == 0) out = PartitionAlgo::kNodeCut;
    else if (std::strcmp(s, "edge") == 0) out = PartitionAlgo::kEdgeCut;
    else if (std::strcmp(s, "multilevel") == 0) out = PartitionAlgo::kMultilevel;
    else if (std::strcmp(s, "random") == 0) out = PartitionAlgo::kRandomCut;
    else return false;
    return true;
}

constexpr double kMaxU32 = 4294967295.0;
/// Seeds up to 2^53, the doubles that hold every integer.
constexpr double kMaxSeed = 0x1p53;

[[noreturn]] void bad_value(const char* flag, const char* s,
                            const char* expected) {
    std::fprintf(stderr, "bad %s '%s' (expected %s)\n", flag, s, expected);
    std::exit(2);
}

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

/// The one cursor over argv: the flag at `i` and the readers of its
/// value, each exiting 2 on a missing or malformed value.
struct Args {
    int argc;
    char** argv;
    int i = 1;

    [[nodiscard]] const char* flag() const { return argv[i]; }
    const char* value() {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    }
    double number(double lo, double hi, bool integral = false) {
        const char* name = flag();
        return parse_number(name, value(), lo, hi, integral);
    }
    std::uint32_t whole(double lo, double hi) {
        return static_cast<std::uint32_t>(number(lo, hi, true));
    }
    /// Read a keyword value through `parse(text, out)`.
    template <class T, class Parse>
    void key(Parse parse, T& out, const char* expected) {
        const char* name = flag();
        const char* s = value();
        if (!parse(s, out)) bad_value(name, s, expected);
    }
};

/// A plain method key sets the enum; anything else must be a
/// compressor-factory stack name ("ours+quant", "ef+ours", ...), checked
/// by a dry construction so a typo exits 2 before any work starts.
void set_method(core::MethodConfig& method, const char* s) {
    core::Method m;
    if (core::parse_method(s, m)) {
        method.method = m;
        method.name.clear();
        return;
    }
    try {
        (void)dist::make_compressor(s);
    } catch (const Error& e) {
        std::fprintf(stderr, "bad --method '%s': %s\n", s, e.what());
        std::exit(2);
    }
    method.name = s;
}

/// The one table of flags that write a ScenarioConfig: consume argv[a.i]
/// and its value when it is one of them, else return false.
bool parse_flag(Args& a, ScenarioConfig& out) {
    const std::string_view flag = a.flag();
    core::PipelineConfig& pipe = out.pipeline;
    core::MethodConfig& method = pipe.method;
    dist::DistTrainConfig& train = pipe.train;
    if (flag == "--mode") {
        a.key(parse_mode, out.mode, "train|sample-train|serve");
    } else if (flag == "--batch-size") {
        out.sampler.batch_size = a.whole(1, kMaxU32);
    } else if (flag == "--fanout") {
        out.sampler.fanout = parse_list("--fanout", a.value(), ',', 1);
    } else if (flag == "--qps") {
        out.serve.qps = a.number(1e-6, 1e9);
    } else if (flag == "--deadline-ms") {
        out.serve.deadline_ms = a.number(0, 1e9);
    } else if (flag == "--queries") {
        out.serve.queries = a.whole(1, kMaxU32);
    } else if (flag == "--serve-batch") {
        out.serve.batch_max = a.whole(1, kMaxU32);
    } else if (flag == "--no-serve-cache") {
        out.serve.halo_cache = false;  // flag only, no value
    } else if (flag == "--threads") {
        out.threads = a.whole(0, 1024);  // 0 = SCGNN_THREADS / all cores
    } else if (flag == "--log-level") {
        LogLevel level;
        a.key(parse_log_level_key, level, "debug|info|warn|error");
        set_log_level(level);
    } else if (flag == "--obs-out") {
        out.obs_out = a.value();
    } else if (flag == "--parts") {
        pipe.num_parts = a.whole(1, 4096);
    } else if (flag == "--partition") {
        a.key(parse_partition, pipe.algo, "node|edge|multilevel|random");
    } else if (flag == "--layers") {
        pipe.model.num_layers = a.whole(1, 64);
    } else if (flag == "--sage") {
        // The layer kind and its adjacency norm are set together.
        pipe.model.kind = gnn::LayerKind::kSage;
        train.norm = gnn::AdjNorm::kRowMean;
    } else if (flag == "--gin") {
        pipe.model.kind = gnn::LayerKind::kGin;
        train.norm = gnn::AdjNorm::kSum;
    } else if (flag == "--dropout") {
        pipe.model.dropout = static_cast<float>(a.number(0, 0.99));
    } else if (flag == "--method") {
        set_method(method, a.value());
    } else if (flag == "--rate") {
        method.sampling.rate = a.number(1e-6, 1);
    } else if (flag == "--bits") {
        const auto bits = static_cast<int>(a.whole(4, 16));
        if (bits != 4 && bits != 8 && bits != 16)
            bad_value("--bits", a.argv[a.i], "4, 8 or 16");
        method.quant.bits = bits;
    } else if (flag == "--tau") {
        method.delay.period = a.whole(1, 1e6);
    } else if (flag == "--groups") {
        method.semantic.grouping.kmeans_k = a.whole(1, 1e6);
    } else if (flag == "--ef-flush") {
        method.ef.flush_threshold = a.number(-1e9, 1e9);
    } else if (flag == "--drop-o2o") {
        method.semantic.drop = core::DropMask::without_o2o();  // flag only
    } else if (flag == "--epochs") {
        train.epochs = a.whole(1, 1e6);
    } else if (flag == "--overlap") {
        train.comm.mode = comm::CostModel::Mode::kOverlap;  // flag only
    } else if (flag == "--topology") {
        a.key(comm::parse_topology, train.comm.topology, "flat|hier:NxM");
    } else if (flag == "--collective") {
        a.key(comm::collective::parse_algo, train.comm.collective,
              "p2p|ring|tree|hier");
    } else if (flag == "--compressor-schedule") {
        a.key(dist::parse_schedule, train.rate.kind, "fixed|warmup");
    } else if (flag == "--schedule-floor") {
        train.rate.floor = a.number(1e-6, 1);
    } else if (flag == "--warmup-epochs") {
        train.rate.warmup_epochs = a.whole(1, kMaxU32);
    } else if (flag == "--membership") {
        a.key(parse_membership, train.membership,
              "comma-joined leave:<epoch>@d<dev> / join:<epoch>@d<dev> "
              "events, optional seed:<n>");
    } else if (flag == "--fault-drop") {
        train.comm.fault.drop_probability = a.number(0, 1);
    } else if (flag == "--fault-seed") {
        train.comm.fault.seed =
            static_cast<std::uint64_t>(a.number(0, kMaxSeed, true));
    } else if (flag == "--fault-link-down") {
        const char* s = a.value();
        const auto f = parse_list("--fault-link-down", s, ':', 0);
        if (f.size() != 4)
            bad_value("--fault-link-down", s,
                      "src:dst:first_epoch:last_epoch");
        train.comm.fault.down_windows.push_back(
            {.src = f[0], .dst = f[1], .first_epoch = f[2], .last_epoch = f[3]});
    } else if (flag == "--retry-max") {
        train.comm.retry.max_attempts = a.whole(1, kMaxU32);
    } else if (flag == "--timeout") {
        train.comm.retry.timeout_s = a.number(0, 1e6);
    } else {
        return false;
    }
    return true;
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

void Scenario::from_flags(int argc, char** argv, ScenarioConfig& cfg,
                          const std::vector<ExtraFlag>& own) {
    for (Args a{argc, argv}; a.i < argc; ++a.i) {
        if (parse_flag(a, cfg)) continue;
        const auto it = std::find_if(
            own.begin(), own.end(),
            [&](const ExtraFlag& e) { return std::strcmp(e.name, a.flag()) == 0; });
        if (it == own.end()) {
            std::fprintf(stderr, "unknown flag '%s'\n", a.flag());
            std::exit(2);
        }
        *it->value = a.value();
    }
    try {
        (void)build(cfg);
    } catch (const Error& e) {
        std::fprintf(stderr, "bad flags: %s\n", e.what());
        std::exit(2);
    }
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
