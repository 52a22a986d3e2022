#pragma once
/// \file scenario.hpp
/// \brief The unified workload entry point (DESIGN.md §14): one validated
///        builder behind which training, neighbor-sampled training and
///        inference serving all mount.
///
/// Every flag that writes a ScenarioConfig is read by one loop,
/// Scenario::from_flags(), and the whole config is validated exactly once
/// by Scenario::build(). Binaries pick the workload with
/// `--mode train|sample-train|serve`; library callers that only need the
/// training dispatch use Scenario::for_training(cfg).train(...).

#include <cstdint>
#include <string>
#include <vector>

#include "scgnn/core/framework.hpp"
#include "scgnn/runtime/inference.hpp"

namespace scgnn::runtime {

/// The three workloads a binary can mount.
enum class ScenarioMode : std::uint8_t {
    kTrain = 0,        ///< full-batch distributed training (golden-pinned)
    kSampleTrain = 1,  ///< neighbor-sampled mini-batch training
    kServe = 2,        ///< open-loop inference serving
};

/// Printable mode key ("train"/"sample-train"/"serve").
[[nodiscard]] const char* mode_name(ScenarioMode m) noexcept;

/// Parse a `--mode` value; false on an unknown name.
[[nodiscard]] bool parse_mode(const std::string& key,
                              ScenarioMode& out) noexcept;

/// Everything a workload binary configures, in one place. The training
/// knobs live in `pipeline` (partitioning, model, DistTrainConfig,
/// compressor method); `sampler` and `serve` only apply in their modes.
struct ScenarioConfig {
    ScenarioMode mode = ScenarioMode::kTrain;
    core::PipelineConfig pipeline{};
    dist::SamplerConfig sampler{};
    ServeConfig serve{};
    /// Process-wide side-effect knobs (applied by activate()).
    unsigned threads = 0;  ///< 0 = SCGNN_THREADS env / all cores
    std::string obs_out;   ///< non-empty = obs enabled, output prefix
};

/// Result of Scenario::run(): the training-side pipeline outcome and/or
/// the serving outcome, depending on the mode.
struct ScenarioResult {
    core::PipelineResult pipeline{};  ///< train / sample-train modes
    ServeResult serve{};              ///< serve mode
};

/// Parse the whole of `s` as a number in [lo, hi], a whole one when
/// `integral`; otherwise print "bad <flag> ..." and exit 2. The one
/// numeric reader behind from_flags and every binary's own flags.
[[nodiscard]] double parse_number(const char* flag, const char* s, double lo,
                                  double hi, bool integral = false);

/// A program's own value flag: from_flags stores the text that follows
/// `name` in `*value`, for the program to read after parsing. A null
/// `value` names a scenario flag the program never reads: from_flags
/// exits 2 naming it rather than accept it silently.
struct ExtraFlag {
    const char* name;
    std::string* value;
};

/// A validated workload. Construct through build()/for_training() — the
/// constructor is private so every instance has passed the single
/// validation pass.
class Scenario {
public:
    /// The one flag-parsing loop. Reads every flag of argv into `cfg`,
    /// whose defaults the caller has set, or into one of the program's
    /// `own` flags, then runs build() on the result. The flags that write
    /// `cfg`: the workload (--mode/--batch-size/--fanout/--qps/
    /// --deadline-ms/--queries/--serve-batch/--no-serve-cache), the
    /// pipeline (--parts/--partition/--layers/--sage/--gin/--dropout/
    /// --method/--rate/--bits/--tau/--groups/--ef-flush/--drop-o2o/
    /// --epochs), the fabric (--overlap/--topology/--collective/--fault-*/
    /// --retry-max/--timeout), the rate schedule (--compressor-schedule/
    /// --schedule-floor/--warmup-epochs), --membership and the process
    /// knobs (--threads/--log-level/--obs-out). Exits 2 on an unknown
    /// flag, a flag the program ignores (a null ExtraFlag value), a
    /// missing or malformed value, a --fault-link-down device beyond
    /// --parts, or flags build() rejects together.
    static void from_flags(int argc, char** argv, ScenarioConfig& cfg,
                           const std::vector<ExtraFlag>& own = {});

    /// Apply the side-effectful knobs (obs arming, pool width; resolves
    /// cfg.threads to the actual width).
    static void activate(ScenarioConfig& cfg);

    /// The single validation pass: throws scgnn::Error on any invalid
    /// combination (membership schedules in sample-train mode, degenerate
    /// sampler fanouts/batch size, non-positive QPS, a fault model or
    /// retry policy no fabric accepts, ...). Only a down window naming a
    /// device beyond P is left to the fabric, since P may come later.
    [[nodiscard]] static Scenario build(ScenarioConfig cfg);

    /// Shorthand for library callers that already hold a DistTrainConfig
    /// and just dispatch training: wraps it in a kTrain scenario.
    [[nodiscard]] static Scenario for_training(dist::DistTrainConfig cfg);

    /// Run the configured workload end to end (partitioning included).
    [[nodiscard]] ScenarioResult run(const graph::Dataset& data) const;

    /// Dispatch just the training loop over prebuilt parts/model/
    /// compressor: detail::train_full in kTrain mode, dist::train_sampled
    /// in kSampleTrain mode. Throws in kServe mode.
    [[nodiscard]] dist::DistTrainResult train(
        const graph::Dataset& data, const partition::Partitioning& parts,
        const gnn::GnnConfig& model_cfg,
        dist::BoundaryCompressor& compressor) const;

    [[nodiscard]] const ScenarioConfig& config() const noexcept {
        return cfg_;
    }
    [[nodiscard]] ScenarioMode mode() const noexcept { return cfg_.mode; }

private:
    explicit Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)) {}

    ScenarioConfig cfg_;
};

} // namespace scgnn::runtime
