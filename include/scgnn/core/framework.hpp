#pragma once
/// \file framework.hpp
/// \brief The SC-GNN training framework of Fig. 8 as a turnkey pipeline,
///        plus the method factory and compressor composition used by the
///        evaluation harnesses.
///
/// Pipeline stages: graph partition (node-cut by default, per §4) →
/// semantic grouping of every partition-pair DBG → distributed full-batch
/// training with group-compressed exchanges → full-graph evaluation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scgnn/baselines/baselines.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"

namespace scgnn::core {

/// The five methods of the evaluation (§5): the three baselines, the
/// uncompressed reference and SC-GNN.
enum class Method : std::uint8_t {
    kVanilla = 0,
    kSampling = 1,
    kQuant = 2,
    kDelay = 3,
    kSemantic = 4,
};

/// Printable method name as used in the paper's tables
/// ("Vanilla."/"Samp."/"Quant."/"Delay."/"Ours").
[[nodiscard]] const char* to_string(Method m) noexcept;

/// Machine-readable method key — the exact name dist::make_compressor
/// accepts ("vanilla"/"sampling"/"quant"/"delay"/"ours").
[[nodiscard]] const char* method_key(Method m) noexcept;

/// Parse a method key back to its enum; false on an unknown name.
[[nodiscard]] bool parse_method(const std::string& key, Method& out) noexcept;

/// Which compressor to build, plus the union of every method's knobs
/// (inherited from dist::CompressorOptions); only the active method's
/// fields are read.
struct MethodConfig : dist::CompressorOptions {
    Method method = Method::kSemantic;
    /// When non-empty, overrides `method` with any dist::make_compressor
    /// name — composed stacks ("ours+quant") and error-feedback wraps
    /// ("ef+ours+quant") included. The per-method knobs still apply to
    /// the stages the name selects.
    std::string name;

    /// True when the configured compressor is plain SC-GNN semantic
    /// compression (the case whose live grouping statistics run_pipeline
    /// reads off the training compressor itself).
    [[nodiscard]] bool plain_semantic() const noexcept {
        return name.empty() && method == Method::kSemantic;
    }
};

/// Instantiate the compressor for a method configuration. Thin adapter
/// over dist::make_compressor (dist/factory.hpp), which owns the
/// name→compressor mapping.
[[nodiscard]] std::unique_ptr<dist::BoundaryCompressor> make_compressor(
    const MethodConfig& cfg);

/// Sequential composition of traffic-reduction methods — the §5.5
/// cross-compatibility experiment (Fig. 12(b)). Stage 0 transforms the
/// boundary rows first (a fusing stage such as SC-GNN must come first);
/// later stages re-transform the reconstruction. Wire bytes compose
/// multiplicatively: the first stage sets the base volume and each later
/// stage contributes the ratio of its own wire bytes to the vanilla
/// per-edge volume (quant ⇒ bits/32, delay ⇒ 0 or 1, sampling ⇒ ≈rate).
class ComposedCompressor final : public dist::BoundaryCompressor {
public:
    /// Compose the given stages in order. Requires ≥ 1 stage.
    explicit ComposedCompressor(
        std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages);

    [[nodiscard]] std::string name() const override;
    void setup(const dist::DistContext& ctx) override;
    void begin_epoch(std::uint64_t epoch) override;
    void apply_rate(double fidelity) override;
    /// Sum of the stages' migratable per-partition state.
    [[nodiscard]] std::uint64_t state_bytes(std::uint32_t part) const override;

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return chain(ctx, plan_idx, layer, false,
                     dist::ExchangeRows::all(ctx, plan_idx), src, out);
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return chain(ctx, plan_idx, layer, true,
                     dist::ExchangeRows::all(ctx, plan_idx), grad_in,
                     grad_out);
    }
    /// A request chains the stages' request transforms; wire bytes
    /// compose against the request-model vanilla volume rows.size()·f·4.
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override {
        return chain(ctx, plan_idx, layer, false,
                     dist::ExchangeRows::request(ctx, plan_idx, rows), src,
                     out);
    }
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override {
        return chain(ctx, plan_idx, layer, true,
                     dist::ExchangeRows::request(ctx, plan_idx, rows), grad_in,
                     grad_out);
    }

private:
    /// The one exchange body: run the stages in order (backward: last
    /// forward stage first) and compose their wire bytes.
    std::uint64_t chain(const dist::DistContext& ctx, std::size_t plan_idx,
                        int layer, bool backward,
                        const dist::ExchangeRows& rows,
                        const tensor::Matrix& in, tensor::Matrix& out);

    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages_;
    // Chain scratch: the stages alternate between two buffers, and the
    // per-stage byte counts are kept for the composition.
    tensor::Matrix buf_[2];
    std::vector<double> stage_bytes_;
};

/// End-to-end pipeline configuration.
struct PipelineConfig {
    std::uint32_t num_parts = 4;
    partition::PartitionAlgo algo = partition::PartitionAlgo::kNodeCut;
    std::uint64_t partition_seed = 99;
    gnn::GnnConfig model{};
    dist::DistTrainConfig train{};
    MethodConfig method{};  ///< defaults to SC-GNN
};

/// Pipeline outcome: training result plus the statistics the paper reports
/// about the static stages.
struct PipelineResult {
    dist::DistTrainResult train;
    partition::PartitionQuality partition_quality;
    std::uint64_t cross_edges = 0;        ///< vanilla per-exchange row count
    std::uint64_t wire_rows = 0;          ///< compressed per-exchange rows (ours)
    double compression_ratio = 1.0;       ///< cross_edges / wire_rows
    std::uint32_t num_groups = 0;         ///< Σ groups over plans (ours)
    double mean_group_size = 0.0;         ///< Fig. 10 statistic (edges/group)
};

/// Run the full Fig. 8 pipeline on a dataset. When cfg.method selects a
/// baseline the semantic statistics (wire_rows, groups) are still computed
/// for reference, since they are a static property of the partitioning.
/// Same as runtime::Scenario::run in train mode.
[[nodiscard]] PipelineResult run_pipeline(const graph::Dataset& data,
                                          const PipelineConfig& cfg);

namespace detail {

/// Fill the static-stage statistics of a finished run (cross edges, wire
/// rows, grouping figures, compression ratio). When the method is plain
/// semantic, `comp` must be the training compressor (its live grouping is
/// read); otherwise a reference grouping is rebuilt from `method.semantic`.
/// Used by Scenario::run, which run_pipeline calls in train mode.
void fill_semantic_stats(PipelineResult& res, const dist::DistContext& ctx,
                         const MethodConfig& method,
                         const dist::BoundaryCompressor* comp);

} // namespace detail

} // namespace scgnn::core
