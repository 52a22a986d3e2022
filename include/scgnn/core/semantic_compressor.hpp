#pragma once
/// \file semantic_compressor.hpp
/// \brief SC-GNN's boundary compressor: the training-integrated semantic
///        compression of Fig. 8, implementing dist::BoundaryCompressor so
///        it plugs into the same trainer slot as the baselines.
///
/// At setup() it builds the semantic grouping of every exchange plan's DBG
/// (M2M via similarity k-means, O2M/M2O as natural groups, O2O raw). Each
/// forward exchange then ships one fused row h_g = Σ w_out(u)·h_u per group
/// (plus raw per-edge rows); the receiver reconstructs every in-group halo
/// row as h_g — the full-mapping approximation — and its normalised
/// adjacency weights realise the proportional L-SALSA disassembly of
/// Fig. 7(b) line 5-7. Gradients take the exact adjoint route: the receiver
/// fuses ĝ = Σ_{u∈g} ∂L/∂ĥ_u into one row, and the owner disassembles
/// ∂L/∂h_u = w_out(u)·ĝ.
///
/// The differential optimisation of §5.3 is the `drop` mask: any connection
/// class can be excluded from the exchange entirely (its reconstructions
/// are zero and nothing crosses the wire). "without-O2O" is the
/// configuration the paper recommends for bandwidth-starved clusters.

#include <array>
#include <cstdint>
#include <vector>

#include "scgnn/core/grouping.hpp"
#include "scgnn/dist/compressor.hpp"

namespace scgnn::core {

/// Which connection classes the differential optimisation removes.
struct DropMask {
    bool o2o = false;
    bool o2m = false;
    bool m2o = false;
    bool m2m = false;

    /// True when class `t` is dropped.
    [[nodiscard]] bool dropped(graph::ConnectionType t) const noexcept {
        switch (t) {
            case graph::ConnectionType::kO2O: return o2o;
            case graph::ConnectionType::kO2M: return o2m;
            case graph::ConnectionType::kM2O: return m2o;
            case graph::ConnectionType::kM2M: return m2m;
        }
        return false;
    }

    /// The paper's recommended differential configuration (§5.3).
    [[nodiscard]] static DropMask without_o2o() noexcept {
        return {.o2o = true};
    }
};

/// Semantic compressor configuration.
struct SemanticCompressorConfig {
    GroupingConfig grouping{.kmeans_k = 20};  ///< paper EEP default; 0 = auto
    DropMask drop{};                          ///< differential optimisation
    /// Damage bound on the rate schedule's structural response: the
    /// grouping never coarsens below fidelity max(apply_rate φ, min_rate).
    /// Structure is fragile — merging groups blurs whole halo rows — while
    /// value-precision stages (quant) degrade gracefully, so a scheduled
    /// stack lets bits ride the fidelity all the way down but keeps at
    /// least half the natural groups. 1 disables coarsening entirely.
    double min_rate = 0.5;
};

/// SC-GNN's semantic compression as a pluggable boundary compressor.
class SemanticCompressor final : public dist::BoundaryCompressor {
public:
    explicit SemanticCompressor(SemanticCompressorConfig config = {});

    [[nodiscard]] std::string name() const override { return "ours"; }

    /// Builds the per-plan groupings (the static semantic-grouping step of
    /// Fig. 8 that runs once between partitioning and training).
    void setup(const dist::DistContext& ctx) override;

    /// Pooled scratch for the per-exchange fuse row (see
    /// BoundaryCompressor::set_workspace).
    void set_workspace(tensor::Workspace* ws) override { ws_ = ws; }

    /// Scale the group budget: each plan is regrouped with
    /// k = max(1, round(kmeans_k · fidelity)) M2M clusters, then the whole
    /// grouping is coarsened to max(1, round(groups · fidelity)) groups by
    /// merging sink-local groups (coarsen_grouping) — so wire rows scale
    /// ~linearly with fidelity on any connection mix, not just M2M-heavy
    /// ones. fidelity 1 restores the base configuration exactly. A regroup
    /// is a full similarity + k-means pass per plan — the honest per-rate
    /// setup cost — and only runs when the fidelity actually changes.
    void apply_rate(double fidelity) override;

    /// The fidelity last applied (1 until apply_rate is called).
    [[nodiscard]] double rate_fidelity() const noexcept { return rate_; }

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override;
    [[nodiscard]] std::uint64_t backward_rows(const dist::DistContext& ctx,
                                              std::size_t plan_idx, int layer,
                                              const tensor::Matrix& grad_in,
                                              tensor::Matrix& grad_out) override;

    /// Request-driven subset exchange (neighbor-sampled training): fuses
    /// only the *requested* members of each touched group, with the output
    /// weights renormalised over the requested subset so the partial fusion
    /// stays a convex combination. Costs one wire row per touched
    /// (non-dropped) group plus one per requested raw row; dropped classes
    /// reconstruct as zero and ship nothing, exactly as in the full path.
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override;

    /// Adjoint of forward_subset: one fused gradient row crosses back per
    /// touched group and is disassembled by the renormalised weights.
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override;

    /// The grouping built for plan `plan_idx` (valid after setup()).
    [[nodiscard]] const Grouping& grouping(std::size_t plan_idx) const;

    /// Wire rows of one full exchange across all plans (Σ groups + raw
    /// edges, minus dropped classes) — the numerator of the Fig. 9 ratio.
    [[nodiscard]] std::uint64_t total_wire_rows() const noexcept;

    /// The configuration in force.
    [[nodiscard]] const SemanticCompressorConfig& config() const noexcept {
        return cfg_;
    }

private:
    /// Raw-row classes cached per plan so the drop mask can filter them.
    struct PlanState {
        Grouping grouping;
        std::vector<graph::ConnectionType> raw_class;  ///< per raw row
        std::uint64_t wire_rows = 0;  ///< after the drop mask
    };

    /// k-means budget after the rate scaling (0 stays 0 = EEP auto).
    [[nodiscard]] std::uint32_t effective_k() const noexcept;
    /// The setup() grouping pass at the current effective k.
    void rebuild();
    /// Group plan `pi` with k-means budget `k` into plans_[pi].
    void build_plan(const dist::PairPlan& plan, std::size_t pi,
                    std::uint32_t k);

    SemanticCompressorConfig cfg_;
    std::vector<PlanState> plans_;
    tensor::Workspace* ws_ = nullptr;  ///< nullable fuse-row scratch pool
    const dist::DistContext* ctx_ = nullptr;  ///< set by setup(), for regroups
    double rate_ = 1.0;                       ///< fidelity in force
};

} // namespace scgnn::core
