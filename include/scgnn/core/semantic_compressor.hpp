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
    /// Damage bound on the rate schedule's structural response: the
    /// grouping never coarsens below fidelity max(apply_rate φ, kMinRate).
    /// Structure is fragile — merging groups blurs whole halo rows — while
    /// value-precision stages (quant) degrade gracefully, so a scheduled
    /// stack lets bits ride the fidelity all the way down but keeps at
    /// least half the natural groups.
    static constexpr double kMinRate = 0.5;

    GroupingConfig grouping{.kmeans_k = 20};  ///< paper EEP default; 0 = auto
    DropMask drop{};                          ///< differential optimisation
};

/// SC-GNN's semantic compression as a pluggable boundary compressor.
class SemanticCompressor final : public dist::BoundaryCompressor {
public:
    explicit SemanticCompressor(SemanticCompressorConfig config = {});

    [[nodiscard]] std::string name() const override { return "ours"; }

    /// Builds the per-plan groupings (the static semantic-grouping step of
    /// Fig. 8 that runs once between partitioning and training).
    void setup(const dist::DistContext& ctx) override;

    /// Scale the group budget: each plan is regrouped with
    /// k = max(1, round(kmeans_k · fidelity)) M2M clusters, then the whole
    /// grouping is coarsened to max(1, round(groups · fidelity)) groups by
    /// merging sink-local groups (coarsen_grouping) — so wire rows scale
    /// ~linearly with fidelity on any connection mix, not just M2M-heavy
    /// ones. fidelity 1 restores the base configuration exactly. A regroup
    /// is a full similarity + k-means pass per plan — the honest per-rate
    /// setup cost — and only runs when the fidelity actually changes.
    void apply_rate(double fidelity) override;

    /// Full-graph exchange: one fused row per group plus one per raw
    /// cross edge, the Fig. 9 wire volume.
    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return fuse(plan_idx, dist::ExchangeRows::all(ctx, plan_idx), src,
                    out);
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return disassemble(plan_idx, dist::ExchangeRows::all(ctx, plan_idx),
                           grad_in, grad_out);
    }

    /// Request-driven exchange (neighbor-sampled training): fuses only the
    /// *requested* members of each touched group, with the output weights
    /// renormalised over the requested subset so the partial fusion stays
    /// a convex combination. Costs one wire row per touched (non-dropped)
    /// group plus one per requested raw row; dropped classes reconstruct
    /// as zero and ship nothing, exactly as in the full path.
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override {
        return fuse(plan_idx, dist::ExchangeRows::request(ctx, plan_idx, rows),
                    src, out);
    }
    /// Adjoint of forward_subset: one fused gradient row crosses back per
    /// touched group and is disassembled by the renormalised weights.
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override {
        return disassemble(plan_idx,
                           dist::ExchangeRows::request(ctx, plan_idx, rows),
                           grad_in, grad_out);
    }

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
    /// Where one plan row sits in its plan's grouping.
    struct RowRef {
        std::int32_t group = -1;  ///< group id, -1 = raw row
        float weight = 0.0f;      ///< the member's w_out (grouped rows)
        bool dropped = false;     ///< its class is in the drop mask
    };
    struct PlanState {
        Grouping grouping;
        std::vector<RowRef> rows;     ///< per plan row
        std::uint64_t wire_rows = 0;  ///< after the drop mask
    };
    /// A group one exchange touches: the fused row it owns in fused_ and
    /// the scale of its members' weights (1 in a full exchange; in a
    /// request, 1/Σ w over the requested members, or the uniform
    /// 1/count when those weights are all zero).
    struct Touched {
        std::int32_t group = 0;
        std::uint32_t count = 0;
        float wsum = 0.0f;
        float scale = 1.0f;
        bool uniform = false;
    };
    static constexpr std::uint32_t kUntouched = ~std::uint32_t{0};

    /// The fuse body behind forward_rows and forward_subset.
    std::uint64_t fuse(std::size_t plan_idx, const dist::ExchangeRows& rows,
                       const tensor::Matrix& src, tensor::Matrix& out);
    /// The disassemble body behind backward_rows and backward_subset.
    std::uint64_t disassemble(std::size_t plan_idx,
                              const dist::ExchangeRows& rows,
                              const tensor::Matrix& grad_in,
                              tensor::Matrix& grad_out);
    /// The plan's state, checked against setup().
    [[nodiscard]] const PlanState& plan_state(std::size_t plan_idx) const;
    /// List in touched_ the non-dropped groups `rows` reaches, in first
    /// touch order, give each a fused row (fused_row_) and its weight
    /// scale; fused_ becomes a zeroed touched × f block.
    void touch_groups(const PlanState& state, const dist::ExchangeRows& rows,
                      std::size_t f);
    /// The weight member row `ref` of touched group `t` carries.
    [[nodiscard]] static float member_weight(const Touched& t,
                                             const RowRef& ref) noexcept {
        return t.uniform ? t.scale : ref.weight * t.scale;
    }
    /// Reset fused_row_ for the groups the last exchange touched.
    void release_groups() noexcept;

    /// k-means budget after the rate scaling (0 stays 0 = EEP auto).
    [[nodiscard]] std::uint32_t effective_k() const noexcept;
    /// The setup() grouping pass at the current effective k.
    void rebuild();
    /// Group plan `pi` with k-means budget `k` into plans_[pi].
    void build_plan(const dist::PairPlan& plan, std::size_t pi,
                    std::uint32_t k);

    SemanticCompressorConfig cfg_;
    std::vector<PlanState> plans_;
    // Exchange scratch, reused across exchanges: the touched groups, each
    // group id's row in fused_ (kUntouched between exchanges; sized to the
    // largest plan's group count) and the fused rows themselves.
    std::vector<Touched> touched_;
    std::vector<std::uint32_t> fused_row_;
    tensor::Matrix fused_;
    const dist::DistContext* ctx_ = nullptr;  ///< set by setup(), for regroups
    double rate_ = 1.0;                       ///< fidelity in force
};

} // namespace scgnn::core
