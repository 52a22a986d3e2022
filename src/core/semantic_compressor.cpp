#include "scgnn/core/semantic_compressor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "scgnn/common/parallel.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::core {

using dist::DistContext;
using dist::PairPlan;
using tensor::Matrix;

SemanticCompressor::SemanticCompressor(SemanticCompressorConfig config)
    : cfg_(config) {}

void SemanticCompressor::setup(const DistContext& ctx) {
    ctx_ = &ctx;
    rebuild();
}

std::uint32_t SemanticCompressor::effective_k() const noexcept {
    const std::uint32_t base = cfg_.grouping.kmeans_k;
    const double structural =
        std::max(rate_, SemanticCompressorConfig::kMinRate);
    if (base == 0 || structural >= 1.0) return base;  // EEP auto: no response
    const auto scaled =
        static_cast<std::uint32_t>(std::lround(base * structural));
    return std::max<std::uint32_t>(1, scaled);
}

void SemanticCompressor::apply_rate(double fidelity) {
    SCGNN_CHECK(fidelity > 0.0 && fidelity <= 1.0,
                "rate fidelity must be in (0, 1]");
    const double before = rate_;
    rate_ = fidelity;
    // Regroup only when the budget actually moves (and only once setup()
    // gave us plans to regroup; before that the next setup() applies it).
    if (ctx_ != nullptr && rate_ != before) rebuild();
}

void SemanticCompressor::build_plan(const PairPlan& plan, std::size_t pi,
                                    std::uint32_t k) {
    GroupingConfig gc = cfg_.grouping;
    gc.kmeans_k = k;
    // Derive an independent grouping seed per plan so identical DBGs in
    // different pairs do not share k-means++ draws.
    gc.seed = cfg_.grouping.seed + pi * 0x9e3779b97f4a7c15ULL;
    PlanState state;
    state.grouping = build_grouping(plan.dbg, gc);
    // The fidelity knob is the *group budget*: the k-means k only reaches
    // the M2M pool, but merging whole groups scales wire rows ~linearly on
    // any connection mix (coarsen_grouping doc). The structural response
    // is clamped at SemanticCompressorConfig::kMinRate — see its doc.
    const double structural =
        std::max(rate_, SemanticCompressorConfig::kMinRate);
    if (structural < 1.0 && state.grouping.groups.size() > 1) {
        const auto target = static_cast<std::uint32_t>(std::max<long>(
            1, std::lround(static_cast<double>(state.grouping.groups.size()) *
                           structural)));
        state.grouping = coarsen_grouping(plan.dbg, state.grouping, target);
    }

    // The row table the exchange bodies read: group, weight and drop
    // flag of every plan row.
    const std::vector<graph::ConnectionType> cls = classify_sources(plan.dbg);
    state.rows.resize(plan.num_rows());
    for (std::size_t gi = 0; gi < state.grouping.groups.size(); ++gi) {
        const SemanticGroup& g = state.grouping.groups[gi];
        const bool dropped = cfg_.drop.dropped(g.origin);
        if (!dropped) ++state.wire_rows;
        for (std::size_t mi = 0; mi < g.members.size(); ++mi)
            state.rows[g.members[mi]] = {static_cast<std::int32_t>(gi),
                                         g.out_weights[mi], dropped};
    }
    for (const std::uint32_t r : state.grouping.raw_rows) {
        state.rows[r].dropped = cfg_.drop.dropped(cls[r]);
        if (!state.rows[r].dropped) state.wire_rows += plan.dbg.out_degree(r);
    }
    plans_[pi] = std::move(state);
}

void SemanticCompressor::rebuild() {
    SCGNN_TRACE_SPAN("compress.setup");
    const DistContext& ctx = *ctx_;
    const std::uint64_t setup_t0 =
        obs::enabled() ? obs::detail::trace_now_ns() : 0;
    const std::span<const PairPlan> pairs = ctx.plans();
    plans_.clear();
    plans_.resize(pairs.size());
    // One grain-1 task per plan, handed out largest DBG first so the long
    // groupings start early. Each plan keeps its own seed and writes only
    // its own slot, so the order affects scheduling only; the k-means
    // inside a task runs inline.
    std::vector<std::size_t> order(pairs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pairs[a].num_edges() > pairs[b].num_edges();
                     });
    const std::uint32_t k = effective_k();
    parallel_for(0, order.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            build_plan(pairs[order[i]], order[i], k);
    });
    std::size_t max_groups = 0;
    for (const PlanState& st : plans_)
        max_groups = std::max(max_groups, st.grouping.groups.size());
    fused_row_.assign(max_groups, kUntouched);
    if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.counter("compress.setups").add(1);
        reg.counter("compress.setup_plans").add(plans_.size());
        reg.gauge("compress.setup_seconds")
            .add(static_cast<double>(obs::detail::trace_now_ns() - setup_t0) *
                 1e-9);
    }
}

const SemanticCompressor::PlanState& SemanticCompressor::plan_state(
    std::size_t plan_idx) const {
    SCGNN_CHECK(plan_idx < plans_.size(), "plan index out of range (setup?)");
    return plans_[plan_idx];
}

void SemanticCompressor::touch_groups(const PlanState& state,
                                      const dist::ExchangeRows& rows,
                                      std::size_t f) {
    touched_.clear();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowRef& ref = state.rows[rows[i]];
        if (ref.group < 0 || ref.dropped) continue;
        std::uint32_t& slot = fused_row_[static_cast<std::size_t>(ref.group)];
        if (slot == kUntouched) {
            slot = static_cast<std::uint32_t>(touched_.size());
            touched_.push_back({.group = ref.group});
        }
        Touched& t = touched_[slot];
        t.wsum += ref.weight;
        ++t.count;
    }
    // A request fuses only the requested members, renormalised so the
    // partial fusion stays a convex combination; a degenerate all-zero
    // request falls back to the uniform average. A full exchange fuses
    // with the group's own weights (scale 1).
    if (rows.is_request())
        for (Touched& t : touched_) {
            t.uniform = !(t.wsum > 0.0f);
            t.scale = t.uniform ? 1.0f / static_cast<float>(t.count)
                                : 1.0f / t.wsum;
        }
    fused_.reshape_zero(touched_.size(), f);
}

void SemanticCompressor::release_groups() noexcept {
    for (const Touched& t : touched_)
        fused_row_[static_cast<std::size_t>(t.group)] = kUntouched;
}

std::uint64_t SemanticCompressor::fuse(std::size_t plan_idx,
                                       const dist::ExchangeRows& rows,
                                       const Matrix& src, Matrix& out) {
    const PlanState& state = plan_state(plan_idx);
    rows.check_payload(src);
    const std::size_t f = src.cols();
    // Zeroed: dropped classes contribute nothing.
    out.reshape_zero(rows.size(), f);
    touch_groups(state, rows, f);
    // Fuse (Fig. 7(b) line 1-2): h_g = Σ w·h_u over the shipped members,
    // in ascending row order, which is each group's member order ...
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowRef& ref = state.rows[rows[i]];
        if (ref.group < 0 || ref.dropped) continue;
        const std::uint32_t slot =
            fused_row_[static_cast<std::size_t>(ref.group)];
        tensor::kern::axpy(member_weight(touched_[slot], ref),
                           src.row(i).data(), fused_.row(slot).data(), f);
    }
    // ... transmit one semantic row per touched group (line 3-4) and
    // reconstruct every member halo row as the fused semantics; the
    // receiver's adjacency weights perform the proportional disassembly
    // (line 5-7). Raw rows ship verbatim at their own cost.
    std::uint64_t wire_rows = touched_.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowRef& ref = state.rows[rows[i]];
        if (ref.dropped) continue;
        const auto from =
            ref.group < 0
                ? src.row(i)
                : fused_.row(fused_row_[static_cast<std::size_t>(ref.group)]);
        std::copy(from.begin(), from.end(), out.row(i).begin());
        if (ref.group < 0) wire_rows += rows.cost(i);
    }
    release_groups();
    return wire_rows * f * sizeof(float);
}

std::uint64_t SemanticCompressor::disassemble(std::size_t plan_idx,
                                              const dist::ExchangeRows& rows,
                                              const Matrix& grad_in,
                                              Matrix& grad_out) {
    const PlanState& state = plan_state(plan_idx);
    rows.check_payload(grad_in);
    const std::size_t f = grad_in.cols();
    grad_out.reshape_zero(rows.size(), f);
    touch_groups(state, rows, f);
    // Adjoint of the fusion: one fused gradient row ĝ = Σ ∂L/∂ĥ_u per
    // touched group crosses back ...
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowRef& ref = state.rows[rows[i]];
        if (ref.group < 0 || ref.dropped) continue;
        const auto gi = grad_in.row(i);
        auto g_g = fused_.row(fused_row_[static_cast<std::size_t>(ref.group)]);
        for (std::size_t c = 0; c < f; ++c) g_g[c] += gi[c];
    }
    // ... and the owner disassembles it by the members' weights; raw
    // gradients travel verbatim.
    std::uint64_t wire_rows = touched_.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowRef& ref = state.rows[rows[i]];
        if (ref.dropped) continue;
        auto d = grad_out.row(i);
        if (ref.group < 0) {
            const auto s = grad_in.row(i);
            std::copy(s.begin(), s.end(), d.begin());
            wire_rows += rows.cost(i);
            continue;
        }
        const std::uint32_t slot =
            fused_row_[static_cast<std::size_t>(ref.group)];
        const float w = member_weight(touched_[slot], ref);
        const auto g_g = fused_.row(slot);
        for (std::size_t c = 0; c < f; ++c) d[c] = w * g_g[c];
    }
    release_groups();
    return wire_rows * f * sizeof(float);
}

const Grouping& SemanticCompressor::grouping(std::size_t plan_idx) const {
    SCGNN_CHECK(plan_idx < plans_.size(), "plan index out of range (setup?)");
    return plans_[plan_idx].grouping;
}

std::uint64_t SemanticCompressor::total_wire_rows() const noexcept {
    std::uint64_t total = 0;
    for (const PlanState& s : plans_) total += s.wire_rows;
    return total;
}

} // namespace scgnn::core
