#include "scgnn/core/semantic_compressor.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "scgnn/common/parallel.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/workspace.hpp"

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
    const double structural = std::max(rate_, cfg_.min_rate);
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
    // is clamped at cfg_.min_rate — see its doc.
    const double structural = std::max(rate_, cfg_.min_rate);
    if (structural < 1.0 && state.grouping.groups.size() > 1) {
        const auto target = static_cast<std::uint32_t>(std::max<long>(
            1, std::lround(static_cast<double>(state.grouping.groups.size()) *
                           structural)));
        state.grouping = coarsen_grouping(plan.dbg, state.grouping, target);
    }

    const std::vector<graph::ConnectionType> cls = classify_sources(plan.dbg);
    state.raw_class.reserve(state.grouping.raw_rows.size());
    for (std::uint32_t r : state.grouping.raw_rows)
        state.raw_class.push_back(cls[r]);

    for (const SemanticGroup& g : state.grouping.groups)
        if (!cfg_.drop.dropped(g.origin)) ++state.wire_rows;
    for (std::size_t i = 0; i < state.grouping.raw_rows.size(); ++i)
        if (!cfg_.drop.dropped(state.raw_class[i]))
            state.wire_rows += plan.dbg.out_degree(state.grouping.raw_rows[i]);
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
    if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.counter("compress.setups").add(1);
        reg.counter("compress.setup_plans").add(plans_.size());
        reg.gauge("compress.setup_seconds")
            .add(static_cast<double>(obs::detail::trace_now_ns() - setup_t0) *
                 1e-9);
    }
}

std::uint64_t SemanticCompressor::forward_rows(const DistContext& ctx,
                                               std::size_t plan_idx,
                                               int /*layer*/, const Matrix& src,
                                               Matrix& out) {
    SCGNN_CHECK(plan_idx < plans_.size(), "plan index out of range (setup?)");
    const PairPlan& plan = ctx.plans()[plan_idx];
    const PlanState& state = plans_[plan_idx];
    SCGNN_CHECK(src.rows() == plan.num_rows(), "source row count mismatch");

    const std::size_t f = src.cols();
    // Zeroed: dropped classes contribute nothing.
    out.reshape_zero(src.rows(), f);
    std::uint64_t wire_rows = 0;

    // One fuse row reused (and re-zeroed) across every group of the plan.
    tensor::Workspace::Lease fuse(ws_, 1, f);
    const auto h_g = fuse.get().row(0);
    for (const SemanticGroup& g : state.grouping.groups) {
        if (cfg_.drop.dropped(g.origin)) continue;
        // Fuse (Fig. 7(b) line 1-2) ...
        std::fill(h_g.begin(), h_g.end(), 0.0f);
        for (std::size_t i = 0; i < g.members.size(); ++i) {
            const auto h_u = src.row(g.members[i]);
            tensor::kern::axpy(g.out_weights[i], h_u.data(), h_g.data(), f);
        }
        ++wire_rows;  // ... transmit one semantic row (line 3-4) ...
        // ... and reconstruct every member halo row as the fused semantics;
        // the receiver's adjacency weights perform the proportional
        // disassembly (line 5-7).
        for (std::uint32_t member : g.members) {
            auto dst = out.row(member);
            std::copy(h_g.begin(), h_g.end(), dst.begin());
        }
    }

    for (std::size_t i = 0; i < state.grouping.raw_rows.size(); ++i) {
        if (cfg_.drop.dropped(state.raw_class[i])) continue;
        const std::uint32_t r = state.grouping.raw_rows[i];
        const auto s = src.row(r);
        auto d = out.row(r);
        std::copy(s.begin(), s.end(), d.begin());
        wire_rows += plan.dbg.out_degree(r);  // raw rows keep per-edge cost
    }
    return wire_rows * f * sizeof(float);
}

std::uint64_t SemanticCompressor::backward_rows(const DistContext& ctx,
                                                std::size_t plan_idx,
                                                int /*layer*/,
                                                const Matrix& grad_in,
                                                Matrix& grad_out) {
    SCGNN_CHECK(plan_idx < plans_.size(), "plan index out of range (setup?)");
    const PairPlan& plan = ctx.plans()[plan_idx];
    const PlanState& state = plans_[plan_idx];
    SCGNN_CHECK(grad_in.rows() == plan.num_rows(),
                "gradient row count mismatch");

    const std::size_t f = grad_in.cols();
    grad_out.reshape_zero(grad_in.rows(), f);
    std::uint64_t wire_rows = 0;

    tensor::Workspace::Lease fuse(ws_, 1, f);
    const auto g_g = fuse.get().row(0);
    for (const SemanticGroup& g : state.grouping.groups) {
        if (cfg_.drop.dropped(g.origin)) continue;
        // Adjoint of the fusion: one fused gradient row crosses back ...
        std::fill(g_g.begin(), g_g.end(), 0.0f);
        for (std::uint32_t member : g.members) {
            const auto gi = grad_in.row(member);
            for (std::size_t c = 0; c < f; ++c) g_g[c] += gi[c];
        }
        ++wire_rows;
        // ... and the owner disassembles it by the output weights.
        for (std::size_t i = 0; i < g.members.size(); ++i) {
            const float w = g.out_weights[i];
            auto d = grad_out.row(g.members[i]);
            for (std::size_t c = 0; c < f; ++c) d[c] = w * g_g[c];
        }
    }

    for (std::size_t i = 0; i < state.grouping.raw_rows.size(); ++i) {
        if (cfg_.drop.dropped(state.raw_class[i])) continue;
        const std::uint32_t r = state.grouping.raw_rows[i];
        const auto s = grad_in.row(r);
        auto d = grad_out.row(r);
        std::copy(s.begin(), s.end(), d.begin());
        wire_rows += plan.dbg.out_degree(r);
    }
    return wire_rows * f * sizeof(float);
}

namespace {

/// Requested-subset view of one plan's grouping: for every touched group
/// the (member index within the group, index into `rows`) pairs, plus the
/// subset indices of the requested raw rows. std::map keeps the group
/// iteration order deterministic.
struct SubsetBuckets {
    std::map<std::int32_t, std::vector<std::pair<std::size_t, std::size_t>>>
        groups;
    std::vector<std::size_t> raw;
};

SubsetBuckets bucket_subset(const Grouping& grouping, const PairPlan& plan,
                            std::span<const std::uint32_t> rows) {
    SubsetBuckets b;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCGNN_CHECK(rows[i] < plan.num_rows(), "subset row out of plan range");
        if (i > 0) SCGNN_CHECK(rows[i] > rows[i - 1], "subset rows must ascend");
        const std::int32_t gid = grouping.group_of_row[rows[i]];
        if (gid < 0) {
            b.raw.push_back(i);
            continue;
        }
        const SemanticGroup& g = grouping.groups[static_cast<std::size_t>(gid)];
        std::size_t mi = 0;
        while (g.members[mi] != rows[i]) ++mi;
        b.groups[gid].emplace_back(mi, i);
    }
    return b;
}

/// Renormalisation factor over the requested members' output weights; a
/// degenerate all-zero request falls back to the uniform average.
float subset_weight_scale(
    const SemanticGroup& g,
    const std::vector<std::pair<std::size_t, std::size_t>>& req,
    bool& uniform) {
    float wsum = 0.0f;
    for (const auto& [mi, si] : req) wsum += g.out_weights[mi];
    uniform = !(wsum > 0.0f);
    return uniform ? 1.0f / static_cast<float>(req.size()) : 1.0f / wsum;
}

} // namespace

std::uint64_t SemanticCompressor::forward_subset(
    const DistContext& ctx, std::size_t plan_idx, int /*layer*/,
    std::span<const std::uint32_t> rows, const Matrix& src, Matrix& out) {
    SCGNN_CHECK(plan_idx < plans_.size(), "plan index out of range (setup?)");
    const PairPlan& plan = ctx.plans()[plan_idx];
    const PlanState& state = plans_[plan_idx];
    SCGNN_CHECK(src.rows() == rows.size(), "subset payload row mismatch");

    const std::size_t f = src.cols();
    out.reshape_zero(rows.size(), f);
    std::uint64_t wire_rows = 0;

    const SubsetBuckets b = bucket_subset(state.grouping, plan, rows);

    tensor::Workspace::Lease fuse(ws_, 1, f);
    const auto h_g = fuse.get().row(0);
    for (const auto& [gid, req] : b.groups) {
        const SemanticGroup& g =
            state.grouping.groups[static_cast<std::size_t>(gid)];
        if (cfg_.drop.dropped(g.origin)) continue;
        bool uniform = false;
        const float inv = subset_weight_scale(g, req, uniform);
        // Partial fuse over the requested members only, renormalised so the
        // fused row stays a convex combination of what was requested.
        std::fill(h_g.begin(), h_g.end(), 0.0f);
        for (const auto& [mi, si] : req) {
            const float w = uniform ? inv : g.out_weights[mi] * inv;
            tensor::kern::axpy(w, src.row(si).data(), h_g.data(), f);
        }
        ++wire_rows;  // one semantic row per touched group
        for (const auto& [mi, si] : req) {
            auto dst = out.row(si);
            std::copy(h_g.begin(), h_g.end(), dst.begin());
        }
    }

    for (std::size_t i : b.raw) {
        const auto& rr = state.grouping.raw_rows;
        const auto it = std::lower_bound(rr.begin(), rr.end(), rows[i]);
        const auto ri = static_cast<std::size_t>(it - rr.begin());
        if (cfg_.drop.dropped(state.raw_class[ri])) continue;
        const auto s = src.row(i);
        auto d = out.row(i);
        std::copy(s.begin(), s.end(), d.begin());
        ++wire_rows;  // request model: each requested raw row ships once
    }
    return wire_rows * f * sizeof(float);
}

std::uint64_t SemanticCompressor::backward_subset(
    const DistContext& ctx, std::size_t plan_idx, int /*layer*/,
    std::span<const std::uint32_t> rows, const Matrix& grad_in,
    Matrix& grad_out) {
    SCGNN_CHECK(plan_idx < plans_.size(), "plan index out of range (setup?)");
    const PairPlan& plan = ctx.plans()[plan_idx];
    const PlanState& state = plans_[plan_idx];
    SCGNN_CHECK(grad_in.rows() == rows.size(), "subset payload row mismatch");

    const std::size_t f = grad_in.cols();
    grad_out.reshape_zero(rows.size(), f);
    std::uint64_t wire_rows = 0;

    const SubsetBuckets b = bucket_subset(state.grouping, plan, rows);

    tensor::Workspace::Lease fuse(ws_, 1, f);
    const auto g_g = fuse.get().row(0);
    for (const auto& [gid, req] : b.groups) {
        const SemanticGroup& g =
            state.grouping.groups[static_cast<std::size_t>(gid)];
        if (cfg_.drop.dropped(g.origin)) continue;
        // Adjoint of the partial fuse: one fused gradient row crosses back…
        std::fill(g_g.begin(), g_g.end(), 0.0f);
        for (const auto& [mi, si] : req) {
            const auto gi = grad_in.row(si);
            for (std::size_t c = 0; c < f; ++c) g_g[c] += gi[c];
        }
        ++wire_rows;
        // …and is disassembled by the renormalised requested weights.
        bool uniform = false;
        const float inv = subset_weight_scale(g, req, uniform);
        for (const auto& [mi, si] : req) {
            const float w = uniform ? inv : g.out_weights[mi] * inv;
            auto d = grad_out.row(si);
            for (std::size_t c = 0; c < f; ++c) d[c] = w * g_g[c];
        }
    }

    for (std::size_t i : b.raw) {
        const auto& rr = state.grouping.raw_rows;
        const auto it = std::lower_bound(rr.begin(), rr.end(), rows[i]);
        const auto ri = static_cast<std::size_t>(it - rr.begin());
        if (cfg_.drop.dropped(state.raw_class[ri])) continue;
        const auto s = grad_in.row(i);
        auto d = grad_out.row(i);
        std::copy(s.begin(), s.end(), d.begin());
        ++wire_rows;
    }
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
