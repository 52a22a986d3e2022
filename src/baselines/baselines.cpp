#include "scgnn/baselines/baselines.hpp"

#include <algorithm>

#include "scgnn/tensor/quantize.hpp"

namespace scgnn::baselines {

using dist::DistContext;
using dist::PairPlan;
using tensor::Matrix;

// ---------------------------------------------------------------- Sampling

SamplingCompressor::SamplingCompressor(SamplingConfig config)
    : cfg_(config), rate_eff_(config.rate), rng_(config.seed) {
    SCGNN_CHECK(cfg_.rate > 0.0 && cfg_.rate <= 1.0,
                "sampling rate must be in (0, 1]");
}

void SamplingCompressor::apply_rate(double fidelity) {
    SCGNN_CHECK(fidelity > 0.0 && fidelity <= 1.0,
                "rate fidelity must be in (0, 1]");
    rate_eff_ = std::max(cfg_.rate * fidelity, 1e-3);
}

void SamplingCompressor::setup(const DistContext& ctx) {
    masks_.assign(ctx.plans().size(), {});
    mask_epoch_.assign(ctx.plans().size(), 0);
}

void SamplingCompressor::begin_epoch(std::uint64_t epoch) { epoch_ = epoch; }

const std::vector<char>& SamplingCompressor::mask_for(const DistContext& ctx,
                                                     std::size_t plan_idx) {
    SCGNN_CHECK(plan_idx < masks_.size(), "plan index out of range (setup?)");
    std::vector<char>& keep = masks_[plan_idx];
    if (mask_epoch_[plan_idx] == epoch_ + 1) return keep;
    // Rebuild the epoch's boundary sample for this plan — the per-round
    // adjacency-refresh work that makes sampling expensive at scale.
    const PairPlan& plan = ctx.plans()[plan_idx];
    keep.assign(plan.num_rows(), 0);
    for (std::uint32_t r = 0; r < plan.num_rows(); ++r)
        keep[r] = rng_.bernoulli(rate_eff_) ? 1 : 0;
    mask_epoch_[plan_idx] = epoch_ + 1;
    return keep;
}

std::uint64_t SamplingCompressor::ship(const DistContext& ctx,
                                       std::size_t plan_idx,
                                       const dist::ExchangeRows& rows,
                                       const Matrix& in, Matrix& out) {
    const std::vector<char>& keep = mask_for(ctx, plan_idx);
    rows.check_payload(in);
    out.reshape_zero(in.rows(), in.cols());
    const float scale = static_cast<float>(1.0 / rate_eff_);
    std::uint64_t wire_rows = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!keep[rows[i]]) continue;
        const auto s = in.row(i);
        auto d = out.row(i);
        for (std::size_t c = 0; c < s.size(); ++c) d[c] = s[c] * scale;
        wire_rows += rows.cost(i);
    }
    return wire_rows * in.cols() * sizeof(float);
}

// ------------------------------------------------------------------- Quant

QuantCompressor::QuantCompressor(QuantConfig config)
    : cfg_(config), bits_eff_(config.bits) {
    SCGNN_CHECK(cfg_.bits == 4 || cfg_.bits == 8 || cfg_.bits == 16,
                "supported bit-widths are 4, 8 and 16");
}

void QuantCompressor::apply_rate(double fidelity) {
    SCGNN_CHECK(fidelity > 0.0 && fidelity <= 1.0,
                "rate fidelity must be in (0, 1]");
    const double target = fidelity * cfg_.bits;
    int eff = cfg_.bits;
    for (const int b : {4, 8, 16}) {
        if (b >= target) {
            eff = b;
            break;
        }
    }
    bits_eff_ = std::min(eff, cfg_.bits);
}

std::uint64_t QuantCompressor::roundtrip(const dist::ExchangeRows& rows,
                                         const Matrix& in, Matrix& out) const {
    rows.check_payload(in);
    out = tensor::dequantize(tensor::quantize_per_tensor(in, bits_eff_));
    // Every shipped row at the reduced width, plus the affine parameters.
    return rows.verbatim_rows() * in.cols() *
               static_cast<std::uint64_t>(bits_eff_) / 8 +
           sizeof(float) + sizeof(std::int32_t);
}

// ------------------------------------------------------------------- Delay

DelayCompressor::DelayCompressor(DelayConfig config) : cfg_(config) {
    SCGNN_CHECK(cfg_.period >= 1, "delay period must be at least 1");
}

void DelayCompressor::setup(const DistContext& ctx) {
    fwd_cache_.assign(ctx.plans().size(), {});
    bwd_cache_.assign(ctx.plans().size(), {});
    epoch_ = 0;
}

void DelayCompressor::begin_epoch(std::uint64_t epoch) { epoch_ = epoch; }

std::uint64_t DelayCompressor::ship(std::vector<std::vector<Matrix>>& caches,
                                    const DistContext& ctx,
                                    std::size_t plan_idx, int layer,
                                    const Matrix& in, Matrix& out) {
    const dist::ExchangeRows rows = dist::ExchangeRows::all(ctx, plan_idx);
    rows.check_payload(in);
    SCGNN_CHECK(layer >= 0, "layer out of range");
    SCGNN_CHECK(plan_idx < caches.size(), "plan index out of range (setup?)");
    auto& per_plan = caches[plan_idx];
    const auto li = static_cast<std::size_t>(layer);
    if (per_plan.size() <= li) per_plan.resize(li + 1);
    Matrix& cache = per_plan[li];
    if (transmit_epoch() || cache.empty()) {
        cache = in;
        out = in;
        return rows.verbatim_rows() * in.cols() * sizeof(float);
    }
    out = cache;  // stale copy (or stale gradients, as Dorylus permits)
    return 0;
}

namespace {

[[noreturn]] void no_request_path() {
    throw Error("delay has no request path: its cache replays a plan's "
                "full row block, which a sampled batch never ships");
}

} // namespace

std::uint64_t DelayCompressor::forward_subset(const DistContext&, std::size_t,
                                              int,
                                              std::span<const std::uint32_t>,
                                              const Matrix&, Matrix&) {
    no_request_path();
}

std::uint64_t DelayCompressor::backward_subset(const DistContext&, std::size_t,
                                               int,
                                               std::span<const std::uint32_t>,
                                               const Matrix&, Matrix&) {
    no_request_path();
}

} // namespace scgnn::baselines
