#include "scgnn/dist/error_feedback.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "scgnn/common/error.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"

namespace scgnn::dist {

using tensor::Matrix;

ErrorFeedbackCompressor::ErrorFeedbackCompressor(
    std::unique_ptr<BoundaryCompressor> inner, ErrorFeedbackConfig config)
    : inner_(std::move(inner)), cfg_(config) {
    SCGNN_CHECK(inner_ != nullptr, "error feedback needs an inner compressor");
}

std::string ErrorFeedbackCompressor::name() const {
    return "ef+" + inner_->name();
}

void ErrorFeedbackCompressor::setup(const DistContext& ctx) {
    fwd_.clear();
    bwd_.clear();
    fwd_.resize(ctx.plans().size());
    bwd_.resize(ctx.plans().size());
    plan_src_.clear();
    plan_dst_.clear();
    for (const auto& plan : ctx.plans()) {
        plan_src_.push_back(plan.src_part);
        plan_dst_.push_back(plan.dst_part);
    }
    epoch_sq_residual_ = 0.0;
    recovered_rows_ = 0;
    recovered_bytes_ = 0;
    inner_->setup(ctx);
}

void ErrorFeedbackCompressor::begin_epoch(std::uint64_t epoch) {
    // Promote the pending residuals to this epoch's frozen carry-in; a
    // slot untouched last epoch keeps its old carry-in unchanged.
    for (auto* side : {&fwd_, &bwd_})
        for (auto& per_plan : *side)
            for (Slot& s : per_plan)
                if (s.has_next) {
                    std::swap(s.prev, s.next);
                    s.has_prev = true;
                    s.has_next = false;
                }
    epoch_sq_residual_ = 0.0;
    inner_->begin_epoch(epoch);
}

void ErrorFeedbackCompressor::apply_rate(double fidelity) {
    SCGNN_CHECK(fidelity > 0.0 && fidelity <= 1.0,
                "rate fidelity must be in (0, 1]");
    rate_ = fidelity;
    inner_->apply_rate(fidelity);
}

std::uint64_t ErrorFeedbackCompressor::state_bytes(std::uint32_t part) const {
    std::uint64_t bytes = inner_->state_bytes(part);
    const auto add_side = [&](const std::vector<std::vector<Slot>>& side,
                              const std::vector<std::uint32_t>& home) {
        for (std::size_t pi = 0; pi < side.size(); ++pi) {
            if (pi >= home.size() || home[pi] != part) continue;
            for (const Slot& s : side[pi]) {
                if (s.has_prev) bytes += s.prev.payload_bytes();
                if (s.has_next) bytes += s.next.payload_bytes();
            }
        }
    };
    add_side(fwd_, plan_src_);
    add_side(bwd_, plan_dst_);
    return bytes;
}

ErrorFeedbackCompressor::Slot& ErrorFeedbackCompressor::slot(
    std::vector<std::vector<Slot>>& side, std::size_t plan_idx, int layer) {
    SCGNN_CHECK(plan_idx < side.size(), "plan index out of range (setup?)");
    auto& per_plan = side[plan_idx];
    const auto li = static_cast<std::size_t>(layer < 0 ? 0 : layer);
    if (per_plan.size() <= li) per_plan.resize(li + 1);
    return per_plan[li];
}

std::uint64_t ErrorFeedbackCompressor::ship(
    std::vector<std::vector<Slot>>& side, const DistContext& ctx,
    std::size_t plan_idx, int layer, bool backward, const ExchangeRows& rows,
    const Matrix& src, Matrix& out) {
    rows.check_payload(src);
    const std::size_t full_rows = ctx.plans()[plan_idx].num_rows();
    const std::size_t n = rows.size();
    const std::size_t f = src.cols();
    Slot& s = slot(side, plan_idx, layer);

    // payload[i] = src[i] + the carried residual of plan row rows[i]. The
    // slot keeps the full plan shape, so rows a request did not ask for
    // hold their backlog until some later request does.
    payload_.reshape_zero(n, f);
    const bool carry =
        s.has_prev && s.prev.rows() == full_rows && s.prev.cols() == f;
    for (std::size_t i = 0; i < n; ++i) {
        const auto sr = src.row(i);
        auto pr = payload_.row(i);
        std::copy(sr.begin(), sr.end(), pr.begin());
        if (carry) {
            const auto rr = s.prev.row(rows[i]);
            for (std::size_t c = 0; c < f; ++c) pr[c] += rr[c];
        }
    }

    std::uint64_t bytes =
        inner_->exchange(ctx, plan_idx, layer, backward, rows, payload_, out);

    // residual_next = payload − out, plus the resync rule: a row whose
    // pending residual outgrew flush_threshold × its payload norm is
    // delivered verbatim and its backlog cleared — for projection-style
    // inner stages this is the only route the accumulated correction can
    // take to the receiver (see the file comment in error_feedback.hpp).
    // The rule spends at most ⌈fidelity · eligible⌉ rows per exchange,
    // worst violators first, so flush traffic scales with the schedule's
    // wire budget instead of silently eating the savings.
    //
    // The first touch in an epoch starts a zeroed full-shape pending
    // residual; later exchanges overwrite only the rows they ship (last
    // write wins, matching the carry-in those rows actually saw). A
    // full exchange ships every row, so it overwrites all of them.
    if (!s.has_next || s.next.rows() != full_rows || s.next.cols() != f)
        s.next.reshape_zero(full_rows, f);
    const double theta = cfg_.flush_threshold;
    const double theta2 = theta > 0.0 ? theta * theta : -1.0;
    row_sq_residual_.resize(n);
    flush_candidates_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto pr = payload_.row(i);
        const auto orow = out.row(i);
        auto nr = s.next.row(rows[i]);
        double sq_r = 0.0, sq_p = 0.0;
        for (std::size_t c = 0; c < f; ++c) {
            const float d = pr[c] - orow[c];
            nr[c] = d;
            sq_r += static_cast<double>(d) * d;
            sq_p += static_cast<double>(pr[c]) * pr[c];
        }
        row_sq_residual_[i] = sq_r;
        if (theta2 >= 0.0 && sq_r > theta2 * sq_p) {
            const double ratio = sq_p > 0.0
                                     ? sq_r / sq_p
                                     : std::numeric_limits<double>::infinity();
            flush_candidates_.emplace_back(ratio,
                                           static_cast<std::uint32_t>(i));
        }
    }
    const auto budget = static_cast<std::size_t>(
        std::ceil(rate_ * static_cast<double>(flush_candidates_.size())));
    if (budget < flush_candidates_.size()) {
        // Deterministic pick: largest violation ratio first, row index
        // breaking ties.
        std::partial_sort(flush_candidates_.begin(),
                          flush_candidates_.begin() +
                              static_cast<std::ptrdiff_t>(budget),
                          flush_candidates_.end(),
                          [](const auto& a, const auto& b) {
                              if (a.first != b.first) return a.first > b.first;
                              return a.second < b.second;
                          });
        flush_candidates_.resize(budget);
    }
    for (const auto& [ratio, i] : flush_candidates_) {
        const auto sr = src.row(i);
        auto orow = out.row(i);
        auto nr = s.next.row(rows[i]);
        std::copy(sr.begin(), sr.end(), orow.begin());
        std::fill(nr.begin(), nr.end(), 0.0f);
        row_sq_residual_[i] = 0.0;
    }
    const std::uint64_t flushed = flush_candidates_.size();
    double sum_sq_r = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum_sq_r += row_sq_residual_[i];
    s.has_next = true;
    epoch_sq_residual_ += sum_sq_r;
    if (flushed > 0) {
        // A resync row is charged once, in either mode.
        const std::uint64_t extra = flushed * f * sizeof(float);
        bytes += extra;
        recovered_rows_ += flushed;
        recovered_bytes_ += extra;
    }
    if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.gauge("ef.residual_norm").set(std::sqrt(epoch_sq_residual_));
        if (flushed > 0)
            reg.counter("ef.bytes_recovered").add(flushed * f * sizeof(float));
    }
    return bytes;
}

std::uint64_t ErrorFeedbackCompressor::forward_rows(const DistContext& ctx,
                                                    std::size_t plan_idx,
                                                    int layer,
                                                    const Matrix& src,
                                                    Matrix& out) {
    return ship(fwd_, ctx, plan_idx, layer, /*backward=*/false,
                ExchangeRows::all(ctx, plan_idx), src, out);
}

std::uint64_t ErrorFeedbackCompressor::backward_rows(const DistContext& ctx,
                                                     std::size_t plan_idx,
                                                     int layer,
                                                     const Matrix& grad_in,
                                                     Matrix& grad_out) {
    return ship(bwd_, ctx, plan_idx, layer, /*backward=*/true,
                ExchangeRows::all(ctx, plan_idx), grad_in, grad_out);
}

std::uint64_t ErrorFeedbackCompressor::forward_subset(
    const DistContext& ctx, std::size_t plan_idx, int layer,
    std::span<const std::uint32_t> rows, const Matrix& src, Matrix& out) {
    return ship(fwd_, ctx, plan_idx, layer, /*backward=*/false,
                ExchangeRows::request(ctx, plan_idx, rows), src, out);
}

std::uint64_t ErrorFeedbackCompressor::backward_subset(
    const DistContext& ctx, std::size_t plan_idx, int layer,
    std::span<const std::uint32_t> rows, const Matrix& grad_in,
    Matrix& grad_out) {
    return ship(bwd_, ctx, plan_idx, layer, /*backward=*/true,
                ExchangeRows::request(ctx, plan_idx, rows), grad_in,
                grad_out);
}

double ErrorFeedbackCompressor::epoch_residual_norm() const {
    return std::sqrt(epoch_sq_residual_);
}

const Matrix* ErrorFeedbackCompressor::pending_residual(
    bool backward, std::size_t plan_idx, std::size_t layer) const {
    const auto& side = backward ? bwd_ : fwd_;
    if (plan_idx >= side.size() || layer >= side[plan_idx].size())
        return nullptr;
    const Slot& s = side[plan_idx][layer];
    return s.has_next ? &s.next : nullptr;
}

} // namespace scgnn::dist
