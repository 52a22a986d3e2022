#include "scgnn/dist/compressor.hpp"

namespace scgnn::dist {

ExchangeRows ExchangeRows::all(const DistContext& ctx, std::size_t plan_idx) {
    SCGNN_CHECK(plan_idx < ctx.plans().size(), "plan index out of range");
    const PairPlan& plan = ctx.plans()[plan_idx];
    return {plan, {}, plan.num_rows(), false};
}

ExchangeRows ExchangeRows::request(const DistContext& ctx,
                                   std::size_t plan_idx,
                                   std::span<const std::uint32_t> rows) {
    SCGNN_CHECK(plan_idx < ctx.plans().size(), "plan index out of range");
    const PairPlan& plan = ctx.plans()[plan_idx];
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCGNN_CHECK(rows[i] < plan.num_rows(), "subset row out of plan range");
        if (i > 0) SCGNN_CHECK(rows[i] > rows[i - 1], "subset rows must ascend");
    }
    return {plan, rows, rows.size(), true};
}

void ExchangeRows::check_payload(const tensor::Matrix& payload) const {
    SCGNN_CHECK(payload.rows() == size_, "payload row count mismatch");
}

std::uint64_t BoundaryCompressor::exchange(const DistContext& ctx,
                                           std::size_t plan_idx, int layer,
                                           bool backward,
                                           const ExchangeRows& rows,
                                           const tensor::Matrix& in,
                                           tensor::Matrix& out) {
    if (rows.is_request())
        return backward ? backward_subset(ctx, plan_idx, layer,
                                          rows.requested(), in, out)
                        : forward_subset(ctx, plan_idx, layer,
                                         rows.requested(), in, out);
    return backward ? backward_rows(ctx, plan_idx, layer, in, out)
                    : forward_rows(ctx, plan_idx, layer, in, out);
}

std::uint64_t VanillaExchange::ship(const ExchangeRows& rows,
                                    const tensor::Matrix& in,
                                    tensor::Matrix& out) {
    rows.check_payload(in);
    out = in;
    return rows.verbatim_rows() * in.cols() * sizeof(float);
}

} // namespace scgnn::dist
