#pragma once
/// \file error_feedback.hpp
/// \brief Error-feedback wrapper around any BoundaryCompressor
///        (DESIGN.md §12): accumulate what compression discarded into a
///        per-(plan, layer, direction) residual and fold it into the next
///        epoch's payload, the residual-accumulation idiom of mxnet's
///        2-bit gradient compression that keeps lossy exchanges
///        convergence-safe.
///
/// Every exchange becomes
///     payload = src + residual_prev
///     out     = inner(payload)
///     residual_next = payload − out
/// so the information a lossy inner stage drops is re-offered next epoch
/// instead of being lost. For value-quantising stages (quant) the residual
/// is the classic sub-quantisation error. For *projection* stages like the
/// semantic fuse (out = P·payload with P² = P) plain error feedback is
/// inert — P annihilates the residual it just created — so the wrapper
/// adds a *resync* rule: any row whose pending residual has grown past
/// `flush_threshold` × its payload norm is delivered verbatim (the true
/// current row), its residual cleared, and the extra row charged to the
/// wire. That bounds the residual, makes the correction actually reach the
/// receiver, and costs nothing while the inner stage tracks its input
/// well.
///
/// Resyncs obey the rate schedule too: at fidelity φ each exchange flushes
/// only the ⌈φ·E⌉ worst offenders of its E above-threshold rows (worst =
/// largest residual-to-payload ratio, row index breaking ties), so
/// cranking the inner stage down cannot silently convert wire savings into
/// verbatim flush traffic — a row over budget keeps accumulating its
/// correction in the residual and competes again next epoch. φ = 1 covers
/// every eligible row, the pre-scheduling behaviour.
///
/// The residual is double-buffered: exchanges of epoch e read the frozen
/// epoch-(e−1) residual and write a pending one that begin_epoch(e+1)
/// swaps in. Repeated identical exchanges within one epoch therefore
/// return identical results (the compressor-contract determinism
/// invariant), and for a lossless inner stack the residual is exactly
/// zero forever.
///
/// Composes through the factory as a name prefix: "ef+ours",
/// "ef+ours+quant", … (dist/factory.hpp).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "scgnn/dist/compressor.hpp"

namespace scgnn::dist {

/// Error-feedback configuration.
struct ErrorFeedbackConfig {
    /// Resync a row once ‖residual_pending‖ exceeds this fraction of its
    /// payload norm; ≤ 0 disables resyncing (pure textbook EF).
    double flush_threshold = 0.5;
};

/// Wraps an inner compressor with residual accumulation. Owns the inner
/// stage; name() is "ef+" + inner name.
class ErrorFeedbackCompressor final : public BoundaryCompressor {
public:
    explicit ErrorFeedbackCompressor(
        std::unique_ptr<BoundaryCompressor> inner,
        ErrorFeedbackConfig config = {});

    [[nodiscard]] std::string name() const override;
    void setup(const DistContext& ctx) override;
    /// Swaps the pending residuals in (they become the epoch's carry-in),
    /// resets the per-epoch drift accumulators, forwards to the inner
    /// stage.
    void begin_epoch(std::uint64_t epoch) override;
    /// Forwards to the inner stage and scales the per-exchange resync
    /// budget to ⌈fidelity · eligible⌉ rows.
    void apply_rate(double fidelity) override;

    /// Bytes of carried residual homed on `part`: forward residuals live
    /// with the plan's sender, backward residuals with the gradient
    /// sender (the plan's receiver) — what a membership transition must
    /// ship when the partition changes devices. Includes the inner
    /// stage's own state.
    [[nodiscard]] std::uint64_t state_bytes(std::uint32_t part) const override;

    [[nodiscard]] std::uint64_t forward_rows(const DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override;
    [[nodiscard]] std::uint64_t backward_rows(
        const DistContext& ctx, std::size_t plan_idx, int layer,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override;

    /// Request-driven subset exchange: the residual slot stays at the full
    /// plan shape (rows the batch did not request keep their backlog for a
    /// later request), the carry-in/residual-update/resync rules apply to
    /// the requested rows only, and the inner stage runs its own request
    /// transform. A resync row is charged f·4 bytes in either mode.
    [[nodiscard]] std::uint64_t forward_subset(
        const DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override;
    [[nodiscard]] std::uint64_t backward_subset(
        const DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override;

    /// Frobenius norm of every pending residual written this epoch — the
    /// still-undelivered error after resyncs took their share.
    [[nodiscard]] double epoch_residual_norm() const;

    /// Rows delivered verbatim by the resync rule so far (cumulative).
    [[nodiscard]] std::uint64_t recovered_rows() const noexcept {
        return recovered_rows_;
    }

    /// Extra wire bytes those resyncs cost (cumulative) — the
    /// `ef.bytes_recovered` ledger counter.
    [[nodiscard]] std::uint64_t recovered_bytes() const noexcept {
        return recovered_bytes_;
    }

    /// The residual pending for the next epoch (written by this epoch's
    /// exchanges); null before the first exchange touched the slot.
    [[nodiscard]] const tensor::Matrix* pending_residual(
        bool backward, std::size_t plan_idx, std::size_t layer) const;

    /// The inner stage (for tests).
    [[nodiscard]] BoundaryCompressor& inner() noexcept { return *inner_; }

    [[nodiscard]] const ErrorFeedbackConfig& config() const noexcept {
        return cfg_;
    }

private:
    /// Double-buffered residual of one (plan, layer, direction):
    /// `prev` is the epoch's frozen carry-in, `next` the pending write.
    struct Slot {
        tensor::Matrix prev;
        tensor::Matrix next;
        bool has_prev = false;
        bool has_next = false;
    };

    [[nodiscard]] Slot& slot(std::vector<std::vector<Slot>>& side,
                             std::size_t plan_idx, int layer);
    /// The one exchange body behind all four virtuals.
    std::uint64_t ship(std::vector<std::vector<Slot>>& side,
                       const DistContext& ctx, std::size_t plan_idx,
                       int layer, bool backward, const ExchangeRows& rows,
                       const tensor::Matrix& src, tensor::Matrix& out);

    std::unique_ptr<BoundaryCompressor> inner_;
    ErrorFeedbackConfig cfg_;
    double rate_ = 1.0;       ///< fidelity last applied (resync budget)
    std::vector<std::vector<Slot>> fwd_;  ///< [plan][layer]
    std::vector<std::vector<Slot>> bwd_;  ///< [plan][layer]
    std::vector<std::uint32_t> plan_src_;  ///< plan → sending partition
    std::vector<std::uint32_t> plan_dst_;  ///< plan → receiving partition
    // Exchange scratch, reused so the serial exchange path stays
    // allocation-free in steady state: the payload handed to the inner
    // stage, per-row squared residuals and the (violation ratio, row)
    // list the resync budget is drawn from.
    tensor::Matrix payload_;
    std::vector<double> row_sq_residual_;
    std::vector<std::pair<double, std::uint32_t>> flush_candidates_;
    // Squared norm of this epoch's undelivered residual (reset by
    // begin_epoch).
    double epoch_sq_residual_ = 0.0;
    // Cumulative resync telemetry.
    std::uint64_t recovered_rows_ = 0;
    std::uint64_t recovered_bytes_ = 0;
};

} // namespace scgnn::dist
