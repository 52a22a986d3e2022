#pragma once
/// \file compressor.hpp
/// \brief The pluggable boundary-exchange interface every traffic-reduction
///        method implements — vanilla, the three SOTA baselines (sampling,
///        quantification, delay) and SC-GNN's semantic compression.
///
/// The distributed trainer moves boundary rows between partitions through
/// this interface. For each exchange plan (ordered partition pair) and each
/// aggregation step, the trainer gathers the source rows, hands them to the
/// compressor, scatters the reconstructed rows into the receiver's halo
/// block, and charges the returned wire bytes to the fabric. Gradients
/// travel the reverse route through backward_rows(), so embeddings and
/// gradients are compressed symmetrically, as in the paper. The sampled
/// trainer ships per-batch halo requests through forward_subset() /
/// backward_subset() instead.
///
/// Each method keeps one exchange body over an ExchangeRows view; the four
/// virtuals are one-line forwards into it, so the full-graph and request
/// paths cannot drift apart. A method's exchange scratch is its own plain
/// member: exchanges run serially in plan order, and a warm compressor
/// allocates nothing per exchange.

#include <cstdint>
#include <span>
#include <string>

#include "scgnn/dist/context.hpp"
#include "scgnn/tensor/matrix.hpp"

namespace scgnn::tensor {
class Workspace;  // named only by the no-op set_workspace below
}

namespace scgnn::dist {

/// The rows one exchange ships, and how a verbatim row is priced. A
/// full-graph exchange ships every plan row and pays for a row once per
/// cross edge it feeds; a neighbor-sampled request ships the plan rows
/// a batch asked for and pays for each once. Every compressor runs one
/// exchange body over this view, whichever of the two it is handed.
class ExchangeRows {
public:
    /// Every row of plan `plan_idx`: payload row i is plan row i.
    [[nodiscard]] static ExchangeRows all(const DistContext& ctx,
                                          std::size_t plan_idx);

    /// A request: ascending unique plan rows of plan `plan_idx`, payload
    /// row i is plan row rows[i]. Throws on a row out of range or order.
    [[nodiscard]] static ExchangeRows request(
        const DistContext& ctx, std::size_t plan_idx,
        std::span<const std::uint32_t> rows);

    [[nodiscard]] bool is_request() const noexcept { return request_; }

    /// Payload rows shipped.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// The plan row behind payload row i.
    [[nodiscard]] std::uint32_t operator[](std::size_t i) const noexcept {
        return request_ ? rows_[i] : static_cast<std::uint32_t>(i);
    }

    /// Wire rows payload row i costs when shipped verbatim: its cross
    /// edges in a full exchange, one in a request.
    [[nodiscard]] std::uint64_t cost(std::size_t i) const {
        if (request_) return 1;
        return plan_->dbg.out_degree(static_cast<std::uint32_t>(i));
    }

    /// Wire rows of shipping every payload row verbatim (Σ cost).
    [[nodiscard]] std::uint64_t verbatim_rows() const noexcept {
        return request_ ? size_ : plan_->num_edges();
    }

    /// The requested plan rows; empty for a full exchange.
    [[nodiscard]] std::span<const std::uint32_t> requested() const noexcept {
        return rows_;
    }

    /// Throws unless `payload` has one row per shipped row.
    void check_payload(const tensor::Matrix& payload) const;

private:
    ExchangeRows(const PairPlan& plan, std::span<const std::uint32_t> rows,
                 std::size_t size, bool request)
        : plan_(&plan), rows_(rows), size_(size), request_(request) {}

    const PairPlan* plan_;
    std::span<const std::uint32_t> rows_;
    std::size_t size_;
    bool request_;
};

/// Interface of a cross-partition traffic-reduction method.
class BoundaryCompressor {
public:
    virtual ~BoundaryCompressor() = default;

    /// Method name for tables ("vanilla", "sampling", "ours", ...).
    [[nodiscard]] virtual std::string name() const = 0;

    /// Called once per training run, after plans exist. Precompute static
    /// structures here (semantic groups, sampling tables, caches).
    virtual void setup(const DistContext& ctx) { (void)ctx; }

    /// Called at the start of every epoch (epoch is 0-based). Per-epoch
    /// randomness (boundary re-sampling) and delay counters live here.
    virtual void begin_epoch(std::uint64_t epoch) { (void)epoch; }

    /// No-op kept for source compatibility: every compressor owns its
    /// exchange scratch, and nothing calls this.
    virtual void set_workspace(tensor::Workspace* ws) { (void)ws; }

    /// Scale the method's aggressiveness to `fidelity` ∈ (0, 1] of its
    /// configured base rate (1 = the base configuration, smaller = more
    /// compression). Called by the trainer between epochs when a rate
    /// schedule is active (dist/rate_control.hpp); each method maps the
    /// fidelity onto its own knob (semantic ⇒ group count, quant ⇒ bit
    /// width, sampling ⇒ keep rate). Default: rate-oblivious no-op.
    virtual void apply_rate(double fidelity) { (void)fidelity; }

    /// Resident per-partition compressor state in bytes — what an elastic
    /// membership transition must migrate alongside partition `part`'s
    /// rows (error-feedback residuals, delay caches, ...). Stateless
    /// methods keep the zero default.
    [[nodiscard]] virtual std::uint64_t state_bytes(std::uint32_t part) const {
        (void)part;
        return 0;
    }

    /// Forward exchange for plan `plan_idx` at aggregation step `layer`.
    /// `src` holds the true boundary rows (plan.num_rows() × f, row i =
    /// plan.dbg.src_nodes[i]); the implementation writes the rows as they
    /// will appear at the receiver into `out` (same shape) and returns the
    /// bytes that crossed the wire (per-edge model for unicast methods).
    [[nodiscard]] virtual std::uint64_t forward_rows(const DistContext& ctx,
                                                     std::size_t plan_idx,
                                                     int layer,
                                                     const tensor::Matrix& src,
                                                     tensor::Matrix& out) = 0;

    /// Backward exchange for the same plan: `grad_in` holds the receiver's
    /// gradients w.r.t. the *reconstructed* rows; the implementation writes
    /// the gradients w.r.t. the true source rows into `grad_out` and
    /// returns the wire bytes of the reverse transfer.
    [[nodiscard]] virtual std::uint64_t backward_rows(
        const DistContext& ctx, std::size_t plan_idx, int layer,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) = 0;

    /// Request-driven forward exchange over a *subset* of the plan's rows —
    /// the per-batch halo request of neighbor-sampled training. `rows`
    /// holds ascending unique plan-row indices (each < plan.num_rows());
    /// `src` is subset-shaped (rows.size() × f, src row i = plan row
    /// rows[i]) and the reconstructions come back subset-shaped in `out`.
    /// The request model prices each row it ships once, not once per
    /// cross edge (ExchangeRows). A method with no request semantics
    /// throws.
    [[nodiscard]] virtual std::uint64_t forward_subset(
        const DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) = 0;

    /// Adjoint of forward_subset: `grad_in` holds the consumer-side
    /// gradients w.r.t. the reconstructed subset rows; the gradients
    /// w.r.t. the true source rows come back in `grad_out` (both
    /// subset-shaped).
    [[nodiscard]] virtual std::uint64_t backward_subset(
        const DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) = 0;

    /// One exchange of `rows` in either direction, routed to the matching
    /// virtual above: how a wrapping stage (error feedback, composition)
    /// drives its inner stages from its own single body.
    [[nodiscard]] std::uint64_t exchange(const DistContext& ctx,
                                         std::size_t plan_idx, int layer,
                                         bool backward,
                                         const ExchangeRows& rows,
                                         const tensor::Matrix& in,
                                         tensor::Matrix& out);
};

/// The uncompressed reference: ships every boundary row verbatim and costs
/// one row per cross edge (Fig. 7(a)'s per-connection transmission), or
/// one per requested row.
class VanillaExchange final : public BoundaryCompressor {
public:
    [[nodiscard]] std::string name() const override { return "vanilla"; }

    [[nodiscard]] std::uint64_t forward_rows(const DistContext& ctx,
                                             std::size_t plan_idx, int,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return ship(ExchangeRows::all(ctx, plan_idx), src, out);
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const DistContext& ctx, std::size_t plan_idx, int,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return ship(ExchangeRows::all(ctx, plan_idx), grad_in, grad_out);
    }
    [[nodiscard]] std::uint64_t forward_subset(
        const DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override {
        return ship(ExchangeRows::request(ctx, plan_idx, rows), src, out);
    }
    [[nodiscard]] std::uint64_t backward_subset(
        const DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override {
        return ship(ExchangeRows::request(ctx, plan_idx, rows), grad_in,
                    grad_out);
    }

private:
    /// The one body: both directions copy `in` through unchanged.
    static std::uint64_t ship(const ExchangeRows& rows,
                              const tensor::Matrix& in, tensor::Matrix& out);
};

} // namespace scgnn::dist
