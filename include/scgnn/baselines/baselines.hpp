#pragma once
/// \file baselines.hpp
/// \brief The three SOTA traffic-reduction baselines the paper compares
///        against (Fig. 1(a)): boundary-node sampling (BNS-GCN [16]),
///        quantification (AdaQP [15]) and delayed transmission
///        (Dorylus/DistGNN [12, 8]). Each decays individual connections
///        along one dimension — existence, bit-width, or timing — which is
///        precisely the per-edge Pareto frontier SC-GNN breaks.

#include <cstdint>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/dist/compressor.hpp"

namespace scgnn::baselines {

/// Boundary-node sampling configuration.
struct SamplingConfig {
    double rate = 0.1;        ///< fraction of boundary nodes kept per epoch
    std::uint64_t seed = 7;   ///< per-epoch sampling stream
};

/// BNS-GCN-style sampling: each epoch keeps a random `rate` fraction of
/// every plan's boundary nodes, rescales the survivors by 1/rate (unbiased
/// aggregation in expectation) and drops the rest. The same per-epoch mask
/// is used by every layer and by the gradient exchange, as in BNS-GCN.
/// The per-epoch mask rebuild is performed honestly — it is the "recreate a
/// new adjacency matrix each round" overhead §5.2 attributes to sampling.
/// A request ships the requested rows the plan's mask keeps, one wire row
/// each; a full exchange pays for a kept row once per cross edge.
class SamplingCompressor final : public dist::BoundaryCompressor {
public:
    explicit SamplingCompressor(SamplingConfig config = {});

    [[nodiscard]] std::string name() const override { return "sampling"; }
    void setup(const dist::DistContext& ctx) override;
    void begin_epoch(std::uint64_t epoch) override;

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return ship(ctx, plan_idx, dist::ExchangeRows::all(ctx, plan_idx),
                    src, out);
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return ship(ctx, plan_idx, dist::ExchangeRows::all(ctx, plan_idx),
                    grad_in, grad_out);
    }
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override {
        return ship(ctx, plan_idx,
                    dist::ExchangeRows::request(ctx, plan_idx, rows), src, out);
    }
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override {
        return ship(ctx, plan_idx,
                    dist::ExchangeRows::request(ctx, plan_idx, rows), grad_in,
                    grad_out);
    }

    /// Scale the keep rate to `fidelity` × the configured base rate
    /// (floored at 1e-3 so some boundary rows always survive). fidelity 1
    /// restores the base rate exactly; the next epoch's masks use the new
    /// rate.
    void apply_rate(double fidelity) override;

    /// The configured base rate.
    [[nodiscard]] double rate() const noexcept { return cfg_.rate; }

private:
    /// Plan `plan_idx`'s row mask of the current epoch (one keep flag per
    /// plan row, built lazily per epoch).
    const std::vector<char>& mask_for(const dist::DistContext& ctx,
                                      std::size_t plan_idx);
    /// The one exchange body: both directions keep the masked rows.
    std::uint64_t ship(const dist::DistContext& ctx, std::size_t plan_idx,
                       const dist::ExchangeRows& rows,
                       const tensor::Matrix& in, tensor::Matrix& out);

    SamplingConfig cfg_;
    double rate_eff_;  ///< rate after the schedule's fidelity scaling
    Rng rng_;
    std::uint64_t epoch_ = 0;
    std::vector<std::vector<char>> masks_;
    std::vector<std::uint64_t> mask_epoch_;  ///< epoch+1 each mask was built for
};

/// Quantification configuration.
struct QuantConfig {
    int bits = 8;  ///< 4, 8 or 16
};

/// AdaQP-style per-tensor quantisation: every exchanged row block is packed
/// to `bits`-bit codes on the sender and dequantised on the receiver, for
/// both embeddings and gradients. The pack/unpack cost is real compute and
/// shows up in the measured epoch time (the torch.quantize_per_tensor
/// overhead §5.2 describes). A request quantises the requested rows as
/// one tensor and costs rows·f·bits/8 bytes plus the affine parameters.
class QuantCompressor final : public dist::BoundaryCompressor {
public:
    explicit QuantCompressor(QuantConfig config = {});

    [[nodiscard]] std::string name() const override { return "quant"; }

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return roundtrip(dist::ExchangeRows::all(ctx, plan_idx), src, out);
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return roundtrip(dist::ExchangeRows::all(ctx, plan_idx), grad_in,
                         grad_out);
    }
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override {
        return roundtrip(dist::ExchangeRows::request(ctx, plan_idx, rows), src,
                         out);
    }
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override {
        return roundtrip(dist::ExchangeRows::request(ctx, plan_idx, rows),
                         grad_in, grad_out);
    }

    /// Snap to the widest supported width not above `fidelity` × the base
    /// bit budget: the smallest of {4, 8, 16} that is ≥ fidelity · bits,
    /// clamped to the configured base (fidelity 1 restores it exactly).
    void apply_rate(double fidelity) override;

    /// The configured base bit-width.
    [[nodiscard]] int bits() const noexcept { return cfg_.bits; }

private:
    /// The one exchange body: quantise `in` and dequantise it into `out`.
    [[nodiscard]] std::uint64_t roundtrip(const dist::ExchangeRows& rows,
                                          const tensor::Matrix& in,
                                          tensor::Matrix& out) const;

    QuantConfig cfg_;
    int bits_eff_;  ///< bit-width after the schedule's fidelity scaling
};

/// Delayed-transmission configuration.
struct DelayConfig {
    std::uint32_t period = 4;  ///< transmit every `period`-th epoch (τ)
};

/// Dorylus-style delayed transmission: boundary rows actually cross the
/// wire only on epochs divisible by τ; in between, receivers aggregate the
/// cached (stale) copy and gradients reuse the cached reverse message. The
/// cache read/write churn is real memory traffic and is measured as
/// compute (the memory-wall behaviour §5.2 describes). The cache holds a
/// plan's full row block, which a per-batch request never produces, so
/// delay has no request path: its request methods throw, and sample-train
/// rejects a stack that contains it.
class DelayCompressor final : public dist::BoundaryCompressor {
public:
    explicit DelayCompressor(DelayConfig config = {});

    [[nodiscard]] std::string name() const override { return "delay"; }
    void setup(const dist::DistContext& ctx) override;
    void begin_epoch(std::uint64_t epoch) override;

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return ship(fwd_cache_, ctx, plan_idx, layer, src, out);
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return ship(bwd_cache_, ctx, plan_idx, layer, grad_in, grad_out);
    }
    /// Throws: delay has no request semantics.
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override;
    /// Throws: delay has no request semantics.
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override;

    /// The staleness period τ in force.
    [[nodiscard]] std::uint32_t period() const noexcept { return cfg_.period; }

private:
    [[nodiscard]] bool transmit_epoch() const noexcept {
        return epoch_ % cfg_.period == 0;
    }
    /// The one exchange body: transmit and cache on a transmit epoch (or
    /// a cold cache), else replay the cached block for free.
    std::uint64_t ship(std::vector<tensor::Matrix>& caches,
                       const dist::DistContext& ctx, std::size_t plan_idx,
                       int layer, const tensor::Matrix& in,
                       tensor::Matrix& out);
    static constexpr int kMaxLayers = 8;

    DelayConfig cfg_;
    std::uint64_t epoch_ = 0;
    std::vector<tensor::Matrix> fwd_cache_;  ///< [plan × layer]
    std::vector<tensor::Matrix> bwd_cache_;  ///< [plan × layer]
};

} // namespace scgnn::baselines
