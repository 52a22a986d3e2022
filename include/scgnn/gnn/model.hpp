#pragma once
/// \file model.hpp
/// \brief Deep GNN models (GCN and GraphSAGE-mean) of configurable depth
///        with hand-derived forward/backward passes.
///
/// The aggregation step Â·H is *injected* through the Aggregator interface:
/// the single-device trainer passes plain SpMM; the distributed trainer
/// passes an implementation that performs the (possibly compressed)
/// cross-partition halo exchange. This is exactly the hook the paper's
/// Fig. 8 framework replaces with semantic compression. An L-layer model
/// performs L forward exchanges and L−1 backward (gradient) exchanges per
/// epoch — the layer-0 backward has no trainable ancestors and is skipped,
/// as real systems do.

#include <cstdint>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/tensor/matrix.hpp"

namespace scgnn::gnn {

/// The aggregation oracle a model runs on.
///
/// `layer` identifies which aggregation of the epoch this is (0-based, in
/// forward order); implementations that cache per-layer state (delay,
/// SC-GNN groups) key on it.
class Aggregator {
public:
    virtual ~Aggregator() = default;

    /// Forward aggregation out = Â·h for aggregation step `layer`, into a
    /// caller-reused destination. Implementations write `out` in place
    /// (reshape_zero + fill), which keeps the model's steady-state epochs
    /// allocation-free.
    virtual void forward_into(const tensor::Matrix& h, int layer,
                              tensor::Matrix& out) = 0;

    /// Backward aggregation out = Âᵀ·g for aggregation step `layer`.
    virtual void backward_into(const tensor::Matrix& g, int layer,
                               tensor::Matrix& out) = 0;

    /// forward_into() a fresh matrix.
    [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& h, int layer) {
        tensor::Matrix out;
        forward_into(h, layer, out);
        return out;
    }

    /// backward_into() a fresh matrix.
    [[nodiscard]] tensor::Matrix backward(const tensor::Matrix& g, int layer) {
        tensor::Matrix out;
        backward_into(g, layer, out);
        return out;
    }
};

/// Which convolution the model uses.
enum class LayerKind : std::uint8_t {
    kGcn,   ///< Z = (ÂH)W + b, Â symmetric-normalised
    kSage,  ///< Z = H·W_self + (ÂH)·W_neigh + b, Â row-mean
    kGin,   ///< Z = ((1+ε)H + AH)·W + b, A = raw sum aggregation (AdjNorm::kSum)
};

/// Model hyper-parameters.
struct GnnConfig {
    std::uint32_t in_dim = 32;
    std::uint32_t hidden_dim = 64;
    std::uint32_t out_dim = 4;
    std::uint32_t num_layers = 2;  ///< ≥ 1; hidden layers use ReLU
    LayerKind kind = LayerKind::kGcn;
    float gin_eps = 0.0f;    ///< the ε of GIN's (1+ε) self term (GIN-0 default)
    float dropout = 0.0f;    ///< inverted dropout on hidden activations,
                             ///< applied only while training() is true
    std::uint64_t seed = 1;  ///< weight-init seed (also drives dropout)
};

/// An L-layer GNN: layers 0..L−2 map to hidden_dim with ReLU, the last
/// layer maps to out_dim (logits). forward() caches the intermediates
/// backward() needs; backward() accumulates into the gradient tensors
/// returned by gradients().
class GnnModel {
public:
    /// Construct with Glorot-initialised weights (deterministic by seed).
    explicit GnnModel(const GnnConfig& config);

    /// The configuration this model was built with.
    [[nodiscard]] const GnnConfig& config() const noexcept { return cfg_; }

    /// Full forward pass: x is (nodes × in_dim); returns logits
    /// (nodes × out_dim). Caches activations for backward().
    [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& x,
                                         Aggregator& agg);

    /// forward() returning a reference to the cached logits instead of a
    /// copy — the allocation-free path the trainers read the loss from.
    /// Valid until the next forward/backward on this model.
    [[nodiscard]] const tensor::Matrix& forward_ref(const tensor::Matrix& x,
                                                    Aggregator& agg);

    /// Backward pass from d(loss)/d(logits). Must follow a forward() on the
    /// same aggregator/x. Accumulates into the gradient tensors (call
    /// zero_grad() between steps).
    void backward(const tensor::Matrix& dlogits, Aggregator& agg);

    /// All trainable parameters (stable order, paired with gradients()).
    [[nodiscard]] const std::vector<tensor::Matrix*>& parameters();

    /// Gradients parallel to parameters().
    [[nodiscard]] const std::vector<tensor::Matrix*>& gradients();

    /// Zero every gradient tensor.
    void zero_grad();

    /// Reused buffer for d(loss)/d(logits), which run_epoch() fills and
    /// passes to backward(); owned here so warm epochs allocate nothing.
    [[nodiscard]] tensor::Matrix& loss_grad() noexcept { return dlogits_; }

    /// Reused per-row loss terms that run_epoch() passes to
    /// tensor::softmax_cross_entropy(), owned here for the same reason.
    [[nodiscard]] std::vector<double>& loss_terms() noexcept {
        return loss_terms_;
    }

    /// Number of aggregation steps one forward pass performs (== layers).
    [[nodiscard]] int num_aggregations() const noexcept {
        return static_cast<int>(cfg_.num_layers);
    }

    /// Toggle training mode. Dropout is active only while training; the
    /// trainers flip this around the epoch loop and evaluation.
    void set_training(bool training) noexcept { training_ = training; }

    /// True while in training mode.
    [[nodiscard]] bool training() const noexcept { return training_; }

private:
    /// One convolution layer's parameters and gradients.
    struct Layer {
        tensor::Matrix w;       ///< neighbour weight (in × out)
        tensor::Matrix w_self;  ///< self weight, SAGE only
        tensor::Matrix b;       ///< bias row (1 × out)
        tensor::Matrix gw, gw_self, gb;
    };

    GnnConfig cfg_;
    std::vector<Layer> layers_;

    // Cached activations from the last forward(): per layer i the input
    // h_[i], its aggregation a_[i] = Â·h_[i], and the pre-activation z_[i].
    // mask_[i] holds the inverted-dropout multipliers applied after layer
    // i's ReLU (empty when dropout was inactive).
    std::vector<tensor::Matrix> h_, a_, z_, mask_;
    // Reused scratch: dz_/dcomb_/dh_ carry the backward chain, gtmp_ and
    // btmp_ hold weight/bias gradient terms before the += accumulation
    // (preserving the temp-then-add rounding of the historical kernels).
    // Capacity converges to the largest shape after one epoch, making
    // steady-state epochs allocation-free.
    tensor::Matrix dz_, dcomb_, dh_, gtmp_, btmp_;
    tensor::Matrix dlogits_;           ///< loss_grad()
    std::vector<double> loss_terms_;   ///< loss_terms()
    // parameters()/gradients() views, built once (layers_ never resizes).
    std::vector<tensor::Matrix*> params_, grads_;
    bool have_cache_ = false;
    bool training_ = false;
    Rng dropout_rng_;
};

} // namespace scgnn::gnn
