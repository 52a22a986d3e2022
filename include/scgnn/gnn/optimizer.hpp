#pragma once
/// \file optimizer.hpp
/// \brief Adam optimiser (the optimiser BNS-GCN's setup, which the paper
///        inherits, trains with).

#include <cstdint>
#include <vector>

#include "scgnn/tensor/matrix.hpp"

namespace scgnn::gnn {

/// Adam hyper-parameters.
struct AdamConfig {
    float lr = 1e-2f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;  ///< decoupled (AdamW-style) when non-zero
};

/// Adam with per-parameter first/second-moment state. The parameter list is
/// fixed at construction; step() must always be called with gradients in
/// the same order.
class Adam {
public:
    /// Bind to a parameter list (shapes are recorded; the matrices
    /// themselves are owned by the model).
    Adam(const std::vector<tensor::Matrix*>& params, AdamConfig config = {});

    /// Apply one update step given gradients parallel to the bound params.
    void step(const std::vector<tensor::Matrix*>& params,
              const std::vector<tensor::Matrix*>& grads);

    /// Steps taken so far.
    [[nodiscard]] std::uint64_t steps() const noexcept { return t_; }

    /// The configuration in force.
    [[nodiscard]] const AdamConfig& config() const noexcept { return cfg_; }

private:
    AdamConfig cfg_;
    std::vector<tensor::Matrix> m_;
    std::vector<tensor::Matrix> v_;
    std::uint64_t t_ = 0;
};

} // namespace scgnn::gnn
