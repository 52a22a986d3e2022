#pragma once
/// \file trainer.hpp
/// \brief Single-device full-batch trainer — the reference implementation
///        the distributed trainer is validated against (with a vanilla
///        exchange the two must produce near-identical models).

#include <cstdint>
#include <vector>

#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/gnn/model.hpp"
#include "scgnn/gnn/optimizer.hpp"
#include "scgnn/graph/dataset.hpp"

namespace scgnn::gnn {

/// Aggregator over a prebuilt sparse matrix (no communication) — what a
/// single device does. The backward gathers over Âᵀ, built on the first
/// backward_into call, so evaluation-only aggregators never pay for it.
class SpmmAggregator final : public Aggregator {
public:
    /// `adj` must outlive the aggregator.
    explicit SpmmAggregator(const tensor::SparseMatrix& adj) : adj_(&adj) {}

    void forward_into(const tensor::Matrix& h, int layer,
                      tensor::Matrix& out) override;
    void backward_into(const tensor::Matrix& g, int layer,
                       tensor::Matrix& out) override;

private:
    const tensor::SparseMatrix* adj_;
    tensor::SparseMatrix adj_t_;
    bool have_adj_t_ = false;
};

/// Training-loop hyper-parameters.
struct TrainConfig {
    std::uint32_t epochs = 60;
    AdamConfig adam{};
    AdjNorm norm = AdjNorm::kSymmetric;
};

/// Outcome of a training run.
struct TrainResult {
    std::vector<double> losses;  ///< per-epoch train loss
    double train_accuracy = 0.0;
    double val_accuracy = 0.0;
    double test_accuracy = 0.0;
    double mean_epoch_ms = 0.0;  ///< measured wall time per epoch
};

/// Train a fresh model on the dataset, single-device. Deterministic given
/// the model seed in `model_cfg`.
[[nodiscard]] TrainResult train_single_device(const graph::Dataset& data,
                                              const GnnConfig& model_cfg,
                                              const TrainConfig& train_cfg);

/// One complete epoch (forward, loss, backward, step) on a prebuilt model
/// and aggregator; returns the train loss. Shared by both trainers. The
/// loss gradient lives in the model's loss_grad() buffer, so steady-state
/// epochs perform zero heap allocations.
[[nodiscard]] double run_epoch(GnnModel& model, Adam& opt, Aggregator& agg,
                               const tensor::Matrix& features,
                               std::span<const std::int32_t> labels,
                               std::span<const std::uint32_t> train_mask);

/// Evaluate accuracy of `model` on the rows of `mask` (forward only).
[[nodiscard]] double evaluate_accuracy(GnnModel& model, Aggregator& agg,
                                       const tensor::Matrix& features,
                                       std::span<const std::int32_t> labels,
                                       std::span<const std::uint32_t> mask);

} // namespace scgnn::gnn
