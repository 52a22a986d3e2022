#include "scgnn/gnn/trainer.hpp"

#include "scgnn/common/timer.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::gnn {

void SpmmAggregator::forward_into(const tensor::Matrix& h, int,
                                  tensor::Matrix& out) {
    tensor::spmm_into(*adj_, h, out);
}

void SpmmAggregator::backward_into(const tensor::Matrix& g, int,
                                   tensor::Matrix& out) {
    if (!have_adj_t_) {
        adj_->transpose_into(adj_t_);
        have_adj_t_ = true;
    }
    tensor::spmm_into(adj_t_, g, out);
}

double run_epoch(GnnModel& model, Adam& opt, Aggregator& agg,
                 const tensor::Matrix& features,
                 std::span<const std::int32_t> labels,
                 std::span<const std::uint32_t> train_mask) {
    model.set_training(true);
    model.zero_grad();
    const tensor::Matrix& logits = model.forward_ref(features, agg);
    const double loss = tensor::softmax_cross_entropy(
        logits, labels, train_mask, model.loss_terms());
    tensor::Matrix& dlogits = model.loss_grad();
    tensor::softmax_cross_entropy_grad_into(logits, labels, train_mask,
                                            dlogits);
    model.backward(dlogits, agg);
    opt.step(model.parameters(), model.gradients());
    model.set_training(false);
    return loss;
}

double evaluate_accuracy(GnnModel& model, Aggregator& agg,
                         const tensor::Matrix& features,
                         std::span<const std::int32_t> labels,
                         std::span<const std::uint32_t> mask) {
    model.set_training(false);
    const tensor::Matrix& logits = model.forward_ref(features, agg);
    return tensor::masked_accuracy(logits, labels, mask);
}

TrainResult train_single_device(const graph::Dataset& data,
                                const GnnConfig& model_cfg,
                                const TrainConfig& train_cfg) {
    SCGNN_CHECK(model_cfg.in_dim == data.features.cols(),
                "model in_dim must match the dataset feature width");
    SCGNN_CHECK(model_cfg.out_dim == data.num_classes,
                "model out_dim must match the dataset class count");
    SCGNN_CHECK(train_cfg.epochs >= 1, "need at least one epoch");

    const tensor::SparseMatrix adj =
        normalized_adjacency(data.graph, train_cfg.norm);
    SpmmAggregator agg(adj);
    GnnModel model(model_cfg);
    Adam opt(model.parameters(), train_cfg.adam);

    TrainResult result;
    result.losses.reserve(train_cfg.epochs);
    WallTimer total;
    for (std::uint32_t e = 0; e < train_cfg.epochs; ++e)
        result.losses.push_back(run_epoch(model, opt, agg, data.features,
                                          data.labels, data.train_mask));
    result.mean_epoch_ms = total.millis() / train_cfg.epochs;

    result.train_accuracy = evaluate_accuracy(model, agg, data.features,
                                              data.labels, data.train_mask);
    if (!data.val_mask.empty())
        result.val_accuracy = evaluate_accuracy(model, agg, data.features,
                                                data.labels, data.val_mask);
    result.test_accuracy = evaluate_accuracy(model, agg, data.features,
                                             data.labels, data.test_mask);
    return result;
}

} // namespace scgnn::gnn
