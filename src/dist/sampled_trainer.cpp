/// \file sampled_trainer.cpp
/// \brief Neighbor-sampled mini-batch distributed training (DESIGN.md §14):
///        per-batch halo *requests* through the compressor's subset
///        exchange instead of the fixed path's full boundary exchange.

#include <algorithm>
#include <cstdio>

#include "scgnn/common/log.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/timer.hpp"
#include "scgnn/dist/error_feedback.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/gnn/checkpoint.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/sparse.hpp"
#include "scgnn/tensor/workspace.hpp"

namespace scgnn::dist {

using tensor::Matrix;

namespace {

/// gnn::Aggregator over one SampledBatch: the intra-device sampled edges
/// run as a batch-local SpMM (parallel, deterministic) and every
/// cross-device edge group goes through the compressor's subset exchange,
/// priced on the fabric as a request-driven transfer. All exchange work is
/// serial, so batches are bitwise identical at any thread count.
class SampledAggregator final : public gnn::Aggregator {
public:
    SampledAggregator(const DistContext& ctx, comm::Fabric& fabric,
                      BoundaryCompressor& compressor,
                      comm::Timeline* timeline)
        : ctx_(&ctx), fabric_(&fabric), comp_(&compressor),
          timeline_(timeline) {
        fault_.stale_by_part.assign(ctx.num_parts(), 0);
    }

    void set_workspace(tensor::Workspace* ws) noexcept { ws_ = ws; }
    void set_batch(const SampledBatch& b) noexcept { batch_ = &b; }

    [[nodiscard]] Matrix forward(const Matrix& h, int layer) override {
        Matrix out;
        forward_into(h, layer, out);
        return out;
    }

    [[nodiscard]] Matrix backward(const Matrix& g, int layer) override {
        Matrix out;
        backward_into(g, layer, out);
        return out;
    }

    void forward_into(const Matrix& h, int layer, Matrix& out) override {
        const SampledBatch& b = *batch_;
        const auto li = static_cast<std::size_t>(layer);
        const std::size_t f = h.cols();
        if (timeline_ != nullptr) timeline_->begin_step("fwd");
        WallTimer timer;
        tensor::spmm_into(b.local_adj[li], h, out);
        record_compute(timer.seconds());

        for (const PlanRequest& req : b.requests[li]) {
            const PairPlan& plan = ctx_->plans()[req.plan];
            const std::size_t n = req.rows.size();
            tensor::Workspace::Lease src(ws_, n, f);
            for (std::size_t i = 0; i < n; ++i) {
                const auto from = h.row(req.src_local[i]);
                auto to = src.get().row(i);
                std::copy(from.begin(), from.end(), to.begin());
            }
            tensor::Workspace::Lease recon(ws_, n, f);
            const std::uint64_t bytes = comp_->forward_subset(
                *ctx_, req.plan, layer, req.rows, src.get(), recon.get());
            const comm::SendOutcome sent =
                fabric_->send(plan.src_part, plan.dst_part, bytes);
            note_request(plan.src_part, plan.dst_part, n, bytes, sent);
            if (!sent.delivered) {
                // A failed request simply misses this batch's aggregation
                // (the halo term is absent); the next batch re-requests.
                note_miss(plan.dst_part);
                continue;
            }
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e)
                tensor::kern::axpy(req.edge_w[e],
                                   recon.get().row(req.edge_req[e]).data(),
                                   out.row(req.edge_dst[e]).data(), f);
        }
        if (timeline_ != nullptr) timeline_->end_step();
    }

    void backward_into(const Matrix& g, int layer, Matrix& out) override {
        const SampledBatch& b = *batch_;
        const auto li = static_cast<std::size_t>(layer);
        const std::size_t f = g.cols();
        if (timeline_ != nullptr) timeline_->begin_step("bwd");
        WallTimer timer;
        tensor::spmm_transposed_into(b.local_adj[li], g, out);
        record_compute(timer.seconds());

        for (const PlanRequest& req : b.requests[li]) {
            const PairPlan& plan = ctx_->plans()[req.plan];
            const std::size_t n = req.rows.size();
            // Consumer-side gradient w.r.t. each reconstructed subset row:
            // the adjoint of the forward scatter.
            tensor::Workspace::Lease gin(ws_, n, f);
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e)
                tensor::kern::axpy(req.edge_w[e],
                                   g.row(req.edge_dst[e]).data(),
                                   gin.get().row(req.edge_req[e]).data(), f);
            tensor::Workspace::Lease gout(ws_, n, f);
            const std::uint64_t bytes = comp_->backward_subset(
                *ctx_, req.plan, layer, req.rows, gin.get(), gout.get());
            // Gradients travel the reverse route: receiver → owner.
            const comm::SendOutcome sent =
                fabric_->send(plan.dst_part, plan.src_part, bytes);
            note_request(plan.dst_part, plan.src_part, n, bytes, sent);
            if (!sent.delivered) {
                note_miss(plan.src_part);
                continue;
            }
            // 1·x is exact, so this is the plain sum d += x.
            for (std::size_t i = 0; i < n; ++i)
                tensor::kern::axpy(1.0f, gout.get().row(i).data(),
                                   out.row(req.src_local[i]).data(), f);
        }
        if (timeline_ != nullptr) timeline_->end_step();
    }

    [[nodiscard]] const FaultSummary& fault_summary() const noexcept {
        return fault_;
    }
    [[nodiscard]] std::uint64_t requested_rows() const noexcept {
        return requested_rows_;
    }
    [[nodiscard]] std::uint64_t request_bytes() const noexcept {
        return request_bytes_;
    }

private:
    void record_compute(double seconds) {
        if (timeline_ == nullptr) return;
        const std::uint32_t p = ctx_->num_parts();
        for (std::uint32_t d = 0; d < p; ++d)
            timeline_->record_compute(d, seconds / p);
    }

    void note_request(std::uint32_t src, std::uint32_t dst, std::size_t rows,
                      std::uint64_t bytes, const comm::SendOutcome& sent) {
        requested_rows_ += rows;
        request_bytes_ += bytes;
        if (timeline_ != nullptr)
            timeline_->record_send(src, dst, sent.wire_bytes,
                                   sent.modelled_ms * 1e-3);
        if (obs::enabled()) {
            obs::Registry& reg = obs::registry();
            reg.counter("sample.requests").add(1);
            reg.counter("sample.requested_rows").add(rows);
            reg.counter("sample.request_bytes").add(bytes);
        }
    }

    void note_miss(std::uint32_t receiver) {
        ++fault_.stale_uses;
        ++fault_.cold_misses;
        ++fault_.stale_by_part[receiver];
        fault_.max_staleness = std::max(fault_.max_staleness, 1u);
        if (obs::enabled())
            obs::registry().counter("dist.stale_uses").add(1);
    }

    const DistContext* ctx_;
    comm::Fabric* fabric_;
    BoundaryCompressor* comp_;
    comm::Timeline* timeline_;
    tensor::Workspace* ws_ = nullptr;
    const SampledBatch* batch_ = nullptr;
    FaultSummary fault_;
    std::uint64_t requested_rows_ = 0;
    std::uint64_t request_bytes_ = 0;
};

} // namespace

DistTrainResult train_sampled(const graph::Dataset& data,
                              const partition::Partitioning& parts,
                              const gnn::GnnConfig& model_cfg,
                              const DistTrainConfig& cfg,
                              const SamplerConfig& sampler_cfg,
                              BoundaryCompressor& compressor) {
    SCGNN_CHECK(model_cfg.in_dim == data.features.cols(),
                "model in_dim must match the dataset feature width");
    SCGNN_CHECK(model_cfg.out_dim == data.num_classes,
                "model out_dim must match the dataset class count");
    SCGNN_CHECK(cfg.epochs >= 1, "need at least one epoch");
    SCGNN_CHECK(!cfg.membership.active(),
                "membership schedules are not supported in sampled mode");
    SCGNN_CHECK(cfg.lr_decay > 0.0f && cfg.lr_decay <= 1.0f,
                "lr_decay must be in (0, 1]");
    SCGNN_CHECK(cfg.patience == 0 || !data.val_mask.empty(),
                "early stopping needs a validation split");

    DistContext ctx(data, parts, cfg.norm);
    const comm::Topology topo = comm::Topology::build(
        cfg.comm.topology, parts.num_parts,
        comm::TierModel{cfg.comm.cost.latency_s,
                        cfg.comm.cost.bandwidth_bytes_per_s});
    comm::Fabric fabric(topo);
    fabric.set_fault_model(cfg.comm.fault);
    fabric.set_retry_policy(cfg.comm.retry);
    const bool overlap = cfg.comm.overlap();
    comm::Timeline timeline(parts.num_parts);
    SampledAggregator agg(ctx, fabric, compressor,
                          overlap ? &timeline : nullptr);
    NeighborSampler sampler(data, ctx, cfg.norm,
                            static_cast<std::uint32_t>(model_cfg.num_layers),
                            sampler_cfg);
    gnn::GnnModel model(model_cfg);
    gnn::Adam opt(model.parameters(), cfg.adam);
    std::uint64_t param_bytes = 0;
    for (const tensor::Matrix* p : model.parameters())
        param_bytes += p->payload_bytes();

    if (obs::enabled()) {
        obs::record_config("trainer.mode", "sample-train");
        obs::record_config("trainer.compressor", compressor.name());
        obs::record_config("trainer.epochs", static_cast<double>(cfg.epochs));
        obs::record_config("trainer.num_parts",
                           static_cast<double>(parts.num_parts));
        obs::record_config("sampler.batch_size",
                           static_cast<double>(sampler_cfg.batch_size));
        obs::record_config("sampler.seed",
                           static_cast<double>(sampler_cfg.seed));
        obs::record_config("sampler.batches_per_epoch",
                           static_cast<double>(sampler.num_batches()));
    }

    {
        SCGNN_TRACE_SPAN("dist.compressor_setup");
        compressor.setup(ctx);
    }

    tensor::Workspace ws;
    agg.set_workspace(&ws);
    compressor.set_workspace(&ws);
    fabric.reserve_history(cfg.epochs);

    // Evaluation aggregates over the full Â the sampler already holds.
    gnn::SpmmAggregator eval_agg(sampler.adjacency());

    comm::collective::Allreduce weight_sync;
    if (cfg.comm.count_weight_sync) {
        weight_sync = comm::collective::Allreduce(
            fabric.topology(), cfg.comm.collective, param_bytes);
    }

    RateController rate_ctl(cfg.rate);
    const bool scheduled = cfg.rate.scheduled();
    auto* ef = scheduled ? dynamic_cast<ErrorFeedbackCompressor*>(&compressor)
                         : nullptr;
    double loss_last = 0.0;

    DistTrainResult result;
    if (cfg.record_epochs) result.epoch_metrics.reserve(cfg.epochs);
    double total_epoch_ms = 0.0, total_comm_ms = 0.0, total_compute_ms = 0.0;
    double total_overlap_ms = 0.0, total_exposed_ms = 0.0, total_bytes = 0.0;
    std::uint64_t total_batch_nodes = 0;

    // Reused per-batch buffers (feature gather + labels).
    Matrix batch_feat;
    std::vector<std::int32_t> batch_labels;
    // The lookahead window: one reused batch and sampler scratch per pool
    // thread. Each scratch holds O(N) per-node arrays (DESIGN.md §14).
    std::vector<SampledBatch> window(num_threads());
    std::vector<NeighborSampler::Scratch> scratch(window.size());

    std::uint32_t stale = 0;
    for (std::uint32_t e = 0; e < cfg.epochs; ++e) {
        SCGNN_TRACE_SPAN("dist.epoch");
        double epoch_rate = 1.0;
        if (scheduled) {
            const double drift =
                (e > 0 && ef != nullptr) ? ef->epoch_relative_residual() : 0.0;
            epoch_rate = rate_ctl.next(e, loss_last, drift);
            compressor.apply_rate(epoch_rate);
            if (obs::enabled())
                obs::registry().gauge("compress.rate").set(epoch_rate);
        }
        compressor.begin_epoch(e);
        sampler.begin_epoch(e);
        if (overlap) timeline.begin_epoch();

        WallTimer timer;
        double loss_sum = 0.0;
        const std::size_t batches = sampler.num_batches();
        for (std::size_t bi = 0; bi < batches; ++bi) {
            // Lookahead window: sample the next batches in parallel, one
            // slot each, then train them in order. A batch is a pure
            // function of (seed, epoch, b), so the window width never
            // changes a result. Once warm, the slots allocate nothing.
            const std::size_t slot = bi % window.size();
            if (slot == 0) {
                SCGNN_TRACE_SPAN("dist.sample_window");
                const std::size_t ahead =
                    std::min(window.size(), batches - bi);
                parallel_for(0, ahead, 1, [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        sampler.sample(bi + i, scratch[i], window[i]);
                });
            }
            const SampledBatch& batch = window[slot];
            const std::size_t n = batch.nodes.size();
            const std::size_t in_dim = data.features.cols();
            batch_feat.reshape_zero(n, in_dim);
            batch_labels.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                const auto from = data.features.row(batch.nodes[i]);
                auto to = batch_feat.row(i);
                std::copy(from.begin(), from.end(), to.begin());
                batch_labels[i] = data.labels[batch.nodes[i]];
            }
            agg.set_batch(batch);
            loss_sum += gnn::run_epoch(model, opt, agg, batch_feat,
                                       batch_labels, batch.seeds, &ws);
            if (cfg.comm.count_weight_sync)
                weight_sync.run(fabric, overlap ? &timeline : nullptr);
            ++result.sampling.batches;
            total_batch_nodes += n;
        }
        const double wall_ms = timer.millis();
        const double loss = loss_sum / static_cast<double>(batches);

        EpochMetrics m;
        m.loss = loss;
        m.rate = epoch_rate;
        m.active_devices = parts.num_parts;
        m.comm_mb = static_cast<double>(fabric.epoch_stats().bytes) / 1e6;
        m.comm_ms = fabric.epoch_comm_seconds() * 1e3;
        m.compute_ms = wall_ms / parts.num_parts;
        if (overlap) {
            const comm::TimelineStats ts =
                timeline.schedule(wall_ms * 1e-3 / parts.num_parts);
            m.epoch_ms = ts.makespan_s * 1e3;
            m.comm_exposed_ms = ts.comm_exposed_s * 1e3;
            m.overlap_ms =
                std::max(0.0, m.compute_ms + m.comm_ms - m.epoch_ms);
        } else {
            m.epoch_ms = m.compute_ms + m.comm_ms;
        }
        fabric.end_epoch();
        obs::epoch_snapshot(e, m.loss, m.comm_mb, m.comm_ms, m.compute_ms,
                            m.epoch_ms, m.overlap_ms, m.comm_exposed_ms);

        total_epoch_ms += m.epoch_ms;
        total_comm_ms += m.comm_ms;
        total_compute_ms += m.compute_ms;
        total_overlap_ms += m.overlap_ms;
        total_exposed_ms += m.comm_exposed_ms;
        total_bytes += m.comm_mb;
        loss_last = loss;
        result.final_loss = loss;
        ++result.epochs_run;
        if (cfg.record_epochs) result.epoch_metrics.push_back(m);

        if (cfg.lr_decay < 1.0f) opt.set_lr(opt.config().lr * cfg.lr_decay);
        if (cfg.patience > 0) {
            const double val = gnn::evaluate_accuracy(
                model, eval_agg, data.features, data.labels, data.val_mask);
            if (val > result.best_val_accuracy + 1e-12) {
                result.best_val_accuracy = val;
                stale = 0;
            } else if (++stale >= cfg.patience) {
                break;
            }
        }
    }
    // Free the sampling buffers before the full-graph evaluation, which
    // needs memory of its own.
    window = {};
    scratch = {};
    batch_feat = {};
    result.mean_epoch_ms = total_epoch_ms / result.epochs_run;
    result.mean_comm_ms = total_comm_ms / result.epochs_run;
    result.mean_compute_ms = total_compute_ms / result.epochs_run;
    result.mean_overlap_ms = total_overlap_ms / result.epochs_run;
    result.mean_comm_exposed_ms = total_exposed_ms / result.epochs_run;
    result.mean_comm_mb = total_bytes / result.epochs_run;
    result.total_comm_mb = total_bytes;
    if (!cfg.checkpoint_path.empty())
        gnn::save_checkpoint(model, cfg.checkpoint_path);

    result.train_accuracy = gnn::evaluate_accuracy(
        model, eval_agg, data.features, data.labels, data.train_mask);
    if (!data.val_mask.empty())
        result.val_accuracy = gnn::evaluate_accuracy(
            model, eval_agg, data.features, data.labels, data.val_mask);
    result.best_val_accuracy =
        std::max(result.best_val_accuracy, result.val_accuracy);
    result.test_accuracy = gnn::evaluate_accuracy(
        model, eval_agg, data.features, data.labels, data.test_mask);

    result.fault = agg.fault_summary();
    result.fault.fabric = fabric.fault_stats();
    result.sampling.requested_rows = agg.requested_rows();
    result.sampling.request_bytes = agg.request_bytes();
    result.sampling.mean_batch_nodes =
        result.sampling.batches > 0
            ? static_cast<double>(total_batch_nodes) /
                  static_cast<double>(result.sampling.batches)
            : 0.0;

    if (obs::enabled()) {
        obs::record_final("train_accuracy", result.train_accuracy);
        obs::record_final("val_accuracy", result.val_accuracy);
        obs::record_final("test_accuracy", result.test_accuracy);
        obs::record_final("final_loss", result.final_loss);
        obs::record_final("epochs_run",
                          static_cast<double>(result.epochs_run));
        obs::record_final("total_comm_mb", result.total_comm_mb);
        obs::record_final("sample.batches",
                          static_cast<double>(result.sampling.batches));
        obs::record_final("sample.mean_batch_nodes",
                          result.sampling.mean_batch_nodes);
        obs::record_final(
            "sample.requested_rows",
            static_cast<double>(result.sampling.requested_rows));
        obs::record_final("sample.request_bytes",
                          static_cast<double>(result.sampling.request_bytes));
    }
    return result;
}

} // namespace scgnn::dist
