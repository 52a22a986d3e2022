/// \file sampled_trainer.cpp
/// \brief Neighbor-sampled mini-batch distributed training (DESIGN.md §14):
///        per-batch halo *requests* through the compressor's subset
///        exchange instead of the fixed path's full boundary exchange.

#include <algorithm>
#include <vector>

#include "epoch_driver.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/timer.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace scgnn::dist {

using tensor::Matrix;

namespace {

/// gnn::Aggregator over one SampledBatch: the intra-device sampled edges
/// run as a batch-local SpMM (parallel, deterministic; the backward is the
/// same gather over the block's transpose) and every cross-device edge
/// group goes through the compressor's subset exchange, priced on the
/// fabric as a request-driven transfer. All exchange work is serial, so
/// batches are bitwise identical at any thread count.
class SampledAggregator final : public gnn::Aggregator {
public:
    SampledAggregator(detail::EpochEnv& env, std::uint32_t num_layers)
        : env_(env), timeline_(env.overlap_timeline()), adj_t_(num_layers) {
        fault_.stale_by_part.assign(env.ctx.num_parts(), 0);
    }

    void set_batch(const SampledBatch& b) noexcept { batch_ = &b; }

    void forward_into(const Matrix& h, int layer, Matrix& out) override {
        const SampledBatch& b = *batch_;
        const auto li = static_cast<std::size_t>(layer);
        const std::size_t f = h.cols();
        if (timeline_ != nullptr) timeline_->begin_step("fwd");
        WallTimer timer;
        tensor::spmm_into(b.local_adj[li], h, out);
        record_compute(timer.seconds());

        for (const PlanRequest& req : b.requests[li]) {
            send_.reshape_zero(req.rows.size(), f);
            tensor::gather_rows(h, req.src_local, send_);
            if (!exchange(true, req, layer, send_, recv_)) continue;
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e)
                tensor::kern::axpy(req.edge_w[e],
                                   recv_.row(req.edge_req[e]).data(),
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
        // Transposing costs O(nnz) against the aggregate's O(nnz·f), and
        // the gather over it is bitwise the scatter Âᵀ·g would be.
        b.local_adj[li].transpose_into(adj_t_[li]);
        tensor::spmm_into(adj_t_[li], g, out);
        record_compute(timer.seconds());

        for (const PlanRequest& req : b.requests[li]) {
            const std::size_t n = req.rows.size();
            // Consumer-side gradient w.r.t. each reconstructed subset row:
            // the adjoint of the forward scatter.
            send_.reshape_zero(n, f);
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e)
                tensor::kern::axpy(req.edge_w[e],
                                   g.row(req.edge_dst[e]).data(),
                                   send_.row(req.edge_req[e]).data(), f);
            if (!exchange(false, req, layer, send_, recv_)) continue;
            // 1·x is exact, so this is the plain sum d += x.
            for (std::size_t i = 0; i < n; ++i)
                tensor::kern::axpy(1.0f, recv_.row(i).data(),
                                   out.row(req.src_local[i]).data(), f);
        }
        if (timeline_ != nullptr) timeline_->end_step();
    }

    [[nodiscard]] const FaultSummary& fault_summary() const noexcept {
        return fault_;
    }
    /// Requested rows and their bytes so far (the batch fields stay 0).
    [[nodiscard]] const SampleStats& requests() const noexcept {
        return requests_;
    }

private:
    void record_compute(double seconds) {
        if (timeline_ == nullptr) return;
        const std::uint32_t p = env_.ctx.num_parts();
        for (std::uint32_t d = 0; d < p; ++d)
            timeline_->record_compute(d, seconds / p);
    }

    /// Compress one request's rows from `in` into `fresh` (the halo rows
    /// when `forward`, else their gradients) and price them on the
    /// fabric. False when the send failed: the receiver then misses the
    /// block in this batch's aggregation and the next batch re-requests.
    bool exchange(bool forward, const PlanRequest& req, int layer,
                  const Matrix& in, Matrix& fresh) {
        const PairPlan& plan = env_.ctx.plans()[req.plan];
        // Halos travel owner → consumer, gradients the reverse route.
        const std::uint32_t from = forward ? plan.src_part : plan.dst_part;
        const std::uint32_t to = forward ? plan.dst_part : plan.src_part;
        BoundaryCompressor& comp = env_.compressor;
        const std::uint64_t bytes =
            forward ? comp.forward_subset(env_.ctx, req.plan, layer, req.rows,
                                          in, fresh)
                    : comp.backward_subset(env_.ctx, req.plan, layer,
                                           req.rows, in, fresh);
        const comm::SendOutcome sent = env_.fabric.send(from, to, bytes);
        requests_.requested_rows += req.rows.size();
        requests_.request_bytes += bytes;
        if (timeline_ != nullptr)
            timeline_->record_send(from, to, sent.wire_bytes,
                                   sent.modelled_ms * 1e-3);
        const bool obs_on = obs::enabled();
        if (obs_on) {
            obs::Registry& reg = obs::registry();
            reg.counter("sample.requests").add(1);
            reg.counter("sample.requested_rows").add(req.rows.size());
            reg.counter("sample.request_bytes").add(bytes);
        }
        if (sent.delivered) return true;
        ++fault_.stale_uses;
        ++fault_.cold_misses;
        ++fault_.stale_by_part[to];
        fault_.max_staleness = std::max(fault_.max_staleness, 1u);
        if (obs_on) obs::registry().counter("dist.stale_uses").add(1);
        return false;
    }

    detail::EpochEnv& env_;
    comm::Timeline* const timeline_;  ///< null outside overlap mode
    const SampledBatch* batch_ = nullptr;
    /// Per-layer transpose of the batch block, reused across batches.
    std::vector<tensor::SparseMatrix> adj_t_;
    // One request's rows on each side of the compressor (the halo rows
    // or their gradients), reused across requests.
    Matrix send_, recv_;
    FaultSummary fault_;
    SampleStats requests_;
};

/// Sampled mode: per epoch, the seeded batches of a NeighborSampler, each
/// one a run_epoch step through SampledAggregator followed by a weight
/// sync. Evaluation aggregates over the full Â the sampler already holds.
class SampledStep final : public detail::EpochStep {
public:
    SampledStep(detail::EpochEnv& env, const SamplerConfig& sampler_cfg,
                std::uint32_t num_layers)
        : env_(env),
          agg_(env, num_layers),
          sampler_(env.data, env.ctx, env.cfg.norm, num_layers, sampler_cfg),
          window_(num_threads()),
          scratch_(window_.size()) {
        obs::record_config("sampler.batch_size",
                           static_cast<double>(sampler_cfg.batch_size));
        obs::record_config("sampler.seed",
                           static_cast<double>(sampler_cfg.seed));
        obs::record_config("sampler.batches_per_epoch",
                           static_cast<double>(sampler_.num_batches()));
    }

    [[nodiscard]] const tensor::SparseMatrix& eval_adjacency()
        const override {
        return sampler_.adjacency();
    }

    void prepare(std::uint32_t epoch) override {
        sampler_.begin_epoch(epoch);
    }

    [[nodiscard]] double run() override {
        const graph::Dataset& data = env_.data;
        double loss_sum = 0.0;
        const std::size_t batches = sampler_.num_batches();
        for (std::size_t bi = 0; bi < batches; ++bi) {
            // Lookahead window: sample the next batches in parallel, one
            // slot each, then train them in order. A batch is a pure
            // function of (seed, epoch, b), so the window width never
            // changes a result. Once warm, the slots allocate nothing.
            const std::size_t slot = bi % window_.size();
            if (slot == 0) {
                SCGNN_TRACE_SPAN("dist.sample_window");
                const std::size_t ahead =
                    std::min(window_.size(), batches - bi);
                parallel_for(0, ahead, 1, [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        sampler_.sample(bi + i, scratch_[i], window_[i]);
                });
            }
            const SampledBatch& batch = window_[slot];
            const std::size_t n = batch.nodes.size();
            batch_feat_.reshape_zero(n, data.features.cols());
            tensor::gather_rows(data.features, batch.nodes, batch_feat_);
            batch_labels_.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                batch_labels_[i] = data.labels[batch.nodes[i]];
            agg_.set_batch(batch);
            loss_sum += gnn::run_epoch(env_.model, env_.opt, agg_, batch_feat_,
                                       batch_labels_, batch.seeds);
            env_.sync_weights();
            ++batches_;
            batch_nodes_ += n;
        }
        return loss_sum / static_cast<double>(batches);
    }

    void finish(DistTrainResult& result) override {
        // Free the sampling buffers before the full-graph evaluation,
        // which needs memory of its own.
        window_ = {};
        scratch_ = {};
        batch_feat_ = {};
        result.fault = agg_.fault_summary();
        SampleStats& s = result.sampling;
        s = agg_.requests();
        s.batches = batches_;
        s.mean_batch_nodes = batches_ > 0
                                 ? static_cast<double>(batch_nodes_) /
                                       static_cast<double>(batches_)
                                 : 0.0;
        obs::record_final("sample.batches", static_cast<double>(s.batches));
        obs::record_final("sample.mean_batch_nodes", s.mean_batch_nodes);
        obs::record_final("sample.requested_rows",
                          static_cast<double>(s.requested_rows));
        obs::record_final("sample.request_bytes",
                          static_cast<double>(s.request_bytes));
    }

private:
    detail::EpochEnv& env_;
    SampledAggregator agg_;
    NeighborSampler sampler_;
    // The lookahead window: one reused batch and sampler scratch per pool
    // thread. Each scratch holds O(N) per-node arrays (DESIGN.md §14).
    std::vector<SampledBatch> window_;
    std::vector<NeighborSampler::Scratch> scratch_;
    // Reused per-batch buffers (feature gather + labels).
    Matrix batch_feat_;
    std::vector<std::int32_t> batch_labels_;
    std::uint64_t batches_ = 0;      ///< batches trained so far
    std::uint64_t batch_nodes_ = 0;  ///< Σ touched nodes over them
};

} // namespace

DistTrainResult train_sampled(const graph::Dataset& data,
                              const partition::Partitioning& parts,
                              const gnn::GnnConfig& model_cfg,
                              const DistTrainConfig& cfg,
                              const SamplerConfig& sampler_cfg,
                              BoundaryCompressor& compressor) {
    SCGNN_CHECK(!cfg.membership.active(),
                "membership schedules are not supported in sampled mode");
    detail::EpochEnv env(data, parts, model_cfg, cfg, compressor,
                         "sample-train");
    SampledStep step(env, sampler_cfg, model_cfg.num_layers);
    return detail::run_epochs(env, step);
}

} // namespace scgnn::dist
