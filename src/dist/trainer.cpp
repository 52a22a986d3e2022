#include "scgnn/dist/trainer.hpp"

#include <algorithm>
#include <optional>

#include "epoch_driver.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/timer.hpp"
#include "scgnn/runtime/cluster.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::dist {

using tensor::Matrix;

/// Per-direction compressor accounting: wall time of the compress /
/// reconstruct round-trip, wire bytes, and the vanilla per-edge bytes the
/// same exchange would have cost (the live compression-ratio numerator).
/// One choke point covers every BoundaryCompressor uniformly.
struct DistAggregator::ExchangeTally {
    double seconds = 0.0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t vanilla_bytes = 0;

    /// Add the tally to the `compress.<dir>.*` metrics.
    void publish(const char* dir) const {
        obs::Registry& reg = obs::registry();
        const std::string base = std::string("compress.") + dir;
        reg.counter(base + ".calls").add(1);
        reg.gauge(base + ".seconds").add(seconds);
        reg.counter(base + ".wire_bytes").add(wire_bytes);
        reg.counter(base + ".vanilla_bytes").add(vanilla_bytes);
    }
};

namespace {

std::size_t layer_slot(int layer) {
    return static_cast<std::size_t>(layer < 0 ? 0 : layer);
}

/// Nonzeros per SpMM row block: enough work per task (a million
/// multiply-adds at f = 64) that dispatch stays negligible, small enough
/// that the largest partition splits into many tasks.
constexpr std::uint64_t kBlockNnz = 16384;

} // namespace

DistAggregator::DistAggregator(const DistContext& ctx, comm::Fabric& fabric,
                               BoundaryCompressor& compressor,
                               comm::Timeline* timeline)
    : ctx_(&ctx), fabric_(&fabric), comp_(&compressor), timeline_(timeline) {
    SCGNN_CHECK(fabric.num_devices() == ctx.num_parts(),
                "fabric device count must match the partition count");
    SCGNN_CHECK(timeline == nullptr ||
                    timeline->num_devices() == ctx.num_parts(),
                "timeline device count must match the partition count");
    fault_.stale_by_part.assign(ctx.num_parts(), 0);
    const auto plans = ctx.plans();
    if (fabric.fault_model().active()) {
        stale_fwd_.resize(plans.size());
        stale_bwd_.resize(plans.size());
    }
    plans_from_.resize(ctx.num_parts());
    plans_to_.resize(ctx.num_parts());
    for (std::size_t pi = 0; pi < plans.size(); ++pi) {
        plans_from_[plans[pi].src_part].push_back(
            static_cast<std::uint32_t>(pi));
        plans_to_[plans[pi].dst_part].push_back(static_cast<std::uint32_t>(pi));
    }
    stage_.resize(plans.size());
    arrival_.resize(plans.size());
    // One reused buffer per partition; the parallel regions index them by
    // partition, so sizing here keeps the regions allocation-free after
    // the first epoch warms each matrix's capacity.
    stacked_.resize(ctx.num_parts());
    gp_.resize(ctx.num_parts());
    stacked_grad_.resize(ctx.num_parts());
    // The backward aggregate gathers over each local adjacency's
    // transpose, built once here.
    adj_t_.resize(ctx.num_parts());
    parallel_for(0, ctx.num_parts(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p)
            adj_t_[p] =
                ctx.local_adj(static_cast<std::uint32_t>(p)).transposed();
    });
    // Cut each matrix into runs of whole rows holding at least kBlockNnz
    // nonzeros (the last run of a partition may hold fewer).
    auto cut = [](const tensor::SparseMatrix& a, std::uint32_t part,
                  std::vector<RowBlock>& out) {
        const auto ptr = a.row_ptr();
        std::size_t lo = 0;
        for (std::size_t r = 0; r < a.rows(); ++r)
            if (ptr[r + 1] - ptr[lo] >= kBlockNnz) {
                out.push_back({part, lo, r + 1});
                lo = r + 1;
            }
        if (lo < a.rows()) out.push_back({part, lo, a.rows()});
    };
    for (std::uint32_t p = 0; p < ctx.num_parts(); ++p) {
        const tensor::SparseMatrix& a = ctx.local_adj(p);
        SCGNN_CHECK(a.rows() == ctx.local_nodes(p).size() &&
                        a.cols() == a.rows() + ctx.halo(p).size(),
                    "local adjacency must be |local| x (|local| + |halo|)");
        cut(a, p, fwd_blocks_);
        cut(adj_t_[p], p, bwd_blocks_);
    }
    block_s_.resize(std::max(fwd_blocks_.size(), bwd_blocks_.size()));
}

template <typename Body>
void DistAggregator::run_blocks(const std::vector<RowBlock>& blocks,
                                Body&& body) {
    const bool tl = timeline_ != nullptr;
    parallel_for(0, blocks.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
            WallTimer t;
            body(blocks[b]);
            if (tl) block_s_[b] = t.seconds();
        }
    });
    if (tl)
        for (std::size_t b = 0; b < blocks.size(); ++b)
            part_s_[blocks[b].part] += block_s_[b];
}

DistAggregator::Arrival DistAggregator::send(bool forward,
                                             std::size_t plan_idx, int layer,
                                             ExchangeTally& tally) {
    const PairPlan& plan = ctx_->plans()[plan_idx];
    Matrix& stage = stage_[plan_idx];
    // Halos travel owner → consumer, gradients the reverse route.
    const std::uint32_t from = forward ? plan.src_part : plan.dst_part;
    const std::uint32_t to = forward ? plan.dst_part : plan.src_part;
    const bool obs_on = obs::enabled();
    const std::uint64_t t0 = obs_on ? obs::detail::trace_now_ns() : 0;
    const std::uint64_t bytes =
        forward ? comp_->forward_rows(*ctx_, plan_idx, layer, stage, wire_)
                : comp_->backward_rows(*ctx_, plan_idx, layer, stage, wire_);
    // Wire cost flows between the hosting devices: with an elastic
    // cluster the partitions may be co-located (free) or live on
    // reassigned devices; the null-cluster identity map keeps the static
    // path bit-identical.
    const std::uint32_t sdev = cluster_ ? cluster_->owner(from) : from;
    const std::uint32_t ddev = cluster_ ? cluster_->owner(to) : to;
    if (obs_on) {
        const std::uint64_t t1 = obs::detail::trace_now_ns();
        obs::record_span(forward ? "compress.forward" : "compress.backward",
                         t0, t1);
        tally.seconds += static_cast<double>(t1 - t0) * 1e-9;
        if (sdev != ddev) {
            tally.wire_bytes += bytes;
            tally.vanilla_bytes +=
                plan.num_edges() * stage.cols() * sizeof(float);
        }
    }
    bool delivered = true;
    if (sdev != ddev) {
        const comm::SendOutcome sent = fabric_->send(sdev, ddev, bytes);
        delivered = sent.delivered;
        if (timeline_ != nullptr)
            timeline_->record_send(sdev, ddev, sent.wire_bytes,
                                   sent.modelled_ms * 1e-3);
    }
    if (delivered) {
        // Copy rather than swap: a swap would rotate every plan's buffer
        // through wire_ and grow each one to the largest plan's size.
        stage = wire_;
        if (!fabric_->fault_model().active()) return Arrival::kFresh;
    }
    auto& per_plan = (forward ? stale_fwd_ : stale_bwd_)[plan_idx];
    const std::size_t li = layer_slot(layer);
    if (per_plan.size() <= li) per_plan.resize(li + 1);
    StaleSlot& slot = per_plan[li];
    if (delivered) {
        slot.age = 0;
        slot.valid = true;
        return Arrival::kFresh;
    }
    // Degraded path: serve the last good block (or zeros on a cold miss)
    // and record how stale the receiver's halo just became.
    ++slot.age;
    ++fault_.stale_uses;
    ++fault_.stale_by_part[to];
    fault_.max_staleness = std::max(fault_.max_staleness, slot.age);
    if (obs_on) {
        obs::Registry& reg = obs::registry();
        reg.counter("dist.stale_uses").add(1);
        reg.counter("dist.stale.part." + std::to_string(to)).add(1);
        reg.gauge("dist.max_staleness")
            .set(static_cast<double>(fault_.max_staleness));
    }
    if (slot.valid) return Arrival::kStale;
    ++fault_.cold_misses;
    return Arrival::kZero;
}

const Matrix& DistAggregator::landed(StaleCache& cache, std::size_t plan_idx,
                                     int layer) {
    Matrix& stage = stage_[plan_idx];
    switch (arrival_[plan_idx]) {
    case Arrival::kFresh:
        // The stale slots exist only under an active fault model.
        if (!cache.empty())
            cache[plan_idx][layer_slot(layer)].cached = stage;
        return stage;
    case Arrival::kStale:
        return cache[plan_idx][layer_slot(layer)].cached;
    case Arrival::kZero:
        break;
    }
    stage.zero();
    return stage;
}

void DistAggregator::end_timeline_step() {
    // Compute accumulates on the *hosting* device, so a survivor carrying
    // two partitions shows twice the compute in the schedule
    // (record_compute adds).
    for (std::uint32_t d = 0; d < ctx_->num_parts(); ++d)
        timeline_->record_compute(cluster_ ? cluster_->owner(d) : d,
                                  part_s_[d]);
    timeline_->end_step();
}

void DistAggregator::forward_into(const Matrix& h, int layer, Matrix& out) {
    SCGNN_TRACE_SPAN("dist.forward");
    const DistContext& ctx = *ctx_;
    const std::uint32_t parts = ctx.num_parts();
    const std::size_t f = h.cols();

    // One timeline step per aggregator call. Per-partition compute is
    // measured inside the parallel regions (a per-partition region owns
    // its part_s_ slot; a block region writes per-block slots that
    // run_blocks sums serially) and recorded serially afterwards in
    // partition order — event ordering stays deterministic at any thread
    // count even though the measured durations vary.
    const bool tl = timeline_ != nullptr;
    if (tl) timeline_->begin_step("fwd");
    part_s_.assign(tl ? parts : 0, 0.0);

    // Per-partition stacked inputs [local ; halo]. The P simulated devices
    // are independent, so partitions fan out across the pool (each owns
    // its stacked matrix).
    parallel_for(0, parts, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
            WallTimer t;
            const auto locals = ctx.local_nodes(static_cast<std::uint32_t>(p));
            const auto halo = ctx.halo(static_cast<std::uint32_t>(p));
            stacked_[p].reshape_zero(locals.size() + halo.size(), f);
            tensor::gather_rows(h, locals, stacked_[p]);
            if (tl) part_s_[p] += t.seconds();
        }
    });

    // Halo exchange. Its copies are not device compute: they stay out of
    // part_s_, so the timeline prices only the modelled transfers.
    {
        SCGNN_TRACE_SPAN("dist.comm.forward");
        const auto plans = ctx.plans();
        // Pack: each sender gathers the halo rows of its outgoing plans.
        parallel_for(0, parts, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t q = lo; q < hi; ++q)
                for (const std::uint32_t pi : plans_from_[q]) {
                    stage_[pi].reshape_zero(plans[pi].num_rows(), f);
                    tensor::gather_rows(h, plans[pi].dbg.src_nodes,
                                        stage_[pi]);
                }
        });
        // Send, serially in plan order: the compressor and the fabric
        // carry state across plans.
        ExchangeTally tally;
        for (std::size_t pi = 0; pi < plans.size(); ++pi)
            arrival_[pi] = send(true, pi, layer, tally);
        if (obs::enabled() && !plans.empty()) tally.publish("forward");
        // Land: each receiver scatters its plans' blocks into the halo rows
        // of its own stack. A halo slot has one owner, so plans write
        // disjoint rows.
        parallel_for(0, parts, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                const std::size_t halo_base =
                    ctx.local_nodes(static_cast<std::uint32_t>(p)).size();
                for (const std::uint32_t pi : plans_to_[p]) {
                    const Matrix& block = landed(stale_fwd_, pi, layer);
                    const auto& slots = plans[pi].dst_halo_slots;
                    for (std::size_t i = 0; i < slots.size(); ++i) {
                        const auto srow = block.row(i);
                        auto drow = stacked_[p].row(halo_base + slots[i]);
                        std::copy(srow.begin(), srow.end(), drow.begin());
                    }
                }
            }
        });
    }

    // Local SpMM over the nnz-cut row blocks, each row written straight to
    // its global row. Partitions own disjoint local-node sets and blocks
    // disjoint rows of a partition, so the written rows never overlap.
    out.reshape_zero(h.rows(), f);
    run_blocks(fwd_blocks_, [&](const RowBlock& b) {
        const tensor::SparseMatrix& a = ctx.local_adj(b.part);
        const tensor::kern::SpmmArgs op{
            a.row_ptr().data(), a.col_idx().data(),
            a.values().data(),  stacked_[b.part].data(),
            out.data(),         ctx.local_nodes(b.part).data(),
            f};
        tensor::kern::spmm_rows(op, b.lo, b.hi);
    });
    if (tl) end_timeline_step();
}

void DistAggregator::backward_into(const Matrix& g, int layer, Matrix& out) {
    SCGNN_TRACE_SPAN("dist.backward");
    const DistContext& ctx = *ctx_;
    const std::uint32_t parts = ctx.num_parts();
    const std::size_t f = g.cols();

    const bool tl = timeline_ != nullptr;
    if (tl) timeline_->begin_step("bwd");
    part_s_.assign(tl ? parts : 0, 0.0);

    out.reshape_zero(g.rows(), f);
    // Each partition gathers its local rows of g into its own gp_[p].
    parallel_for(0, parts, 1, [&](std::size_t plo, std::size_t phi) {
        for (std::size_t p = plo; p < phi; ++p) {
            WallTimer t;
            const auto part = static_cast<std::uint32_t>(p);
            const auto locals = ctx.local_nodes(part);
            gp_[p].reshape_zero(locals.size(), f);
            tensor::gather_rows(g, locals, gp_[p]);
            stacked_grad_[p].reshape_zero(adj_t_[p].rows(), f);
            if (tl) part_s_[p] += t.seconds();
        }
    });
    // Per-partition Âᵀ·g as a gather over the stored transpose, one task
    // per nnz-cut row block: its rows list their entries in ascending
    // source row, the order a scatter over Â's rows would add them in, so
    // the result is bitwise the same. The halo block of the result is the
    // gradient that must travel back to the owners; a block's local rows
    // accumulate straight into their (disjoint) rows of `out`.
    run_blocks(bwd_blocks_, [&](const RowBlock& b) {
        const tensor::SparseMatrix& at = adj_t_[b.part];
        Matrix& sg = stacked_grad_[b.part];
        const tensor::kern::SpmmArgs op{
            at.row_ptr().data(), at.col_idx().data(), at.values().data(),
            gp_[b.part].data(),  sg.data(),           nullptr,
            f};
        tensor::kern::spmm_rows(op, b.lo, b.hi);
        const auto locals = ctx.local_nodes(b.part);
        for (std::size_t i = b.lo; i < std::min(b.hi, locals.size()); ++i) {
            const auto srow = sg.row(i);
            auto drow = out.row(locals[i]);
            for (std::size_t c = 0; c < f; ++c) drow[c] += srow[c];
        }
    });

    // Gradient exchange: the reverse of every forward plan. For plan
    // (q → p) the receiver p now returns gradients for q's boundary rows.
    {
        SCGNN_TRACE_SPAN("dist.comm.backward");
        const auto plans = ctx.plans();
        // Pack: each receiver copies the halo gradients of its plans.
        parallel_for(0, parts, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                const std::size_t halo_base =
                    ctx.local_nodes(static_cast<std::uint32_t>(p)).size();
                for (const std::uint32_t pi : plans_to_[p]) {
                    const auto& slots = plans[pi].dst_halo_slots;
                    stage_[pi].reshape_zero(slots.size(), f);
                    for (std::size_t i = 0; i < slots.size(); ++i) {
                        const auto srow =
                            stacked_grad_[p].row(halo_base + slots[i]);
                        std::copy(srow.begin(), srow.end(),
                                  stage_[pi].row(i).begin());
                    }
                }
            }
        });
        // Send, serially in plan order.
        ExchangeTally tally;
        for (std::size_t pi = 0; pi < plans.size(); ++pi)
            arrival_[pi] = send(false, pi, layer, tally);
        if (obs::enabled() && !plans.empty()) tally.publish("backward");
        // Land: each owner adds its plans' gradients into its own rows of
        // `out`. Plans that share a boundary row add in ascending plan
        // index after the local block, a per-row order that no pool width
        // can change.
        parallel_for(0, parts, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t q = lo; q < hi; ++q)
                for (const std::uint32_t pi : plans_from_[q]) {
                    const Matrix& block = landed(stale_bwd_, pi, layer);
                    const auto& nodes = plans[pi].dbg.src_nodes;
                    for (std::size_t i = 0; i < nodes.size(); ++i) {
                        const auto srow = block.row(i);
                        auto drow = out.row(nodes[i]);
                        for (std::size_t c = 0; c < f; ++c) drow[c] += srow[c];
                    }
                }
        });
    }
    if (tl) end_timeline_step();
}

void DistAggregator::invalidate_moved(
    const std::vector<std::uint32_t>& moved_parts) {
    if (moved_parts.empty() || (stale_fwd_.empty() && stale_bwd_.empty()))
        return;
    const auto plans = ctx_->plans();
    for (std::size_t pi = 0; pi < plans.size(); ++pi) {
        const PairPlan& plan = plans[pi];
        const bool touched =
            std::find(moved_parts.begin(), moved_parts.end(),
                      plan.src_part) != moved_parts.end() ||
            std::find(moved_parts.begin(), moved_parts.end(),
                      plan.dst_part) != moved_parts.end();
        if (!touched) continue;
        for (auto* cache : {&stale_fwd_, &stale_bwd_})
            if (pi < cache->size())
                for (StaleSlot& s : (*cache)[pi]) {
                    s.valid = false;
                    s.age = 0;
                }
    }
}

namespace {

/// Full-graph mode: one gnn::run_epoch over the whole training split per
/// epoch, aggregating through DistAggregator. It also owns elastic
/// membership, whose rebalance barrier runs in prepare(), outside the
/// timed work.
class FullGraphStep final : public detail::EpochStep {
public:
    explicit FullGraphStep(detail::EpochEnv& env)
        : env_(env),
          agg_(env.ctx, env.fabric, env.compressor, env.overlap_timeline()),
          eval_adj_(gnn::normalized_adjacency(env.data.graph, env.cfg.norm)) {
        // Elastic membership: a ClusterState owns the partition→device
        // ownership map and everything rebuilt at a change epoch. Absent a
        // schedule nothing is constructed and the run stays on the exact
        // static code path (the golden-pinned bitwise guarantee).
        if (!env.cfg.membership.active()) return;
        const std::uint32_t num_parts = env.ctx.num_parts();
        const std::size_t f = env.data.features.cols();
        runtime::ClusterState::Profile prof;
        prof.part_bytes.resize(num_parts);
        for (std::uint32_t p = 0; p < num_parts; ++p)
            prof.part_bytes[p] = static_cast<std::uint64_t>(
                env.ctx.local_nodes(p).size() * f * sizeof(float));
        prof.affinity.resize(num_parts);
        for (const PairPlan& plan : env.ctx.plans()) {
            const auto b = static_cast<std::uint64_t>(plan.num_rows() * f *
                                                      sizeof(float));
            prof.affinity[plan.src_part].push_back({plan.dst_part, b});
            prof.affinity[plan.dst_part].push_back({plan.src_part, b});
        }
        // A joiner receives the replicated weights plus both Adam moment
        // buffers before it can take part in a synchronous step.
        prof.replica_bytes = env.param_bytes * 3;
        cluster_.emplace(env.fabric.topology(), env.cfg.membership,
                         std::move(prof));
        agg_.set_cluster(&*cluster_);
        obs::record_config("trainer.membership",
                           runtime::membership_name(env.cfg.membership));
    }

    [[nodiscard]] const tensor::SparseMatrix& eval_adjacency()
        const override {
        return eval_adj_;
    }

    void prepare(std::uint32_t epoch) override {
        if (!cluster_) return;
        // Membership changes take effect at the top of their epoch; the
        // transition's migrations are priced here, *inside* this epoch's
        // fabric window, so the recovery spike shows in comm_mb/comm_ms.
        const runtime::Transition* tr =
            epoch >= 1 ? cluster_->advance(epoch) : nullptr;
        if (tr != nullptr) rebalance(*tr);
        cluster_->note_epoch();
    }

    [[nodiscard]] double run() override {
        const double loss =
            gnn::run_epoch(env_.model, env_.opt, agg_, env_.data.features,
                           env_.data.labels, env_.data.train_mask);
        env_.sync_weights();
        return loss;
    }

    [[nodiscard]] const runtime::Membership* membership() const override {
        return cluster_ ? &cluster_->membership() : nullptr;
    }

    void finish(DistTrainResult& result) override {
        result.fault = agg_.fault_summary();
        if (!cluster_) return;
        result.membership = cluster_->summary();
        const runtime::MembershipSummary& ms = result.membership;
        obs::record_final("membership.joins", static_cast<double>(ms.joins));
        obs::record_final("membership.leaves", static_cast<double>(ms.leaves));
        obs::record_final("membership.rebuilds",
                          static_cast<double>(ms.rebuilds));
        obs::record_final("membership.migrated_bytes",
                          static_cast<double>(ms.migrated_bytes));
        obs::record_final("membership.invalidated_halo_bytes",
                          static_cast<double>(ms.invalidated_halo_bytes));
        obs::record_final("membership.rebuild_ms", ms.rebuild_ms);
        obs::record_final("membership.min_active",
                          static_cast<double>(ms.min_active));
    }

private:
    /// Rebalance barrier: ship every reassigned partition's rows plus its
    /// carried compressor state, replicate the model onto joiners, and
    /// price the whole transition through the fabric (and as one timeline
    /// step under overlap) — recovery cost lands in the makespan, not a
    /// hand-wave.
    void rebalance(const runtime::Transition& tr) {
        SCGNN_TRACE_SPAN("membership.rebuild");
        comm::Timeline* tl = env_.overlap_timeline();
        runtime::MembershipSummary& ms = cluster_->summary();
        double rebuild_s = 0.0;
        std::uint64_t tr_bytes = 0;
        auto ship = [&](const runtime::Migration& mv, std::uint64_t bytes) {
            const comm::SendOutcome sent =
                env_.fabric.send(mv.from_device, mv.to_device, bytes);
            if (tl != nullptr)
                tl->record_send(mv.from_device, mv.to_device, sent.wire_bytes,
                                sent.modelled_ms * 1e-3);
            tr_bytes += bytes;
            rebuild_s += sent.modelled_ms * 1e-3;
        };
        if (tl != nullptr) tl->begin_step("rebalance");
        for (const runtime::Migration& mv : tr.moves) {
            // A moved partition carries its compressor state along.
            const std::uint64_t residual = env_.compressor.state_bytes(mv.part);
            ship(mv, mv.bytes + residual);
            ms.migrated_residual_bytes += residual;
            ms.migrated_bytes += residual;
        }
        for (const runtime::Migration& rep : tr.replications)
            ship(rep, rep.bytes);
        if (tl != nullptr) tl->end_step();
        ms.rebuild_ms += rebuild_s * 1e3;
        agg_.invalidate_moved(tr.moved_parts);
        // The weight-sync collective now spans only the survivors.
        if (env_.cfg.comm.count_weight_sync)
            env_.weight_sync = comm::collective::Allreduce(
                env_.fabric.topology(), env_.cfg.comm.collective,
                env_.param_bytes, cluster_->active_devices());
        if (obs::enabled()) {
            obs::Registry& reg = obs::registry();
            reg.counter("membership.joins").add(tr.joined.size());
            reg.counter("membership.leaves").add(tr.left.size());
            reg.counter("membership.moved_parts").add(tr.moved_parts.size());
            reg.counter("membership.migrated_bytes").add(tr_bytes);
            reg.gauge("membership.active")
                .set(static_cast<double>(
                    cluster_->membership().active_count()));
            reg.gauge("membership.rebuild_ms").set(ms.rebuild_ms);
        }
    }

    detail::EpochEnv& env_;
    DistAggregator agg_;
    const tensor::SparseMatrix eval_adj_;
    std::optional<runtime::ClusterState> cluster_;
};

} // namespace

DistTrainResult detail::train_full(const graph::Dataset& data,
                                   const partition::Partitioning& parts,
                                   const gnn::GnnConfig& model_cfg,
                                   const DistTrainConfig& cfg,
                                   BoundaryCompressor& compressor) {
    EpochEnv env(data, parts, model_cfg, cfg, compressor, "train");
    FullGraphStep step(env);
    return run_epochs(env, step);
}

} // namespace scgnn::dist
