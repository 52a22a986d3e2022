/// \file epoch_driver.cpp
/// \brief The epoch loop shared by full-graph and sampled training (see
///        epoch_driver.hpp).

#include "epoch_driver.hpp"

#include <algorithm>
#include <cstdio>

#include "scgnn/common/log.hpp"
#include "scgnn/common/timer.hpp"
#include "scgnn/gnn/checkpoint.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/trace.hpp"

namespace scgnn::dist::detail {

EpochEnv::EpochEnv(const graph::Dataset& dataset,
                   const partition::Partitioning& partitioning,
                   const gnn::GnnConfig& model_cfg,
                   const DistTrainConfig& train_cfg,
                   BoundaryCompressor& comp, const char* mode)
    : data(dataset),
      cfg(train_cfg),
      compressor(comp),
      ctx(dataset, partitioning, train_cfg.norm),
      // The fabric takes its link tiers from the configured topology; the
      // default flat spec prices every link with cfg.comm.cost.
      fabric(comm::Topology::build(train_cfg.comm.topology,
                                   partitioning.num_parts,
                                   train_cfg.comm.cost)),
      timeline(partitioning.num_parts),
      model(model_cfg),
      opt(model.parameters(), train_cfg.adam) {
    SCGNN_CHECK(model_cfg.in_dim == data.features.cols(),
                "model in_dim must match the dataset feature width");
    SCGNN_CHECK(model_cfg.out_dim == data.num_classes,
                "model out_dim must match the dataset class count");
    SCGNN_CHECK(cfg.epochs >= 1, "need at least one epoch");
    validate(cfg.rate);
    fabric.set_fault_model(cfg.comm.fault);
    fabric.set_retry_policy(cfg.comm.retry);
    for (const tensor::Matrix* p : model.parameters())
        param_bytes += p->payload_bytes();

    if (!obs::enabled()) return;
    obs::record_config("trainer.mode", mode);
    obs::record_config("trainer.compressor", compressor.name());
    obs::record_config("trainer.epochs", static_cast<double>(cfg.epochs));
    obs::record_config("trainer.num_parts",
                       static_cast<double>(partitioning.num_parts));
    obs::record_config("trainer.num_nodes",
                       static_cast<double>(data.graph.num_nodes()));
    obs::record_config("trainer.feature_dim",
                       static_cast<double>(data.features.cols()));
    // Each device's local SpMM nonzeros and their max/mean: the load
    // imbalance that a node-balanced partitioning leaves.
    std::uint64_t total_nnz = 0, max_nnz = 0;
    for (std::uint32_t p = 0; p < ctx.num_parts(); ++p) {
        const std::uint64_t nnz = ctx.local_adj(p).nnz();
        obs::record_config("load.local_nnz." + std::to_string(p),
                           static_cast<double>(nnz));
        total_nnz += nnz;
        max_nnz = std::max(max_nnz, nnz);
    }
    obs::record_config("load.local_nnz_max_over_mean",
                       total_nnz == 0
                           ? 1.0
                           : static_cast<double>(max_nnz) * ctx.num_parts() /
                                 static_cast<double>(total_nnz));
    if (cfg.comm.overlap()) obs::record_config("trainer.cost_mode", "overlap");
    if (cfg.rate.scheduled())
        obs::record_config("trainer.schedule", schedule_name(cfg.rate.kind));
    if (cfg.comm.topology.hierarchical()) {
        obs::record_config("trainer.topology",
                           comm::topology_name(cfg.comm.topology));
        obs::record_config("trainer.oversubscription",
                           cfg.comm.topology.oversubscription);
    }
    if (cfg.comm.count_weight_sync)
        obs::record_config("trainer.collective",
                           comm::collective::algo_name(cfg.comm.collective));
    if (cfg.comm.fault.active()) {
        obs::record_config("fault.drop_probability",
                           cfg.comm.fault.drop_probability);
        obs::record_config("fault.seed",
                           static_cast<double>(cfg.comm.fault.seed));
        obs::record_config(
            "fault.down_windows",
            static_cast<double>(cfg.comm.fault.down_windows.size()));
        obs::record_config("retry.max_attempts",
                           static_cast<double>(cfg.comm.retry.max_attempts));
        obs::record_config("retry.timeout_s", cfg.comm.retry.timeout_s);
    }
}

DistTrainResult run_epochs(EpochEnv& env, EpochStep& step) {
    const graph::Dataset& data = env.data;
    const DistTrainConfig& cfg = env.cfg;
    BoundaryCompressor& compressor = env.compressor;
    comm::Fabric& fabric = env.fabric;
    comm::Timeline& timeline = env.timeline;
    const std::uint32_t num_parts = env.ctx.num_parts();
    const bool overlap = cfg.comm.overlap();

    {
        SCGNN_TRACE_SPAN("dist.compressor_setup");
        compressor.setup(env.ctx);
    }
    // Full-graph, uncompressed aggregator of the final evaluation (off
    // the fabric, untimed).
    gnn::SpmmAggregator eval_agg(step.eval_adjacency());

    // The default kRing over a flat topology prices the historical
    // 2·(P−1)·|params|/P per-link volume.
    if (cfg.comm.count_weight_sync)
        env.weight_sync = comm::collective::Allreduce(
            fabric.topology(), cfg.comm.collective, env.param_bytes);

    // Rate scheduling: only a non-fixed schedule ever touches the
    // compressor (or the ledger), so the fixed default remains bitwise
    // identical to the pre-scheduling golden pins.
    const bool scheduled = cfg.rate.scheduled();

    DistTrainResult result;
    result.epochs_run = cfg.epochs;
    if (cfg.record_epochs) result.epoch_metrics.reserve(cfg.epochs);
    double total_epoch_ms = 0.0, total_comm_ms = 0.0, total_compute_ms = 0.0;
    double total_overlap_ms = 0.0, total_exposed_ms = 0.0, total_bytes = 0.0;
    for (std::uint32_t e = 0; e < cfg.epochs; ++e) {
        SCGNN_TRACE_SPAN("dist.epoch");
        const double epoch_rate = fidelity(cfg.rate, e);
        if (scheduled) {
            compressor.apply_rate(epoch_rate);
            if (obs::enabled())
                obs::registry().gauge("compress.rate").set(epoch_rate);
            if (log_level() == LogLevel::kDebug) {
                char buf[64];
                std::snprintf(buf, sizeof buf, "rate[%u] fidelity=%.4f", e,
                              epoch_rate);
                log_debug(buf);
            }
        }
        compressor.begin_epoch(e);
        if (overlap) timeline.begin_epoch();
        step.prepare(e);
        WallTimer timer;
        const double loss = step.run();
        const double wall_ms = timer.millis();

        // A shrunk cluster runs the same partitions on fewer devices, so
        // the per-device compute budget divides by the *active* count
        // (== num_parts on a static run, where the maths is unchanged).
        const runtime::Membership* members = step.membership();
        const std::uint32_t active_now =
            members ? members->active_count() : num_parts;
        EpochMetrics m;
        m.loss = loss;
        m.rate = epoch_rate;
        m.active_devices = active_now;
        m.comm_mb = static_cast<double>(fabric.epoch_stats().bytes) / 1e6;
        m.comm_ms = fabric.epoch_comm_seconds() * 1e3;
        m.compute_ms = wall_ms / active_now;
        if (overlap) {
            // Normalise each device's recorded compute to the same
            // per-device budget the additive model charges, so the two
            // modes price identical work and differ only in how much
            // communication hides under it. The active mask keeps absent
            // devices from receiving a phantom budget.
            const comm::TimelineStats ts =
                timeline.schedule(wall_ms * 1e-3 / active_now,
                                  members ? &members->mask() : nullptr);
            m.epoch_ms = ts.makespan_s * 1e3;
            m.comm_exposed_ms = ts.comm_exposed_s * 1e3;
            m.overlap_ms =
                std::max(0.0, m.compute_ms + m.comm_ms - m.epoch_ms);
            if (obs::enabled()) {
                obs::Registry& reg = obs::registry();
                reg.gauge("timeline.makespan_ms").set(m.epoch_ms);
                reg.gauge("timeline.overlap_ms").set(m.overlap_ms);
                reg.gauge("timeline.comm_exposed_ms").set(m.comm_exposed_ms);
                reg.gauge("timeline.queue_wait_ms").set(ts.queue_wait_s * 1e3);
                reg.gauge("timeline.link_busy_ms").set(ts.link_busy_s * 1e3);
                // Export the modelled schedule onto virtual trace tracks
                // (compute: 1000+device, transfers: 2000+link) anchored at
                // "now", so the Chrome trace shows the modelled epoch
                // alongside the measured spans.
                const std::uint64_t base = obs::detail::trace_now_ns();
                for (const comm::TimelineEvent& ev : timeline.events()) {
                    const bool is_comp = ev.kind == comm::EventKind::kCompute;
                    const auto tid = static_cast<std::uint32_t>(
                        is_comp ? 1000 + ev.device
                                : 2000 + ev.device * num_parts + ev.peer);
                    obs::record_span(
                        is_comp ? "timeline.compute" : "timeline.send",
                        base + static_cast<std::uint64_t>(ev.start_s * 1e9),
                        base + static_cast<std::uint64_t>(ev.end_s * 1e9),
                        tid);
                }
            }
        } else {
            m.epoch_ms = m.compute_ms + m.comm_ms;
        }
        fabric.end_epoch();
        // After end_epoch() so the snapshot sees the fabric's per-link
        // publish; the values are the exact doubles pushed into
        // result.epoch_metrics below.
        obs::epoch_snapshot(e, m.loss, m.comm_mb, m.comm_ms, m.compute_ms,
                            m.epoch_ms, m.overlap_ms, m.comm_exposed_ms);

        total_epoch_ms += m.epoch_ms;
        total_comm_ms += m.comm_ms;
        total_compute_ms += m.compute_ms;
        total_overlap_ms += m.overlap_ms;
        total_exposed_ms += m.comm_exposed_ms;
        total_bytes += m.comm_mb;
        result.final_loss = loss;
        if (cfg.record_epochs) result.epoch_metrics.push_back(m);
    }
    result.mean_epoch_ms = total_epoch_ms / result.epochs_run;
    result.mean_comm_ms = total_comm_ms / result.epochs_run;
    result.mean_compute_ms = total_compute_ms / result.epochs_run;
    result.mean_overlap_ms = total_overlap_ms / result.epochs_run;
    result.mean_comm_exposed_ms = total_exposed_ms / result.epochs_run;
    result.mean_comm_mb = total_bytes / result.epochs_run;
    result.total_comm_mb = total_bytes;
    step.finish(result);
    if (!cfg.checkpoint_path.empty())
        gnn::save_checkpoint(env.model, cfg.checkpoint_path);

    result.train_accuracy = gnn::evaluate_accuracy(
        env.model, eval_agg, data.features, data.labels, data.train_mask);
    if (!data.val_mask.empty())
        result.val_accuracy = gnn::evaluate_accuracy(
            env.model, eval_agg, data.features, data.labels, data.val_mask);
    result.test_accuracy = gnn::evaluate_accuracy(
        env.model, eval_agg, data.features, data.labels, data.test_mask);

    result.fault.fabric = fabric.fault_stats();
    if (!obs::enabled()) return result;
    if (cfg.comm.fault.active()) {
        const FaultSummary& f = result.fault;
        obs::record_final("fault.drops", static_cast<double>(f.fabric.drops));
        obs::record_final("fault.retries",
                          static_cast<double>(f.fabric.retries));
        obs::record_final("fault.failures",
                          static_cast<double>(f.fabric.failures));
        obs::record_final("fault.link_down_hits",
                          static_cast<double>(f.fabric.link_down_hits));
        obs::record_final("fault.penalty_s", f.fabric.penalty_s);
        obs::record_final("fault.stale_uses",
                          static_cast<double>(f.stale_uses));
        obs::record_final("fault.cold_misses",
                          static_cast<double>(f.cold_misses));
        obs::record_final("fault.max_staleness",
                          static_cast<double>(f.max_staleness));
    }
    obs::record_final("train_accuracy", result.train_accuracy);
    obs::record_final("val_accuracy", result.val_accuracy);
    obs::record_final("test_accuracy", result.test_accuracy);
    obs::record_final("final_loss", result.final_loss);
    obs::record_final("epochs_run", static_cast<double>(result.epochs_run));
    obs::record_final("mean_epoch_ms", result.mean_epoch_ms);
    obs::record_final("mean_comm_ms", result.mean_comm_ms);
    obs::record_final("mean_compute_ms", result.mean_compute_ms);
    if (overlap) {
        obs::record_final("mean_overlap_ms", result.mean_overlap_ms);
        obs::record_final("mean_comm_exposed_ms",
                          result.mean_comm_exposed_ms);
    }
    obs::record_final("mean_comm_mb", result.mean_comm_mb);
    obs::record_final("total_comm_mb", result.total_comm_mb);
    return result;
}

} // namespace scgnn::dist::detail
