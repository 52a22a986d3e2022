#pragma once
/// \file epoch_driver.hpp
/// \brief The one epoch engine behind detail::train_full and train_sampled
///        (DESIGN.md §14): EpochEnv holds what the modes share,
///        run_epochs() owns the epoch loop, and a mode plugs in an
///        EpochStep with its aggregator, its epoch's work and its own
///        result fields.

#include <cstdint>

#include "scgnn/dist/trainer.hpp"

namespace scgnn::dist::detail {

/// The shared state of one training run; a mode's step borrows it.
struct EpochEnv {
    /// Checks the arguments every mode shares, builds the shared state
    /// and records the common obs config keys (`trainer.mode` = `mode`).
    EpochEnv(const graph::Dataset& dataset,
             const partition::Partitioning& partitioning,
             const gnn::GnnConfig& model_cfg, const DistTrainConfig& train_cfg,
             BoundaryCompressor& comp, const char* mode);

    /// The timeline under CostModel::Mode::kOverlap, else null.
    [[nodiscard]] comm::Timeline* overlap_timeline() noexcept {
        return cfg.comm.overlap() ? &timeline : nullptr;
    }

    /// Charge one weight-gradient all-reduce when count_weight_sync is on.
    void sync_weights() {
        if (cfg.comm.count_weight_sync)
            weight_sync.run(fabric, overlap_timeline());
    }

    const graph::Dataset& data;
    const DistTrainConfig& cfg;
    BoundaryCompressor& compressor;
    DistContext ctx;
    comm::Fabric fabric;
    comm::Timeline timeline;
    gnn::GnnModel model;
    gnn::Adam opt;
    std::uint64_t param_bytes = 0;  ///< Σ parameter payload bytes
    comm::collective::Allreduce weight_sync;  ///< survivors-only after a
                                              ///< membership change
};

/// One training mode's share of the run.
class EpochStep {
public:
    virtual ~EpochStep() = default;

    /// The full-graph Â of the final accuracies.
    [[nodiscard]] virtual const tensor::SparseMatrix& eval_adjacency()
        const = 0;

    /// Untimed, after compressor.begin_epoch(e) and timeline.begin_epoch().
    virtual void prepare(std::uint32_t epoch) = 0;

    /// The epoch's timed work, weight sync included; returns the loss.
    [[nodiscard]] virtual double run() = 0;

    /// Active devices under elastic membership; null means all of them.
    [[nodiscard]] virtual const runtime::Membership* membership() const {
        return nullptr;
    }

    /// After the last epoch, before the checkpoint and evaluation: free
    /// the mode's buffers, set result.fault to the aggregator's staleness
    /// counters and fill the mode's own result fields and obs finals.
    virtual void finish(DistTrainResult& result) = 0;
};

/// Run `cfg.epochs` epochs of `step` over `env`.
[[nodiscard]] DistTrainResult run_epochs(EpochEnv& env, EpochStep& step);

} // namespace scgnn::dist::detail
