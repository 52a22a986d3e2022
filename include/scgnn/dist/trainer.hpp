#pragma once
/// \file trainer.hpp
/// \brief Distributed full-batch trainer over the simulated fabric.
///
/// Partitions are logical devices executed in-process. Model weights are
/// replicated conceptually (as in synchronous data-parallel GNN training);
/// because every device sees identical weights after each synchronous
/// step, the simulation keeps one weight copy and reproduces the same math.
/// The per-epoch cost depends on the configured cost-model mode
/// (DistTrainConfig::CommPolicy::mode):
///   * kAdditive (default, legacy):
///         epoch_ms = compute_ms + comm_ms
///     where compute_ms is the measured wall time of the epoch's numeric
///     work divided by the device count (devices run in parallel) and
///     comm_ms is the fabric's α–β model over the bytes the compressor
///     actually sent;
///   * kOverlap: epoch_ms = makespan of the per-link FIFO event timeline
///     (comm/timeline.hpp), in which layer-ℓ local SpMM overlaps layer-ℓ
///     halo transfers and concurrent sends contend only on shared
///     directed links. Always ≥ compute_ms; the hidden communication is
///     reported as overlap_ms and the exposed remainder as
///     comm_exposed_ms. See DESIGN.md §9.

#include <cstdint>
#include <vector>

#include "scgnn/comm/collective.hpp"
#include "scgnn/comm/fabric.hpp"
#include "scgnn/comm/timeline.hpp"
#include "scgnn/comm/topology.hpp"
#include "scgnn/dist/compressor.hpp"
#include "scgnn/dist/context.hpp"
#include "scgnn/dist/rate_control.hpp"
#include "scgnn/dist/sampler.hpp"
#include "scgnn/gnn/model.hpp"
#include "scgnn/gnn/optimizer.hpp"
#include "scgnn/gnn/trainer.hpp"
#include "scgnn/runtime/membership.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace scgnn::runtime {
class ClusterState;
}

namespace scgnn::dist {

/// Recovery counters of one distributed run: the fabric's fault totals
/// plus the trainer-side staleness the degraded-halo fallback incurred.
struct FaultSummary {
    comm::FaultStats fabric{};         ///< drops/retries/failures/penalty
    std::uint64_t stale_uses = 0;      ///< halo/grad blocks served stale
    std::uint64_t cold_misses = 0;     ///< stale fallback with empty cache
    std::uint32_t max_staleness = 0;   ///< worst consecutive stale epochs
    std::vector<std::uint64_t> stale_by_part;  ///< stale uses per receiver

    /// True when any exchange ran on stale data (training degraded
    /// instead of aborting).
    [[nodiscard]] bool degraded() const noexcept { return stale_uses > 0; }
};

/// gnn::Aggregator that performs the distributed aggregate: per-partition
/// SpMM on [local ; halo] stacks, with the halo rows moved (and possibly
/// compressed) through a BoundaryCompressor and charged to the fabric.
/// Input/output matrices are in global row order.
///
/// Each exchange runs in three phases. *Pack*: partitions fan out across
/// the pool and copy every plan's rows into that plan's own stage (the
/// sender gathers halo rows, the receiver its halo gradients). *Send*: one
/// serial loop in plan order runs the compressor, the fabric and the
/// stale-slot bookkeeping, the only steps that touch shared state. *Land*:
/// partitions fan out again and apply the blocks (each receiver scatters
/// into its own stack, each owner adds gradients in ascending plan order),
/// so the bytes are the same at every pool width.
///
/// When the fabric has an active FaultModel, every exchange goes through
/// Fabric::send(); on exhausted retries the receiver falls back to the
/// last successfully delivered block for that (plan, layer) — stale
/// aggregation à la the delayed-transmission baseline — so training
/// degrades gracefully instead of diverging or aborting. A cold miss
/// (failure before any delivery) contributes zeros, i.e. the halo term
/// is absent for that step.
class DistAggregator final : public gnn::Aggregator {
public:
    /// All referenced objects must outlive the aggregator. With a
    /// non-null `timeline`, every forward/backward call is recorded as
    /// one timeline step: measured per-partition compute durations plus
    /// the modelled service time of each halo transfer (the trainer
    /// schedules the timeline at epoch close under kOverlap).
    DistAggregator(const DistContext& ctx, comm::Fabric& fabric,
                   BoundaryCompressor& compressor,
                   comm::Timeline* timeline = nullptr);

    void forward_into(const tensor::Matrix& h, int layer,
                      tensor::Matrix& out) override;
    void backward_into(const tensor::Matrix& g, int layer,
                       tensor::Matrix& out) override;

    /// Route exchanges through the elastic partition→device ownership map
    /// (nullable; must outlive the aggregator's use). With a cluster set,
    /// wire cost is charged between the partitions' *hosting devices* —
    /// co-located partitions exchange for free — and timeline compute is
    /// accumulated per hosting device. A null cluster is the identity
    /// routing, bit-identical to the pre-elastic behaviour.
    void set_cluster(const runtime::ClusterState* cluster) noexcept {
        cluster_ = cluster;
    }

    /// Drop the stale-fallback caches of every plan touching a moved
    /// partition: after a migration the cached halo blocks describe rows
    /// the new owner will re-derive, so serving them would hide the
    /// transition. No-op when the fault model is inactive.
    void invalidate_moved(const std::vector<std::uint32_t>& moved_parts);

    /// Staleness counters accumulated so far (fabric counters excluded —
    /// read those off the fabric).
    [[nodiscard]] const FaultSummary& fault_summary() const noexcept {
        return fault_;
    }

private:
    /// Per-direction compressor accounting under obs (defined in
    /// trainer.cpp).
    struct ExchangeTally;

    /// Last successfully received block per (plan, layer) plus its age in
    /// consecutive stale uses.
    struct StaleSlot {
        tensor::Matrix cached;
        std::uint32_t age = 0;
        bool valid = false;
    };
    using StaleCache = std::vector<std::vector<StaleSlot>>;  ///< [plan][layer]

    /// What the receiver of one plan aggregates in the current exchange.
    enum class Arrival : std::uint8_t {
        kFresh,  ///< the plan's stage, as delivered this exchange
        kStale,  ///< the stale slot's last delivered block
        kZero,   ///< zeros: the send failed before any delivery
    };

    /// Send phase for plan `plan_idx`: compress its stage (the halo rows
    /// when `forward`, else their gradients), price the block on the
    /// fabric and settle the stale slot. On delivery the compressor output
    /// is copied back into the stage.
    Arrival send(bool forward, std::size_t plan_idx, int layer,
                 ExchangeTally& tally);

    /// Land phase for plan `plan_idx`: the block its receiver aggregates.
    /// A delivered block also refreshes the plan's stale slot; a cold miss
    /// zeroes the stage. Plans own their stage and slots, so concurrent
    /// calls for different plans do not race.
    const tensor::Matrix& landed(StaleCache& cache, std::size_t plan_idx,
                                 int layer);

    /// Record this step's per-partition compute on the timeline and close
    /// the step.
    void end_timeline_step();

    const DistContext* ctx_;
    comm::Fabric* fabric_;
    BoundaryCompressor* comp_;
    comm::Timeline* timeline_;  ///< null outside overlap mode
    /// Elastic ownership map (nullable = static identity routing).
    const runtime::ClusterState* cluster_ = nullptr;
    StaleCache stale_fwd_;  ///< sized only under an active fault model
    StaleCache stale_bwd_;
    // Plan indices per partition, ascending: the plans it sends halo rows
    // on (src) and the plans it receives them on (dst).
    std::vector<std::vector<std::uint32_t>> plans_from_;
    std::vector<std::vector<std::uint32_t>> plans_to_;
    // Per-plan stage: packed rows in, delivered block out. Each plan keeps
    // its own buffer so its capacity never exceeds the plan's size.
    std::vector<tensor::Matrix> stage_;
    std::vector<Arrival> arrival_;  ///< per plan, this exchange
    tensor::Matrix wire_;           ///< compressor output, reused per plan
    // Per-partition reused buffers: each parallel chunk owns exactly one
    // slot, so the vectors are sized once and the matrices keep their
    // capacity across epochs (allocation-free steady state).
    std::vector<tensor::Matrix> stacked_;       ///< fwd [local ; halo] stacks
    std::vector<tensor::Matrix> gp_;            ///< bwd gathered local grads
    std::vector<tensor::Matrix> stacked_grad_;  ///< bwd Âᵀ·gp results
    std::vector<tensor::SparseMatrix> adj_t_;   ///< local_adj(p) transposed
    std::vector<double> part_s_;                ///< timeline compute seconds
    FaultSummary fault_;
};

/// Distributed training-loop configuration.
struct DistTrainConfig {
    /// Everything that shapes how the fabric prices, schedules and
    /// recovers the epoch's traffic, grouped so the config stops growing
    /// flat comm fields. New comm-facing knobs go here.
    struct CommPolicy {
        /// α–β cost model of the fabric links.
        scgnn::comm::CostModel cost{};
        /// How epoch time is derived from the epoch's events: kAdditive
        /// keeps the legacy `compute + comm` sum (golden-pinned);
        /// kOverlap schedules the per-link FIFO timeline and reports its
        /// makespan.
        scgnn::comm::CostModel::Mode mode =
            scgnn::comm::CostModel::Mode::kAdditive;
        /// Also charge the per-epoch ring all-reduce of the weight
        /// gradients to the fabric (2·(P−1)/P · |params| bytes per
        /// device, as a real synchronous data-parallel run pays). Off by
        /// default because the paper's volumes count only
        /// embeddings/gradients of nodes.
        bool count_weight_sync = false;
        /// Fault schedule injected into the fabric (inactive by default,
        /// in which case the run is byte-identical to a fault-free
        /// build).
        scgnn::comm::FaultModel fault{};
        /// Retry/timeout/backoff policy governing fault recovery.
        scgnn::comm::RetryPolicy retry{};
        /// Shape of the fabric (flat by default, where every link uses
        /// `cost`). A hierarchical spec groups the partitions into nodes
        /// with tiered links; `cost` then only seeds the flat fallback.
        scgnn::comm::TopologySpec topology{};
        /// Collective algorithm pricing the weight sync when
        /// count_weight_sync is on. kRing keeps the historical ring
        /// all-reduce accounting. On the hier presets (P = 16, 64, 128)
        /// kHier models the slowest allreduce of kTree, kRing and kHier,
        /// and kTree the fastest (`bench_paper --figure collectives`).
        scgnn::comm::collective::Algo collective =
            scgnn::comm::collective::Algo::kRing;

        [[nodiscard]] bool overlap() const noexcept {
            return mode == scgnn::comm::CostModel::Mode::kOverlap;
        }
    };

    std::uint32_t epochs = 60;
    gnn::AdamConfig adam{};
    gnn::AdjNorm norm = gnn::AdjNorm::kSymmetric;
    bool record_epochs = true;  ///< keep per-epoch metrics
    /// When non-empty, the trained weights are written here (see
    /// gnn/checkpoint.hpp) after the final epoch.
    std::string checkpoint_path;
    /// The communication policy (see CommPolicy).
    CommPolicy comm{};
    /// Elastic membership schedule (runtime/membership.hpp). Inactive by
    /// default; when events are present the trainer drives a
    /// runtime::ClusterState — epoch loop over the active devices, a
    /// rebalance barrier pricing partition/replica migrations at every
    /// change epoch, and collective schedules rebuilt for the survivors.
    /// All partitions keep training whoever hosts them, so the loss
    /// trajectory is bit-identical to a static run.
    runtime::MembershipSchedule membership{};
    /// Per-epoch compression-rate schedule (dist/rate_control.hpp). The
    /// kFixed default never calls BoundaryCompressor::apply_rate(), so
    /// fixed-rate runs stay bitwise identical to the golden pins.
    RateScheduleConfig rate{};
};

/// Per-epoch observability record.
struct EpochMetrics {
    double loss = 0.0;
    double comm_mb = 0.0;      ///< bytes sent this epoch / 1e6
    double comm_ms = 0.0;      ///< modelled fabric time (additive figure)
    double compute_ms = 0.0;   ///< measured wall / num devices
    double epoch_ms = 0.0;     ///< compute_ms + comm_ms (kAdditive) or
                               ///< timeline makespan (kOverlap)
    /// Communication hidden under compute by the overlap schedule:
    /// max(0, compute_ms + comm_ms − epoch_ms). Zero in additive mode.
    double overlap_ms = 0.0;
    /// Communication the schedule could NOT hide:
    /// max(0, makespan − compute). Zero in additive mode.
    double comm_exposed_ms = 0.0;
    /// Compression fidelity the rate schedule applied this epoch
    /// (1 under the fixed default).
    double rate = 1.0;
    /// Devices active this epoch (== num_parts on a static run).
    std::uint32_t active_devices = 0;
};

/// Per-run counters of the neighbor-sampled mode (all zero on a full-batch
/// run).
struct SampleStats {
    std::uint64_t batches = 0;         ///< mini-batch steps over all epochs
    double mean_batch_nodes = 0.0;     ///< mean touched nodes per batch
    std::uint64_t requested_rows = 0;  ///< Σ halo rows requested
    std::uint64_t request_bytes = 0;   ///< Σ wire bytes of those requests
};

/// Result of a distributed run. Accuracy is evaluated on the *full*
/// uncompressed graph with the trained weights (compression is a training-
/// time mechanism, as in BNS-GCN's protocol).
struct DistTrainResult {
    std::vector<EpochMetrics> epoch_metrics;
    double train_accuracy = 0.0;
    double val_accuracy = 0.0;
    double test_accuracy = 0.0;
    double mean_epoch_ms = 0.0;
    double mean_comm_ms = 0.0;
    double mean_compute_ms = 0.0;
    double mean_overlap_ms = 0.0;       ///< zero in additive mode
    double mean_comm_exposed_ms = 0.0;  ///< zero in additive mode
    double mean_comm_mb = 0.0;    ///< per-epoch average volume
    double total_comm_mb = 0.0;
    double final_loss = 0.0;
    std::uint32_t epochs_run = 0;   ///< always the configured epochs
    FaultSummary fault;             ///< recovery counters (all-zero when
                                    ///< the fault model is inactive)
    runtime::MembershipSummary membership;  ///< elastic counters (all-zero
                                            ///< on a static run)
    SampleStats sampling;  ///< mini-batch counters (all-zero full-batch)
};

namespace detail {

/// Full-batch distributed training: one epoch step over the whole training
/// split per epoch, on the shared epoch driver (DESIGN.md §14). Not a
/// public entry point: workloads mount through runtime::Scenario, which
/// validates the config once and dispatches here (or to train_sampled).
[[nodiscard]] DistTrainResult train_full(const graph::Dataset& data,
                                         const partition::Partitioning& parts,
                                         const gnn::GnnConfig& model_cfg,
                                         const DistTrainConfig& cfg,
                                         BoundaryCompressor& compressor);

} // namespace detail

/// Neighbor-sampled mini-batch training: per-epoch seeded batches from
/// `sampler_cfg`, halo *requests* priced through the compressor's subset
/// exchange and the fabric instead of the full boundary exchange.
/// Runs on the same epoch driver as detail::train_full, so it shares its
/// rate control, overlap scheduling and report keys.
/// Membership schedules are not supported in this mode (Scenario::build
/// rejects them). Deterministic and bitwise thread-count-invariant.
[[nodiscard]] DistTrainResult train_sampled(
    const graph::Dataset& data, const partition::Partitioning& parts,
    const gnn::GnnConfig& model_cfg, const DistTrainConfig& cfg,
    const SamplerConfig& sampler_cfg, BoundaryCompressor& compressor);

} // namespace scgnn::dist
