#pragma once
/// \file fabric.hpp
/// \brief Simulated multi-device communication fabric.
///
/// The paper's testbed (4×RTX-4090 over gloo) is replaced by an in-process
/// fabric: partitions are logical devices, payloads move through shared
/// memory, and the fabric's job is byte-exact accounting plus an α–β
/// (latency + size/bandwidth) epoch-time model. Per-device NIC
/// serialisation is modelled by charging each device the max of its
/// (in + out) traffic — the congestion shape a gloo all-to-all shows.
/// Defaults are calibrated in DESIGN.md so that the vanilla Reddit preset
/// reproduces the paper's comm-dominated epoch profile (Fig. 2(b): ~66%
/// communication).

#include <cstdint>
#include <vector>

#include "scgnn/comm/fault.hpp"
#include "scgnn/comm/topology.hpp"
#include "scgnn/common/error.hpp"

namespace scgnn::comm {

/// α–β point-to-point cost model.
struct CostModel {
    /// How the trainer turns per-epoch costs into an epoch time. Lives
    /// here (not on the trainer) because it is a property of the cost
    /// model semantics: kAdditive keeps the legacy serial sum
    /// `epoch = compute + comm`; kOverlap schedules compute and comm
    /// events on a per-link FIFO timeline (comm/timeline.hpp) and reports
    /// the makespan.
    enum class Mode : std::uint8_t { kAdditive = 0, kOverlap = 1 };

    double latency_s = 50e-6;              ///< α: per-message latency
    double bandwidth_bytes_per_s = 250e6;  ///< 1/β: effective link bandwidth

    /// Time to move `bytes` in `messages` discrete sends.
    [[nodiscard]] double seconds(std::uint64_t bytes,
                                 std::uint64_t messages) const noexcept {
        return latency_s * static_cast<double>(messages) +
               static_cast<double>(bytes) / bandwidth_bytes_per_s;
    }
};

/// Aggregate traffic counters.
struct TrafficStats {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;

    void merge(const TrafficStats& o) noexcept {
        bytes += o.bytes;
        messages += o.messages;
    }
};

/// Byte-accounting fabric between `num_devices` logical devices.
///
/// Usage per epoch: call record() or send() for every logical send, then
/// end_epoch() to close the epoch. Epoch comm time is modelled, not
/// measured — payloads never leave the process.
class Fabric {
public:
    /// A fabric over `num_devices` devices (>= 1) with the given cost
    /// model on a flat (single-tier) topology.
    explicit Fabric(std::uint32_t num_devices, CostModel model = {});

    /// A fabric shaped by `topo`: links resolve their α–β parameters from
    /// the topology tier of each device pair (fast intra-node, slow
    /// oversubscribed inter-node) instead of one global model. A flat
    /// topology reproduces the legacy single-tier fabric bit for bit; the
    /// fabric-wide cost_model() defaults to the inter-node tier (the
    /// binding constraint at datacenter shape).
    explicit Fabric(const Topology& topo);

    /// Number of devices.
    [[nodiscard]] std::uint32_t num_devices() const noexcept { return n_; }

    /// The topology shaping the link tiers (flat unless constructed from
    /// a hierarchical Topology).
    [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

    /// The cost model in force.
    [[nodiscard]] const CostModel& cost_model() const noexcept { return model_; }

    /// Record one logical send of `bytes` bytes from device `src` to `dst`.
    /// Zero-byte sends still count a message (headers cross the wire).
    /// Never subject to faults — use send() for fault-aware transfers.
    void record(std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
                std::uint64_t messages = 1);

    /// Fault-aware send: runs the configured FaultModel/RetryPolicy over
    /// the transfer. With an inactive fault model this is exactly
    /// record() (one attempt, delivered, zero penalty). Dropped attempts
    /// still charge their wire bytes (the payload left the NIC); attempts
    /// into a down link charge nothing; every failed attempt adds the ack
    /// timeout, and every retry adds exponential backoff — all folded
    /// into the sender's modelled epoch time. The schedule is a pure
    /// function of (fault seed, link, per-link attempt counter): bitwise
    /// reproducible at any thread count.
    SendOutcome send(std::uint32_t src, std::uint32_t dst,
                     std::uint64_t bytes, std::uint64_t messages = 1);

    /// Install a fault schedule (validated against the device count).
    void set_fault_model(FaultModel model);

    /// The fault schedule in force (inactive by default).
    [[nodiscard]] const FaultModel& fault_model() const noexcept {
        return fault_;
    }

    /// Install the retry/timeout policy used by send().
    void set_retry_policy(RetryPolicy policy);

    /// True when the directed link is inside a scheduled down window at
    /// the fabric's current epoch (= number of closed epochs).
    [[nodiscard]] bool link_down(std::uint32_t src, std::uint32_t dst) const;

    /// Fault counters of the current (un-ended) epoch.
    [[nodiscard]] const FaultStats& epoch_fault_stats() const noexcept {
        return epoch_fault_;
    }

    /// Fault counters summed over all epochs including the current one.
    [[nodiscard]] FaultStats fault_stats() const noexcept;

    /// The model governing a directed link: the topology tier of the pair
    /// (intra- vs inter-node), or the fabric-wide model on a flat
    /// topology.
    [[nodiscard]] const CostModel& link_model(std::uint32_t src,
                                              std::uint32_t dst) const;

    /// Traffic of the current (un-ended) epoch.
    [[nodiscard]] TrafficStats epoch_stats() const noexcept;

    /// Current-epoch traffic from `src` to `dst`.
    [[nodiscard]] TrafficStats pair_stats(std::uint32_t src,
                                          std::uint32_t dst) const;

    /// Modelled communication time of the current epoch: max over devices
    /// of the α–β cost of that device's in+out traffic (NIC serialisation;
    /// different devices transfer in parallel) plus the sender-side
    /// timeout/backoff penalties send() accumulated on that device's
    /// out-links.
    [[nodiscard]] double epoch_comm_seconds() const noexcept;

    /// Close the current epoch: rolls its fault counters into the totals
    /// and clears the per-pair counters. The fault model and retry policy
    /// stay in force.
    void end_epoch();

    /// Number of closed epochs.
    [[nodiscard]] std::uint32_t epochs() const noexcept { return epoch_; }

private:
    /// Push this epoch's fabric/link metrics into the obs registry.
    /// Called from end_epoch() only when observability is enabled.
    void publish_epoch_metrics() const;

    /// Next deterministic uniform draw in [0, 1) for a link's fault
    /// stream: splitmix64 over (seed, link index, per-link counter).
    [[nodiscard]] double fault_u01(std::size_t link);

    [[nodiscard]] std::size_t idx(std::uint32_t src, std::uint32_t dst) const {
        SCGNN_CHECK(src < n_ && dst < n_, "device id out of range");
        SCGNN_CHECK(src != dst, "self-sends do not cross the fabric");
        return static_cast<std::size_t>(src) * n_ + dst;
    }

    /// Ledger key of one directed link ("0->1" on flat fabrics,
    /// "n0.d0->n1.d2" on hierarchical ones, so per-link counters never
    /// alias across nodes).
    [[nodiscard]] std::string link_key(std::uint32_t src,
                                       std::uint32_t dst) const;

    std::uint32_t n_;
    Topology topo_;      ///< link-tier resolution (flat by default)
    CostModel model_;
    CostModel intra_cm_; ///< topology intra tier as a CostModel
    CostModel inter_cm_; ///< topology inter tier (oversubscription folded)
    std::vector<TrafficStats> pair_;           ///< n×n current-epoch counters
    std::uint32_t epoch_ = 0;                  ///< closed epochs
    FaultModel fault_;                         ///< inactive by default
    RetryPolicy retry_;
    std::vector<std::uint64_t> fault_counter_; ///< n×n per-link draw counters
    std::vector<double> pair_penalty_;         ///< n×n current-epoch penalties
    FaultStats epoch_fault_;                   ///< current-epoch counters
    FaultStats total_fault_;                   ///< closed-epoch counters
};

} // namespace scgnn::comm
