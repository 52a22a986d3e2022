#pragma once
/// \file cluster.hpp
/// \brief ClusterState: the owner of everything the fixed-P runtime used
///        to treat as frozen — which device owns which partition, which
///        ranks the weight-sync collective spans, which devices the
///        timeline budgets compute for — rebuilt deterministically at
///        every membership transition.
///
/// The device count P itself stays frozen (Topology/Fabric/Timeline keep
/// their P slots; an absent device is a silent slot), and so does the
/// *partitioning*: the P data partitions are never re-cut mid-run. What a
/// membership change moves is the partition→device ownership map:
///
///   * a leave orphans the departing device's partitions; they are placed
///     on survivors by a greedy max-affinity pass and then polished with
///     the multilevel partitioner's label-propagation refinement
///     (partition::refine_assignment), seeded from the schedule — the
///     rebalance is bitwise deterministic at any thread count;
///   * a join hands the joiner's *home* partitions (the ones it owned at
///     epoch 0) back from their current hosts — a warm handoff — and
///     replicates the model/optimizer state onto the joiner;
///   * every ownership diff is priced: partition state bytes migrate over
///     the fabric, moved partitions invalidate their halo caches, and the
///     trainer records the whole transition as explicit timeline steps.
///
/// Compute semantics never change: all P partitions are always trained,
/// co-located partitions simply stop paying wire cost for their mutual
/// halos. That is what makes the elastic path a strict generalization —
/// the loss trajectory is bit-identical to the static run.

#include <cstdint>
#include <utility>
#include <vector>

#include "scgnn/comm/topology.hpp"
#include "scgnn/runtime/membership.hpp"

namespace scgnn::runtime {

/// Sentinel partition id for migrations that carry the replicated
/// model/optimizer state rather than a partition's rows.
inline constexpr std::uint32_t kReplicaMigration = ~std::uint32_t{0};

/// One priced state transfer of a membership transition.
struct Migration {
    std::uint32_t part = 0;         ///< partition moved (kReplicaMigration
                                    ///< for a model-replica handoff)
    std::uint32_t from_device = 0;  ///< current holder of the state
    std::uint32_t to_device = 0;    ///< new owner
    std::uint64_t bytes = 0;        ///< partition rows / replica payload
};

/// Everything that changed at one membership-change epoch, in the order
/// the trainer prices it.
struct Transition {
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> left;    ///< devices that departed
    std::vector<std::uint32_t> joined;  ///< devices that (re)joined
    std::vector<std::uint32_t> moved_parts;  ///< parts with a new owner
    std::vector<Migration> moves;         ///< partition-state transfers
    std::vector<Migration> replications;  ///< model-replica transfers
};

/// Membership-aware cluster runtime (see file comment). Construct once
/// per training run, call advance() at the top of every epoch and
/// note_epoch() once per epoch; between transitions every accessor is
/// O(1) and allocation-free, preserving the steady-state discipline.
class ClusterState {
public:
    /// Static sizing the rebalancer works from, all derived from the
    /// DistContext before training starts.
    struct Profile {
        /// Resident state bytes of each partition (feature rows — what a
        /// migration of that partition ships).
        std::vector<std::uint64_t> part_bytes;
        /// Part↔part halo coupling: affinity[p] lists (q, bytes) pairs
        /// weighted by exchanged boundary bytes. Drives both the greedy
        /// placement (co-locate chatty partitions) and the invalidation
        /// price of a move.
        std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
            affinity;
        /// Bytes of the replicated model + optimizer state a joining
        /// device must receive before it can train.
        std::uint64_t replica_bytes = 0;
    };

    /// Requires one partition per device slot (the trainer's standing
    /// P == num_parts invariant) and validates the schedule against the
    /// topology's device count.
    ClusterState(const comm::Topology& topo, MembershipSchedule schedule,
                 Profile profile);

    [[nodiscard]] const Membership& membership() const noexcept {
        return membership_;
    }

    /// Device currently hosting partition `part`.
    [[nodiscard]] std::uint32_t owner(std::uint32_t part) const {
        SCGNN_CHECK(part < owner_.size(), "cluster: partition out of range");
        return owner_[part];
    }

    /// Active device ids ascending — the epoch loop's iteration set and
    /// the rank list for rebuilt collective schedules.
    [[nodiscard]] const std::vector<std::uint32_t>& active_devices()
        const noexcept {
        return membership_.active();
    }

    /// Fire the events scheduled for `epoch` (1-based; must be called
    /// with strictly increasing epochs). Returns the transition when at
    /// least one event fired — the returned pointer stays valid until the
    /// next advance() — and nullptr on a quiet epoch. Updates the
    /// membership view, the ownership map and the summary's join/leave/
    /// migration counters; the *trainer* prices the listed moves through
    /// the fabric and adds rebuild_ms / residual bytes on top.
    const Transition* advance(std::uint32_t epoch);

    /// Record the current active count into the per-epoch trajectory.
    void note_epoch();

    [[nodiscard]] MembershipSummary& summary() noexcept { return summary_; }
    [[nodiscard]] const MembershipSummary& summary() const noexcept {
        return summary_;
    }

private:
    void rebalance(Transition& tr);

    Membership membership_;
    MembershipSchedule schedule_;  ///< events in canonical replay order
    Profile profile_;
    std::vector<std::uint32_t> owner_;  ///< partition → hosting device
    std::size_t cursor_ = 0;            ///< next unfired schedule event
    std::uint32_t last_epoch_ = 0;      ///< last advance() epoch
    Transition transition_;             ///< storage for advance()'s result
    MembershipSummary summary_;
};

} // namespace scgnn::runtime
