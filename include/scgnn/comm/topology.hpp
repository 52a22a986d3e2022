#pragma once
/// \file topology.hpp
/// \brief Datacenter-shaped fabric topologies: devices grouped into nodes
///        with tiered links — fast intra-node (NVLink/shared-memory class)
///        and slow, oversubscribed inter-node (Ethernet class) α–β
///        parameters — plus the large-P presets the scaling benches use.
///
/// The paper's testbed is a single box (4 GPUs, one flat all-to-all link
/// tier), but DistGNN-style deployments are hierarchies: the cost of an
/// exchange depends on whether the two devices share a node. A Topology
/// answers exactly that question for the fabric: `link(src, dst)` resolves
/// the α–β model of a directed device pair from its tier. Inter-node links
/// additionally model core-layer oversubscription — the classic fat-tree
/// economy where N node uplinks share N/oversubscription of core
/// bandwidth — by dividing the inter-tier bandwidth by the
/// oversubscription factor once, at construction.
///
/// A *flat* topology (the default everywhere) is the degenerate single-tier
/// case: every device is its own node and every link uses one global model,
/// so a Fabric built over it is bit-identical to the historical flat
/// fabric. This keeps the golden-pinned defaults unchanged while the
/// hierarchical presets open the P=16/64/128 regime.

#include <cstdint>
#include <string>

#include "scgnn/common/error.hpp"

namespace scgnn::comm {

/// α–β point-to-point cost model of one link tier.
struct CostModel {
    /// How the trainer turns per-epoch costs into an epoch time. Lives
    /// here (not on the trainer) because it is a property of the cost
    /// model semantics: kAdditive keeps the legacy serial sum
    /// `epoch = compute + comm`; kOverlap schedules compute and comm
    /// events on a per-link FIFO timeline (comm/timeline.hpp) and reports
    /// the makespan.
    enum class Mode : std::uint8_t { kAdditive = 0, kOverlap = 1 };

    double latency_s = 50e-6;              ///< α: per-message latency
    double bandwidth_bytes_per_s = 250e6;  ///< 1/β: per-link bandwidth

    /// Time to move `bytes` in `messages` discrete sends over this tier.
    [[nodiscard]] double seconds(std::uint64_t bytes,
                                 std::uint64_t messages) const noexcept {
        return latency_s * static_cast<double>(messages) +
               static_cast<double>(bytes) / bandwidth_bytes_per_s;
    }
};

/// Declarative topology description, carried by DistTrainConfig::CommPolicy
/// (and the `--topology` flag) before the device count is known. The
/// trainer materialises it with Topology::build() once the partition count
/// is fixed.
struct TopologySpec {
    enum class Kind : std::uint8_t { kFlat = 0, kHierarchical = 1 };

    Kind kind = Kind::kFlat;
    std::uint32_t nodes = 0;             ///< hierarchical: node count
    std::uint32_t devices_per_node = 0;  ///< hierarchical: devices per node
    /// Fast intra-node tier (defaults ≈ a shared-memory/NVLink class link:
    /// 10× lower latency, 20× higher bandwidth than the flat default).
    CostModel intra{5e-6, 5e9};
    /// Slow inter-node tier before oversubscription (Ethernet class).
    CostModel inter{50e-6, 1e9};
    /// Core-layer oversubscription: effective inter-node bandwidth is
    /// inter.bandwidth_bytes_per_s / oversubscription.
    double oversubscription = 1.0;

    [[nodiscard]] bool hierarchical() const noexcept {
        return kind == Kind::kHierarchical;
    }

    /// The standard large-P presets (4×4, 8×8, 16×8): deeper fabrics ride
    /// progressively more oversubscribed cores, so the inter-node tier is
    /// the binding constraint exactly as in a real fat-tree.
    [[nodiscard]] static TopologySpec preset(std::uint32_t num_devices);
};

/// Parse a `--topology` value: "flat" or "hier:NxM" (N nodes × M devices
/// per node, standard tier parameters with preset oversubscription when
/// N·M matches a preset size). Returns false on a malformed value.
[[nodiscard]] bool parse_topology(const char* s, TopologySpec& out);

/// Printable form of a spec ("flat" or "hier:NxM").
[[nodiscard]] std::string topology_name(const TopologySpec& spec);

/// Materialised topology over a concrete device count: the node grouping
/// (devices [n·M, (n+1)·M) live on node n) plus the per-tier cost models.
/// Immutable once built; the Fabric consults it on every link resolution.
class Topology {
public:
    /// Single-tier topology: every device is its own node, every link uses
    /// `model`. A fabric over this behaves exactly like the historical
    /// flat fabric.
    [[nodiscard]] static Topology flat(std::uint32_t num_devices,
                                       CostModel model = {});

    /// Two-tier topology of `nodes` × `devices_per_node` devices.
    /// `oversubscription` (>= 1) divides the inter-tier bandwidth.
    [[nodiscard]] static Topology hierarchical(std::uint32_t nodes,
                                               std::uint32_t devices_per_node,
                                               CostModel intra, CostModel inter,
                                               double oversubscription = 1.0);

    /// Materialise a spec for a concrete device count. A flat spec uses
    /// `flat_model` for the single tier; a hierarchical spec must satisfy
    /// nodes × devices_per_node == num_devices (checked).
    [[nodiscard]] static Topology build(const TopologySpec& spec,
                                        std::uint32_t num_devices,
                                        CostModel flat_model = {});

    [[nodiscard]] std::uint32_t num_devices() const noexcept { return n_; }
    [[nodiscard]] std::uint32_t num_nodes() const noexcept { return nodes_; }
    [[nodiscard]] std::uint32_t devices_per_node() const noexcept {
        return per_node_;
    }
    [[nodiscard]] bool hierarchical() const noexcept { return hier_; }
    [[nodiscard]] double oversubscription() const noexcept { return oversub_; }

    /// Node that hosts `device`.
    [[nodiscard]] std::uint32_t node_of(std::uint32_t device) const {
        SCGNN_CHECK(device < n_, "device id out of range");
        return device / per_node_;
    }

    /// Rank of `device` within its node.
    [[nodiscard]] std::uint32_t local_of(std::uint32_t device) const {
        SCGNN_CHECK(device < n_, "device id out of range");
        return device % per_node_;
    }

    /// First device (collective leader) of `node`.
    [[nodiscard]] std::uint32_t leader_of(std::uint32_t node) const {
        SCGNN_CHECK(node < nodes_, "node id out of range");
        return node * per_node_;
    }

    /// True when both devices share a node (never for flat topologies,
    /// where each device is its own node).
    [[nodiscard]] bool intra_node(std::uint32_t a, std::uint32_t b) const {
        return node_of(a) == node_of(b);
    }

    /// The α–β tier governing the directed link src→dst: the intra model
    /// for same-node pairs, the oversubscribed inter model otherwise.
    /// Flat topologies always return the single tier.
    [[nodiscard]] const CostModel& link(std::uint32_t src,
                                        std::uint32_t dst) const {
        SCGNN_CHECK(src != dst, "self-links have no tier");
        return intra_node(src, dst) ? intra_ : inter_effective_;
    }

    /// The fast same-node tier (the single tier on flat topologies).
    [[nodiscard]] const CostModel& intra_tier() const noexcept {
        return intra_;
    }

    /// The cross-node tier with oversubscription already folded into its
    /// bandwidth (the single tier on flat topologies).
    [[nodiscard]] const CostModel& inter_tier() const noexcept {
        return inter_effective_;
    }

    /// Hierarchical ledger key of one device: "n<node>.d<local>" so
    /// per-link obs counters never alias across nodes; flat topologies
    /// keep the historical bare device id.
    [[nodiscard]] std::string device_key(std::uint32_t device) const;

private:
    Topology() = default;

    std::uint32_t n_ = 1;
    std::uint32_t nodes_ = 1;
    std::uint32_t per_node_ = 1;
    bool hier_ = false;
    double oversub_ = 1.0;
    CostModel intra_{};
    CostModel inter_effective_{};  ///< inter with oversubscription applied
};

} // namespace scgnn::comm
