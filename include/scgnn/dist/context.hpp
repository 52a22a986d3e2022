#pragma once
/// \file context.hpp
/// \brief Everything static about a distributed training run: per-partition
///        local graphs, halo (remote-neighbour) indices, and the exchange
///        plans that say which boundary rows travel between which devices.
///
/// Volume accounting follows the paper's transmission model (Fig. 7(a)):
/// the vanilla scheme transmits one message per cross-partition *edge*, so
/// a boundary node with d cross edges into a partition costs d row
/// transfers there. SC-GNN's group compression replaces all edges of a
/// group with a single semantic row (Fig. 7(b)); the compression ratio is
/// |E_group| : 1, which is exactly what Figs. 9/10 report.

#include <cstdint>
#include <span>
#include <vector>

#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace scgnn::dist {

/// The halo-exchange plan for one ordered partition pair (src → dst).
/// Row order is canonical: row i corresponds to dbg.src_nodes[i].
struct PairPlan {
    std::uint32_t src_part = 0;
    std::uint32_t dst_part = 0;
    graph::Dbg dbg;  ///< bipartite structure (compressors key off this)
    std::vector<std::uint32_t> src_local_rows;  ///< local row in src partition
    std::vector<std::uint32_t> dst_halo_slots;  ///< halo slot in dst partition

    /// Number of boundary rows this plan moves (|U| of the DBG).
    [[nodiscard]] std::uint32_t num_rows() const noexcept {
        return dbg.num_src();
    }

    /// Number of cross edges the plan covers — the per-edge vanilla cost.
    [[nodiscard]] std::uint64_t num_edges() const noexcept {
        return dbg.num_edges();
    }
};

/// Static distributed-training context for a dataset + partitioning.
class DistContext {
public:
    /// Build all local structures. `data.graph` is partitioned by `parts`;
    /// `norm` selects the aggregation normalisation (degrees are global, as
    /// in real systems where normalisation happens before partitioning).
    DistContext(const graph::Dataset& data, const partition::Partitioning& parts,
                gnn::AdjNorm norm);

    /// Number of partitions / logical devices.
    [[nodiscard]] std::uint32_t num_parts() const noexcept { return p_; }

    /// Feature width of the dataset.
    [[nodiscard]] std::uint32_t feature_dim() const noexcept { return feat_dim_; }

    /// Global node ids owned by partition p, ascending.
    [[nodiscard]] std::span<const std::uint32_t> local_nodes(std::uint32_t p) const;

    /// Global node ids of partition p's halo slots (remote neighbours),
    /// ascending; slot i of the halo block is halo(p)[i].
    [[nodiscard]] std::span<const std::uint32_t> halo(std::uint32_t p) const;

    /// Owner partition of each halo slot, parallel to halo(p).
    [[nodiscard]] std::span<const std::uint32_t> halo_owner(std::uint32_t p) const;

    /// Local aggregation matrix of partition p: shape
    /// (|local| × (|local| + |halo|)); columns [0,|local|) are local nodes,
    /// the rest are halo slots.
    [[nodiscard]] const tensor::SparseMatrix& local_adj(std::uint32_t p) const;

    /// Local row index of global node `g` within its owner partition.
    [[nodiscard]] std::uint32_t local_index(std::uint32_t g) const;

    /// Owner partition of global node `g`.
    [[nodiscard]] std::uint32_t owner(std::uint32_t g) const;

    /// All ordered-pair exchange plans (only pairs with ≥1 cross edge).
    [[nodiscard]] std::span<const PairPlan> plans() const noexcept {
        return plans_;
    }

    /// Total cross-partition edges over all plans — the per-epoch, per-
    /// exchange vanilla row-transfer count.
    [[nodiscard]] std::uint64_t total_cross_edges() const noexcept;

    /// Bytes one vanilla exchange of an f-wide matrix costs (per-edge model).
    [[nodiscard]] std::uint64_t vanilla_exchange_bytes(std::uint32_t f) const noexcept {
        return total_cross_edges() * f * sizeof(float);
    }

private:
    /// Halo, halo owners and local aggregation matrix of partition p; the
    /// ctor runs one call per partition in parallel.
    void build_partition(const graph::Graph& g,
                         const tensor::SparseMatrix& global_adj,
                         std::uint32_t p);

    std::uint32_t p_ = 0;
    std::uint32_t feat_dim_ = 0;
    std::vector<std::vector<std::uint32_t>> local_nodes_;
    std::vector<std::vector<std::uint32_t>> halo_;
    std::vector<std::vector<std::uint32_t>> halo_owner_;
    std::vector<tensor::SparseMatrix> local_adj_;
    std::vector<std::uint32_t> local_index_;  ///< per global node
    std::vector<std::uint32_t> owner_;        ///< per global node
    std::vector<PairPlan> plans_;
};

} // namespace scgnn::dist
