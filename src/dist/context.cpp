#include "scgnn/dist/context.hpp"

#include <algorithm>

#include "scgnn/common/parallel.hpp"
#include "scgnn/obs/trace.hpp"

namespace scgnn::dist {

DistContext::DistContext(const graph::Dataset& data,
                         const partition::Partitioning& parts,
                         gnn::AdjNorm norm)
    : p_(parts.num_parts),
      feat_dim_(static_cast<std::uint32_t>(data.features.cols())) {
    SCGNN_TRACE_SPAN("dist.context");
    const graph::Graph& g = data.graph;
    SCGNN_CHECK(parts.part_of.size() == g.num_nodes(),
                "partitioning does not cover the graph");
    SCGNN_CHECK(p_ >= 2, "distributed context needs at least two partitions");

    const std::uint32_t n = g.num_nodes();
    owner_.assign(parts.part_of.begin(), parts.part_of.end());
    local_nodes_.resize(p_);
    for (std::uint32_t u = 0; u < n; ++u) {
        SCGNN_CHECK(owner_[u] < p_, "partition id out of range");
        local_nodes_[owner_[u]].push_back(u);  // ascending since u ascends
    }
    local_index_.assign(n, 0);
    for (std::uint32_t p = 0; p < p_; ++p)
        for (std::uint32_t i = 0; i < local_nodes_[p].size(); ++i)
            local_index_[local_nodes_[p][i]] = i;

    // Per partition, in parallel: the halo (remote neighbours, sorted
    // unique by global id) and the local aggregation matrix.
    // A row of Â ascends by global id, and so do both the partition's
    // nodes and its halo; the local row is therefore the same-owner
    // entries in order, then the halo entries in order, with no sort.
    const tensor::SparseMatrix global_adj = gnn::normalized_adjacency(g, norm);
    halo_.resize(p_);
    local_adj_.resize(p_);
    parallel_for(0, p_, 1, [&](std::size_t lo, std::size_t hi) {
        for (auto p = static_cast<std::uint32_t>(lo); p < hi; ++p)
            build_partition(g, global_adj, p);
    });

    // Exchange plans for every ordered pair with cross edges. The DBG's
    // sources ascend, and so does the receiver's halo, so one forward
    // search through the halo finds every slot.
    std::vector<graph::Dbg> dbgs = graph::extract_all_dbgs(g, owner_, p_);
    plans_.resize(dbgs.size());
    parallel_for(0, dbgs.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pi = lo; pi < hi; ++pi) {
            PairPlan& plan = plans_[pi];
            graph::Dbg& dbg = dbgs[pi];
            plan.src_part = dbg.src_part;
            plan.dst_part = dbg.dst_part;
            plan.src_local_rows.reserve(dbg.src_nodes.size());
            plan.dst_halo_slots.reserve(dbg.src_nodes.size());
            const std::vector<std::uint32_t>& halo = halo_[dbg.dst_part];
            auto at = halo.begin();
            for (std::uint32_t gu : dbg.src_nodes) {
                at = std::lower_bound(at, halo.end(), gu);
                SCGNN_ASSERT(at != halo.end() && *at == gu,
                             "a DBG source is a halo node of its sink side");
                plan.src_local_rows.push_back(local_index_[gu]);
                plan.dst_halo_slots.push_back(
                    static_cast<std::uint32_t>(at - halo.begin()));
            }
            plan.dbg = std::move(dbg);
        }
    });
}

void DistContext::build_partition(const graph::Graph& g,
                                  const tensor::SparseMatrix& global_adj,
                                  std::uint32_t p) {
    const std::vector<std::uint32_t>& nodes = local_nodes_[p];
    std::vector<std::uint32_t>& h = halo_[p];
    for (std::uint32_t u : nodes)
        for (std::uint32_t v : g.neighbors(u))
            if (owner_[v] != p) h.push_back(v);
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());

    const auto n_local = static_cast<std::uint32_t>(nodes.size());
    std::vector<std::uint64_t> ptr(nodes.size() + 1, 0);
    for (std::uint32_t i = 0; i < n_local; ++i)
        ptr[i + 1] = ptr[i] + global_adj.row_cols(nodes[i]).size();
    std::vector<std::uint32_t> col(ptr[n_local]);
    std::vector<float> val(ptr[n_local]);
    for (std::uint32_t i = 0; i < n_local; ++i) {
        const auto cols = global_adj.row_cols(nodes[i]);
        const auto vals = global_adj.row_vals(nodes[i]);
        std::uint64_t at = ptr[i];
        for (std::size_t e = 0; e < cols.size(); ++e) {
            if (owner_[cols[e]] != p) continue;
            col[at] = local_index_[cols[e]];
            val[at++] = vals[e];
        }
        for (std::size_t e = 0; e < cols.size(); ++e) {
            if (owner_[cols[e]] == p) continue;
            const auto slot = std::lower_bound(h.begin(), h.end(), cols[e]);
            col[at] = n_local + static_cast<std::uint32_t>(slot - h.begin());
            val[at++] = vals[e];
        }
    }
    local_adj_[p].assign(n_local,
                         n_local + static_cast<std::uint32_t>(h.size()), ptr,
                         col, val);
}

std::span<const std::uint32_t> DistContext::local_nodes(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return local_nodes_[p];
}

std::span<const std::uint32_t> DistContext::halo(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return halo_[p];
}

const tensor::SparseMatrix& DistContext::local_adj(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return local_adj_[p];
}

std::uint32_t DistContext::local_index(std::uint32_t g) const {
    SCGNN_CHECK(g < local_index_.size(), "node id out of range");
    return local_index_[g];
}

std::uint32_t DistContext::owner(std::uint32_t g) const {
    SCGNN_CHECK(g < owner_.size(), "node id out of range");
    return owner_[g];
}

std::uint64_t DistContext::total_cross_edges() const noexcept {
    std::uint64_t total = 0;
    for (const PairPlan& plan : plans_) total += plan.num_edges();
    return total;
}

} // namespace scgnn::dist
