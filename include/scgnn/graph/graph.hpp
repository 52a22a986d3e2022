#pragma once
/// \file graph.hpp
/// \brief Undirected simple graph in CSR form — the substrate every other
///        library (partitioning, GNN training, semantic compression) works
///        on. Node ids are dense u32 in [0, num_nodes).

#include <cstdint>
#include <span>
#include <vector>

#include "scgnn/common/error.hpp"

namespace scgnn::graph {

/// An undirected edge between two distinct nodes.
struct Edge {
    std::uint32_t u;
    std::uint32_t v;
};

/// Immutable undirected simple graph (no self-loops, no parallel edges),
/// stored as symmetric CSR. Construction deduplicates and symmetrises the
/// input edge list.
class Graph {
public:
    /// Empty graph with zero nodes.
    Graph() = default;

    /// Build from an edge list over `num_nodes` nodes. Self-loops are
    /// rejected; duplicate/parallel/reversed duplicates are merged.
    Graph(std::uint32_t num_nodes, std::span<const Edge> edges);

    /// Number of nodes.
    [[nodiscard]] std::uint32_t num_nodes() const noexcept { return n_; }

    /// Number of undirected edges (each counted once).
    [[nodiscard]] std::uint64_t num_edges() const noexcept {
        return adj_.size() / 2;
    }

    /// Degree of node `u`.
    [[nodiscard]] std::uint32_t degree(std::uint32_t u) const {
        SCGNN_CHECK(u < n_, "node id out of range");
        return static_cast<std::uint32_t>(ptr_[u + 1] - ptr_[u]);
    }

    /// Sorted neighbour list of node `u`.
    [[nodiscard]] std::span<const std::uint32_t> neighbors(std::uint32_t u) const {
        SCGNN_CHECK(u < n_, "node id out of range");
        return {adj_.data() + ptr_[u],
                static_cast<std::size_t>(ptr_[u + 1] - ptr_[u])};
    }

    /// True when {u, v} is an edge. O(log degree(u)).
    [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const;

    /// Mean degree 2|E|/|V| (0 for the empty graph).
    [[nodiscard]] double average_degree() const noexcept;

    /// Edge density 2|E| / (|V|(|V|-1)).
    [[nodiscard]] double density() const noexcept;

    /// Materialise the undirected edge list (u < v for every entry).
    [[nodiscard]] std::vector<Edge> edge_list() const;

    /// Largest node degree (0 for the empty graph).
    [[nodiscard]] std::uint32_t max_degree() const noexcept;

private:
    std::uint32_t n_ = 0;
    std::vector<std::uint64_t> ptr_{0};
    std::vector<std::uint32_t> adj_;
};

} // namespace scgnn::graph
