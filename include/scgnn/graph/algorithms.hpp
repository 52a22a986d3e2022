#pragma once
/// \file algorithms.hpp
/// \brief Classic graph algorithms used by the analysis tooling: BFS
///        distances, clustering coefficient and average path length.

#include <cstdint>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/graph/graph.hpp"

namespace scgnn::graph {

/// BFS hop distances from `source`; unreachable nodes get UINT32_MAX.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       std::uint32_t source);

/// Local clustering coefficient of node `u`: closed wedges / possible
/// wedges (0 for degree < 2).
[[nodiscard]] double local_clustering(const Graph& g, std::uint32_t u);

/// Mean local clustering coefficient over all nodes (0 for empty graphs).
[[nodiscard]] double average_clustering(const Graph& g);

/// Approximate average shortest-path length: BFS from `samples` random
/// sources, averaging hop distances to all *reachable* nodes. Returns 0
/// for graphs with < 2 nodes. The estimator converges quickly on
/// small-world and community graphs.
[[nodiscard]] double approx_average_distance(const Graph& g,
                                             std::uint32_t samples, Rng& rng);

} // namespace scgnn::graph
