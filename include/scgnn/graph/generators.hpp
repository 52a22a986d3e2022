#pragma once
/// \file generators.hpp
/// \brief Synthetic graph generators.
///
/// The paper evaluates on Reddit, Yelp, Ogbn-products and PubMed; those
/// datasets are not available offline, so this module provides generators
/// whose outputs match the *shape statistics* that drive SC-GNN's behaviour
/// (average degree, degree heterogeneity, community structure / homophily).
/// See DESIGN.md §1 for the substitution rationale.

#include <cstdint>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/graph/graph.hpp"

namespace scgnn::graph {

/// G(n, m) Erdős–Rényi: exactly ~m distinct uniform random edges.
[[nodiscard]] Graph erdos_renyi(std::uint32_t n, std::uint64_t m, Rng& rng);

/// Watts–Strogatz small-world graph: a ring lattice where every node
/// connects to its `k` nearest neighbours (k even), with each edge rewired
/// to a uniform random endpoint with probability `beta`. beta=0 is the
/// pure lattice; beta=1 approaches Erdős–Rényi.
[[nodiscard]] Graph watts_strogatz(std::uint32_t n, std::uint32_t k,
                                   double beta, Rng& rng);

/// Parameters of the degree-corrected planted-partition (Chung-Lu SBM)
/// generator that backs the dataset presets.
struct PlantedPartitionSpec {
    std::uint32_t nodes = 1000;        ///< |V|
    std::uint32_t communities = 4;     ///< number of planted communities
    double avg_degree = 10.0;          ///< target mean degree 2|E|/|V|
    double homophily = 0.8;            ///< fraction of edges kept intra-community
    double power = 2.5;                ///< Pareto exponent of node weights (>1)
};

/// Degree-corrected planted-partition graph. Node weights follow a Pareto
/// law with exponent `power` (heavier tail = more hub-like nodes, as in
/// Reddit); each edge is intra-community with probability `homophily`,
/// endpoints drawn proportionally to weight. Returns the graph and fills
/// `community_out` (one community id per node) when non-null.
[[nodiscard]] Graph planted_partition(const PlantedPartitionSpec& spec,
                                      Rng& rng,
                                      std::vector<std::uint32_t>* community_out);

} // namespace scgnn::graph
