#include "scgnn/graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace scgnn::graph {
namespace {

/// Pack an undirected pair into one u64 key (u < v) for dedup sets.
std::uint64_t edge_key(std::uint32_t u, std::uint32_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Weighted index sampling via binary search on a cumulative-sum table.
class WeightedSampler {
public:
    explicit WeightedSampler(std::vector<double> weights)
        : cum_(std::move(weights)) {
        double acc = 0.0;
        for (auto& w : cum_) {
            acc += w;
            w = acc;
        }
        total_ = acc;
    }

    [[nodiscard]] std::uint32_t draw(Rng& rng) const {
        const double t = rng.uniform() * total_;
        const auto it = std::upper_bound(cum_.begin(), cum_.end(), t);
        const auto i = static_cast<std::size_t>(it - cum_.begin());
        return static_cast<std::uint32_t>(std::min(i, cum_.size() - 1));
    }

    [[nodiscard]] double total() const noexcept { return total_; }

private:
    std::vector<double> cum_;
    double total_ = 0.0;
};

} // namespace

Graph erdos_renyi(std::uint32_t n, std::uint64_t m, Rng& rng) {
    SCGNN_CHECK(n >= 2, "erdos_renyi needs at least two nodes");
    const std::uint64_t max_edges =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    SCGNN_CHECK(m <= max_edges, "requested more edges than the graph can hold");
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(m * 2);
    std::vector<Edge> edges;
    edges.reserve(m);
    while (edges.size() < m) {
        const auto u = static_cast<std::uint32_t>(rng.uniform_u64(n));
        const auto v = static_cast<std::uint32_t>(rng.uniform_u64(n));
        if (u == v) continue;
        if (seen.insert(edge_key(u, v)).second) edges.push_back({u, v});
    }
    return Graph(n, edges);
}

Graph watts_strogatz(std::uint32_t n, std::uint32_t k, double beta, Rng& rng) {
    SCGNN_CHECK(k >= 2 && k % 2 == 0, "lattice degree k must be even and >= 2");
    SCGNN_CHECK(n > k, "need more nodes than the lattice degree");
    SCGNN_CHECK(beta >= 0.0 && beta <= 1.0, "beta must be a probability");

    std::unordered_set<std::uint64_t> seen;
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(n) * k / 2);
    // Ring lattice: node u connects to u+1 .. u+k/2 (mod n).
    for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t d = 1; d <= k / 2; ++d) {
            std::uint32_t v = (u + d) % n;
            if (rng.bernoulli(beta)) {
                // Rewire the far endpoint, avoiding self-loops/duplicates;
                // keep the lattice edge when no spot is free quickly.
                for (int attempt = 0; attempt < 16; ++attempt) {
                    const auto w = static_cast<std::uint32_t>(rng.uniform_u64(n));
                    if (w != u && !seen.count(edge_key(u, w))) {
                        v = w;
                        break;
                    }
                }
            }
            if (v != u && seen.insert(edge_key(u, v)).second)
                edges.push_back({u, v});
        }
    }
    return Graph(n, edges);
}

Graph planted_partition(const PlantedPartitionSpec& spec, Rng& rng,
                        std::vector<std::uint32_t>* community_out) {
    SCGNN_CHECK(spec.nodes >= 4, "planted partition needs at least four nodes");
    SCGNN_CHECK(spec.communities >= 1 && spec.communities <= spec.nodes,
                "community count out of range");
    SCGNN_CHECK(spec.homophily >= 0.0 && spec.homophily <= 1.0,
                "homophily must be a probability");
    SCGNN_CHECK(spec.power > 1.0, "Pareto exponent must exceed 1");
    SCGNN_CHECK(spec.avg_degree > 0.0 &&
                    spec.avg_degree < static_cast<double>(spec.nodes - 1),
                "average degree out of range");

    const std::uint32_t n = spec.nodes;
    const std::uint32_t k = spec.communities;

    // Round-robin community assignment keeps communities balanced, which is
    // what the label/feature model expects.
    std::vector<std::uint32_t> community(n);
    for (std::uint32_t i = 0; i < n; ++i) community[i] = i % k;

    // Pareto(1, power-1) node weights → heavy-tailed expected degrees.
    std::vector<double> weight(n);
    for (auto& w : weight) {
        const double u = std::max(rng.uniform(), 1e-12);
        w = std::pow(u, -1.0 / (spec.power - 1.0));
        w = std::min(w, 64.0);  // clip extreme hubs so tiny graphs stay simple
    }

    // Per-community and global weighted samplers.
    std::vector<std::vector<double>> comm_weights(k);
    std::vector<std::vector<std::uint32_t>> comm_members(k);
    for (std::uint32_t i = 0; i < n; ++i) {
        comm_weights[community[i]].push_back(weight[i]);
        comm_members[community[i]].push_back(i);
    }
    std::vector<WeightedSampler> comm_sampler;
    comm_sampler.reserve(k);
    for (auto& w : comm_weights) comm_sampler.emplace_back(w);
    WeightedSampler global_sampler(weight);

    const auto target =
        static_cast<std::uint64_t>(spec.avg_degree * n / 2.0);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(target * 2);
    std::vector<Edge> edges;
    edges.reserve(target);

    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = target * 48 + 4096;
    while (edges.size() < target && attempts++ < max_attempts) {
        const std::uint32_t u = global_sampler.draw(rng);
        std::uint32_t v;
        if (rng.bernoulli(spec.homophily)) {
            const std::uint32_t cu = community[u];
            v = comm_members[cu][comm_sampler[cu].draw(rng)];
        } else {
            v = global_sampler.draw(rng);
            if (community[v] == community[u] && k > 1) continue;
        }
        if (u == v) continue;
        if (seen.insert(edge_key(u, v)).second) edges.push_back({u, v});
    }

    if (community_out) *community_out = std::move(community);
    return Graph(n, edges);
}

} // namespace scgnn::graph
