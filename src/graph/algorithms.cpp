#include "scgnn/graph/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace scgnn::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, std::uint32_t source) {
    SCGNN_CHECK(source < g.num_nodes(), "source out of range");
    constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> dist(g.num_nodes(), kInf);
    dist[source] = 0;
    std::queue<std::uint32_t> q;
    q.push(source);
    while (!q.empty()) {
        const std::uint32_t u = q.front();
        q.pop();
        for (std::uint32_t v : g.neighbors(u)) {
            if (dist[v] == kInf) {
                dist[v] = dist[u] + 1;
                q.push(v);
            }
        }
    }
    return dist;
}

double local_clustering(const Graph& g, std::uint32_t u) {
    const auto nb = g.neighbors(u);
    if (nb.size() < 2) return 0.0;
    std::uint64_t closed = 0;
    for (std::size_t i = 0; i < nb.size(); ++i)
        for (std::size_t j = i + 1; j < nb.size(); ++j)
            if (g.has_edge(nb[i], nb[j])) ++closed;
    const double wedges =
        static_cast<double>(nb.size()) * (nb.size() - 1) / 2.0;
    return static_cast<double>(closed) / wedges;
}

double average_clustering(const Graph& g) {
    if (g.num_nodes() == 0) return 0.0;
    double total = 0.0;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
        total += local_clustering(g, u);
    return total / g.num_nodes();
}

double approx_average_distance(const Graph& g, std::uint32_t samples,
                               Rng& rng) {
    SCGNN_CHECK(samples >= 1, "need at least one sample source");
    if (g.num_nodes() < 2) return 0.0;
    constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
    double total = 0.0;
    std::uint64_t pairs = 0;
    const std::uint32_t n_samples = std::min(samples, g.num_nodes());
    const auto sources =
        rng.sample_without_replacement(g.num_nodes(), n_samples);
    for (std::uint32_t s : sources) {
        const auto dist = bfs_distances(g, s);
        for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
            if (u == s || dist[u] == kInf) continue;
            total += dist[u];
            ++pairs;
        }
    }
    return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

} // namespace scgnn::graph
