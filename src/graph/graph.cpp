#include "scgnn/graph/graph.hpp"

#include <algorithm>

namespace scgnn::graph {

Graph::Graph(std::uint32_t num_nodes, std::span<const Edge> edges) : n_(num_nodes) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dir;
    dir.reserve(edges.size() * 2);
    for (const Edge& e : edges) {
        SCGNN_CHECK(e.u < n_ && e.v < n_, "edge endpoint out of range");
        SCGNN_CHECK(e.u != e.v, "self-loops are not allowed");
        dir.emplace_back(e.u, e.v);
        dir.emplace_back(e.v, e.u);
    }
    std::sort(dir.begin(), dir.end());
    dir.erase(std::unique(dir.begin(), dir.end()), dir.end());

    ptr_.assign(n_ + 1, 0);
    adj_.resize(dir.size());
    for (const auto& [u, v] : dir) ++ptr_[u + 1];
    for (std::uint32_t u = 0; u < n_; ++u) ptr_[u + 1] += ptr_[u];
    std::vector<std::uint64_t> cursor(ptr_.begin(), ptr_.end() - 1);
    for (const auto& [u, v] : dir) adj_[cursor[u]++] = v;
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
    SCGNN_CHECK(u < n_ && v < n_, "node id out of range");
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
}

double Graph::average_degree() const noexcept {
    if (n_ == 0) return 0.0;
    return static_cast<double>(adj_.size()) / static_cast<double>(n_);
}

double Graph::density() const noexcept {
    if (n_ < 2) return 0.0;
    return static_cast<double>(adj_.size()) /
           (static_cast<double>(n_) * static_cast<double>(n_ - 1));
}

std::vector<Edge> Graph::edge_list() const {
    std::vector<Edge> out;
    out.reserve(num_edges());
    for (std::uint32_t u = 0; u < n_; ++u)
        for (std::uint32_t v : neighbors(u))
            if (u < v) out.push_back({u, v});
    return out;
}

std::uint32_t Graph::max_degree() const noexcept {
    std::uint32_t best = 0;
    for (std::uint32_t u = 0; u < n_; ++u)
        best = std::max(best,
                        static_cast<std::uint32_t>(ptr_[u + 1] - ptr_[u]));
    return best;
}

} // namespace scgnn::graph
