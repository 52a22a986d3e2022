#include "scgnn/gnn/adjacency.hpp"

#include <cmath>

#include "scgnn/common/parallel.hpp"
#include "scgnn/obs/trace.hpp"

namespace scgnn::gnn {

tensor::SparseMatrix normalized_adjacency(const graph::Graph& g, AdjNorm norm,
                                          SelfLoop self) {
    SCGNN_TRACE_SPAN("gnn.adjacency");
    const std::uint32_t n = g.num_nodes();
    const bool with_self =
        self == SelfLoop::kAdd ||
        (self == SelfLoop::kAuto && norm != AdjNorm::kSum);

    std::vector<double> deg(n);
    std::vector<std::uint64_t> ptr(static_cast<std::size_t>(n) + 1, 0);
    for (std::uint32_t u = 0; u < n; ++u) {
        const std::uint32_t row = g.degree(u) + (with_self ? 1u : 0u);
        deg[u] = static_cast<double>(row);
        ptr[u + 1] = ptr[u] + row;
    }

    auto weight = [&](std::uint32_t r, std::uint32_t c) -> float {
        if (norm == AdjNorm::kSum) return 1.0f;
        if (norm == AdjNorm::kSymmetric)
            return static_cast<float>(1.0 / std::sqrt(deg[r] * deg[c]));
        return static_cast<float>(1.0 / deg[r]);
    };

    // Row u is u's sorted neighbours with the diagonal slotted in at its
    // column: the graph has no self-loops or parallel edges, so every
    // (row, col) occurs once and the CSR needs neither a sort nor a merge.
    std::vector<std::uint32_t> col(ptr[n]);
    std::vector<float> val(ptr[n]);
    const std::size_t grain =
        grain_for(static_cast<std::size_t>(g.average_degree()) + 1);
    parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        for (auto u = static_cast<std::uint32_t>(lo); u < hi; ++u) {
            std::uint64_t at = ptr[u];
            bool self_pending = with_self;
            for (std::uint32_t v : g.neighbors(u)) {
                if (self_pending && u < v) {
                    col[at] = u;
                    val[at++] = weight(u, u);
                    self_pending = false;
                }
                col[at] = v;
                val[at++] = weight(u, v);
            }
            if (self_pending) {
                col[at] = u;
                val[at] = weight(u, u);
            }
        }
    });
    tensor::SparseMatrix adj;
    adj.assign(n, n, ptr, col, val);
    return adj;
}

} // namespace scgnn::gnn
