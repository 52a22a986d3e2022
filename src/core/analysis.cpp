#include "scgnn/core/analysis.hpp"

#include <algorithm>

namespace scgnn::core {

GroupingQuality evaluate_grouping(const graph::Dbg& dbg,
                                  const Grouping& grouping,
                                  std::uint32_t max_pair_members) {
    SCGNN_CHECK(max_pair_members >= 2, "need at least two members per group");
    GroupingQuality q;
    q.compression_ratio = grouping.compression_ratio(dbg);
    q.coverage =
        dbg.num_edges() == 0
            ? 0.0
            : static_cast<double>(grouping.grouped_edges()) /
                  static_cast<double>(dbg.num_edges());
    if (!grouping.groups.empty())
        q.mean_group_size = static_cast<double>(grouping.grouped_edges()) /
                            static_cast<double>(grouping.groups.size());

    // Deterministic subsample of each M2M group's members.
    std::vector<std::vector<std::uint32_t>> samples;
    for (const SemanticGroup& g : grouping.groups) {
        if (g.origin != graph::ConnectionType::kM2M || g.members.size() < 2)
            continue;
        std::vector<std::uint32_t> pick;
        const std::size_t stride =
            std::max<std::size_t>(1, g.members.size() / max_pair_members);
        for (std::size_t i = 0; i < g.members.size(); i += stride)
            pick.push_back(g.members[i]);
        if (pick.size() >= 2) samples.push_back(std::move(pick));
    }

    double intra = 0.0;
    std::size_t intra_pairs = 0;
    for (const auto& members : samples)
        for (std::size_t i = 0; i < members.size(); ++i)
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                intra += semantic_similarity(dbg.out_neighbors(members[i]),
                                             dbg.out_neighbors(members[j]));
                ++intra_pairs;
            }
    if (intra_pairs > 0) q.mean_intra_similarity = intra / intra_pairs;

    double inter = 0.0;
    std::size_t inter_pairs = 0;
    for (std::size_t gi = 0; gi < samples.size(); ++gi)
        for (std::size_t gj = gi + 1; gj < samples.size(); ++gj) {
            // First representatives of each group pair keep this O(G²).
            const std::size_t cap =
                std::min<std::size_t>(4, std::min(samples[gi].size(),
                                                  samples[gj].size()));
            for (std::size_t i = 0; i < cap; ++i) {
                inter += semantic_similarity(
                    dbg.out_neighbors(samples[gi][i]),
                    dbg.out_neighbors(samples[gj][i]));
                ++inter_pairs;
            }
        }
    if (inter_pairs > 0) q.mean_inter_similarity = inter / inter_pairs;

    q.cohesion_ratio =
        q.mean_intra_similarity / std::max(1e-12, q.mean_inter_similarity);
    return q;
}

} // namespace scgnn::core
