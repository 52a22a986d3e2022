// Unit tests for the DBG/grouping analysis module.
#include <gtest/gtest.h>

#include <numeric>

#include "scgnn/core/analysis.hpp"

namespace scgnn::core {
namespace {

graph::Dbg make_dbg(std::uint32_t num_dst,
                    const std::vector<std::vector<std::uint32_t>>& rows) {
    graph::Dbg d;
    d.src_part = 0;
    d.dst_part = 1;
    d.src_nodes.resize(rows.size());
    std::iota(d.src_nodes.begin(), d.src_nodes.end(), 0u);
    d.dst_nodes.resize(num_dst);
    std::iota(d.dst_nodes.begin(), d.dst_nodes.end(), 0u);
    d.ptr = {0};
    for (const auto& sinks : rows) {
        for (std::uint32_t v : sinks) d.adj.push_back(v);
        d.ptr.push_back(d.adj.size());
    }
    return d;
}

/// Two blocks: rows 0-3 share sinks {0,1,2}, rows 4-7 share {5,6,7}.
graph::Dbg blocks() {
    std::vector<std::vector<std::uint32_t>> rows;
    for (int i = 0; i < 4; ++i) rows.push_back({0, 1, 2});
    for (int i = 0; i < 4; ++i) rows.push_back({5, 6, 7});
    return make_dbg(8, rows);
}

TEST(GroupingQuality, GoodGroupingHasHighCohesion) {
    const graph::Dbg d = blocks();
    const Grouping good = build_grouping(d, {.kmeans_k = 2, .seed = 1});
    const GroupingQuality q = evaluate_grouping(d, good);
    EXPECT_GT(q.mean_intra_similarity, 1.0);
    EXPECT_NEAR(q.mean_inter_similarity, 0.0, 1e-9);
    EXPECT_GT(q.cohesion_ratio, 100.0);
    EXPECT_NEAR(q.coverage, 1.0, 1e-12);
    EXPECT_GT(q.compression_ratio, 10.0);
    EXPECT_DOUBLE_EQ(q.mean_group_size, 12.0);
}

TEST(GroupingQuality, MixedGroupingScoresLower) {
    const graph::Dbg d = blocks();
    // Force everything into one group: intra now mixes the blocks.
    const Grouping mixed = build_grouping(d, {.kmeans_k = 1, .seed = 1});
    const Grouping split = build_grouping(d, {.kmeans_k = 2, .seed = 1});
    const GroupingQuality qm = evaluate_grouping(d, mixed);
    const GroupingQuality qs = evaluate_grouping(d, split);
    EXPECT_LT(qm.mean_intra_similarity, qs.mean_intra_similarity);
}

TEST(GroupingQuality, EmptyDbgIsNeutral) {
    graph::Dbg d;
    Grouping g;
    const GroupingQuality q = evaluate_grouping(d, g);
    EXPECT_EQ(q.coverage, 0.0);
    EXPECT_EQ(q.mean_intra_similarity, 0.0);
}

TEST(GroupingQuality, SubsamplingBoundsWork) {
    const graph::Dbg d = blocks();
    const Grouping g = build_grouping(d, {.kmeans_k = 2, .seed = 1});
    const GroupingQuality full = evaluate_grouping(d, g, 64);
    const GroupingQuality sub = evaluate_grouping(d, g, 2);
    // Subsampled estimate stays in the same regime.
    EXPECT_GT(sub.mean_intra_similarity, 0.5 * full.mean_intra_similarity);
    EXPECT_THROW((void)evaluate_grouping(d, g, 1), Error);
}

} // namespace
} // namespace scgnn::core
