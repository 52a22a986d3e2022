// Unit tests for the classic graph algorithms module.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "scgnn/graph/algorithms.hpp"
#include "scgnn/graph/generators.hpp"

namespace scgnn::graph {
namespace {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

Graph two_triangles() {
    return Graph(6, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2},
                                      {3, 4}, {4, 5}, {3, 5}});
}

/// Size of the largest connected component, by one BFS per component.
std::uint32_t giant_component_size(const Graph& g) {
    std::vector<char> seen(g.num_nodes(), 0);
    std::uint32_t best = 0;
    for (std::uint32_t root = 0; root < g.num_nodes(); ++root) {
        if (seen[root]) continue;
        const auto dist = bfs_distances(g, root);
        std::uint32_t size = 0;
        for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
            if (dist[u] == kInf) continue;
            seen[u] = 1;
            ++size;
        }
        best = std::max(best, size);
    }
    return best;
}

TEST(Components, DensePresetIsMostlyConnected) {
    Rng rng(3);
    PlantedPartitionSpec spec;
    spec.nodes = 500;
    spec.communities = 4;
    spec.avg_degree = 20.0;
    const Graph g = planted_partition(spec, rng, nullptr);
    EXPECT_GT(giant_component_size(g), 480u);
}

TEST(Bfs, PathDistances) {
    const Graph g(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
    const auto d = bfs_distances(g, 0);
    EXPECT_EQ(d, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Bfs, UnreachableIsInfinity) {
    const Graph g(3, std::vector<Edge>{{0, 1}});
    const auto d = bfs_distances(g, 0);
    EXPECT_EQ(d[2], kInf);
}

TEST(Bfs, ValidatesSource) {
    const Graph g(2, std::vector<Edge>{{0, 1}});
    EXPECT_THROW((void)bfs_distances(g, 2), Error);
}

TEST(Clustering, TriangleIsFullyClustered) {
    const Graph g = two_triangles();
    EXPECT_DOUBLE_EQ(local_clustering(g, 0), 1.0);
    EXPECT_DOUBLE_EQ(average_clustering(g), 1.0);
}

TEST(Clustering, StarHasZeroClustering) {
    const Graph g(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}});
    EXPECT_DOUBLE_EQ(local_clustering(g, 0), 0.0);
    EXPECT_DOUBLE_EQ(local_clustering(g, 1), 0.0);  // degree 1
}

TEST(Clustering, HalfOpenTriangle) {
    // 0-1, 0-2, 0-3, 1-2: node 0 has 3 neighbours, one closed pair of 3.
    const Graph g(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}});
    EXPECT_NEAR(local_clustering(g, 0), 1.0 / 3.0, 1e-12);
}

TEST(AverageDistance, ExactOnPath) {
    // Path 0-1-2: pair distances {1,1,2} each way → mean 4/3.
    const Graph g(3, std::vector<Edge>{{0, 1}, {1, 2}});
    Rng rng(1);
    EXPECT_NEAR(approx_average_distance(g, 3, rng), 4.0 / 3.0, 1e-12);
}

TEST(AverageDistance, IgnoresUnreachablePairs) {
    const Graph g(4, std::vector<Edge>{{0, 1}, {2, 3}});
    Rng rng(2);
    EXPECT_NEAR(approx_average_distance(g, 4, rng), 1.0, 1e-12);
}

TEST(AverageDistance, SmallWorldShortcutsShortenPaths) {
    Rng g1(3), g2(3), s1(4), s2(4);
    const Graph lattice = watts_strogatz(400, 6, 0.0, g1);
    const Graph rewired = watts_strogatz(400, 6, 0.2, g2);
    EXPECT_LT(approx_average_distance(rewired, 20, s2),
              0.6 * approx_average_distance(lattice, 20, s1));
}

TEST(AverageDistance, DegenerateInputs) {
    Rng rng(5);
    EXPECT_EQ(approx_average_distance(Graph{}, 3, rng), 0.0);
    EXPECT_THROW((void)approx_average_distance(two_triangles(), 0, rng),
                 Error);
}

} // namespace
} // namespace scgnn::graph
