// Unit/property tests for the synthetic graph generators.
#include <gtest/gtest.h>

#include "scgnn/graph/algorithms.hpp"
#include "scgnn/graph/generators.hpp"

namespace scgnn::graph {
namespace {

TEST(ErdosRenyi, ExactEdgeCount) {
    Rng rng(1);
    const Graph g = erdos_renyi(50, 200, rng);
    EXPECT_EQ(g.num_nodes(), 50u);
    EXPECT_EQ(g.num_edges(), 200u);
}

TEST(ErdosRenyi, RejectsImpossibleRequests) {
    Rng rng(1);
    EXPECT_THROW((void)erdos_renyi(1, 0, rng), Error);
    EXPECT_THROW((void)erdos_renyi(4, 7, rng), Error);  // max is 6
}

TEST(ErdosRenyi, CompleteGraphReachable) {
    Rng rng(2);
    const Graph g = erdos_renyi(5, 10, rng);
    EXPECT_EQ(g.num_edges(), 10u);
    EXPECT_EQ(g.density(), 1.0);
}

TEST(ErdosRenyi, DeterministicBySeed) {
    Rng a(7), b(7);
    const Graph g1 = erdos_renyi(30, 60, a);
    const Graph g2 = erdos_renyi(30, 60, b);
    for (std::uint32_t u = 0; u < 30; ++u)
        EXPECT_EQ(g1.degree(u), g2.degree(u));
}

class PlantedPartitionDegrees : public ::testing::TestWithParam<double> {};

TEST_P(PlantedPartitionDegrees, HitsTargetAverageDegree) {
    PlantedPartitionSpec spec;
    spec.nodes = 2000;
    spec.communities = 4;
    spec.avg_degree = GetParam();
    Rng rng(8);
    const Graph g = planted_partition(spec, rng, nullptr);
    EXPECT_NEAR(g.average_degree(), spec.avg_degree, spec.avg_degree * 0.1);
}

INSTANTIATE_TEST_SUITE_P(DegreeSweep, PlantedPartitionDegrees,
                         ::testing::Values(4.0, 10.0, 25.0, 60.0));

TEST(PlantedPartition, CommunityAssignmentBalanced) {
    PlantedPartitionSpec spec;
    spec.nodes = 1000;
    spec.communities = 5;
    Rng rng(9);
    std::vector<std::uint32_t> community;
    (void)planted_partition(spec, rng, &community);
    ASSERT_EQ(community.size(), 1000u);
    std::vector<int> count(5, 0);
    for (auto c : community) {
        ASSERT_LT(c, 5u);
        ++count[c];
    }
    for (int c : count) EXPECT_EQ(c, 200);
}

TEST(PlantedPartition, HomophilyShapesCutEdges) {
    PlantedPartitionSpec spec;
    spec.nodes = 2000;
    spec.communities = 4;
    spec.avg_degree = 16.0;

    auto intra_fraction = [&](double homophily) {
        spec.homophily = homophily;
        Rng rng(10);
        std::vector<std::uint32_t> community;
        const Graph g = planted_partition(spec, rng, &community);
        std::uint64_t intra = 0, total = 0;
        for (const Edge& e : g.edge_list()) {
            ++total;
            if (community[e.u] == community[e.v]) ++intra;
        }
        return static_cast<double>(intra) / total;
    };

    const double high = intra_fraction(0.9);
    const double low = intra_fraction(0.3);
    EXPECT_GT(high, 0.8);
    EXPECT_GT(high, low + 0.3);
}

TEST(PlantedPartition, HeavyTailFromLowExponent) {
    PlantedPartitionSpec spec;
    spec.nodes = 3000;
    spec.communities = 4;
    spec.avg_degree = 20.0;
    spec.power = 2.05;
    Rng rng(11);
    const Graph heavy = planted_partition(spec, rng, nullptr);
    spec.power = 6.0;
    Rng rng2(11);
    const Graph light = planted_partition(spec, rng2, nullptr);
    EXPECT_GT(heavy.max_degree(), light.max_degree());
}

TEST(WattsStrogatz, LatticeAtBetaZero) {
    Rng rng(20);
    const Graph g = watts_strogatz(20, 4, 0.0, rng);
    EXPECT_EQ(g.num_nodes(), 20u);
    EXPECT_EQ(g.num_edges(), 40u);  // n·k/2
    for (std::uint32_t u = 0; u < 20; ++u) {
        EXPECT_EQ(g.degree(u), 4u);
        EXPECT_TRUE(g.has_edge(u, (u + 1) % 20));
        EXPECT_TRUE(g.has_edge(u, (u + 2) % 20));
    }
}

TEST(WattsStrogatz, RewiringBreaksLattice) {
    Rng rng(21);
    const Graph g = watts_strogatz(200, 6, 0.5, rng);
    std::size_t non_lattice = 0;
    for (const Edge& e : g.edge_list()) {
        const std::uint32_t d =
            std::min((e.v - e.u + 200) % 200, (e.u - e.v + 200) % 200);
        if (d > 3) ++non_lattice;
    }
    EXPECT_GT(non_lattice, 100u);  // roughly half the edges rewired
}

TEST(WattsStrogatz, SmallWorldHasHighClusteringAtLowBeta) {
    // Hallmark of the model: at small beta, clustering stays near the
    // lattice's while paths shorten — we check the clustering side.
    Rng r1(22), r2(22);
    const Graph lattice = watts_strogatz(300, 8, 0.0, r1);
    const Graph random_ish = watts_strogatz(300, 8, 1.0, r2);
    EXPECT_GT(graph::average_clustering(lattice),
              3.0 * graph::average_clustering(random_ish));
}

TEST(WattsStrogatz, ValidatesParameters) {
    Rng rng(23);
    EXPECT_THROW((void)watts_strogatz(10, 3, 0.1, rng), Error);   // odd k
    EXPECT_THROW((void)watts_strogatz(4, 4, 0.1, rng), Error);    // n <= k
    EXPECT_THROW((void)watts_strogatz(10, 4, 1.5, rng), Error);   // bad beta
}

TEST(PlantedPartition, ValidatesSpec) {
    Rng rng(12);
    PlantedPartitionSpec bad;
    bad.nodes = 2;
    EXPECT_THROW((void)planted_partition(bad, rng, nullptr), Error);
    bad = {};
    bad.homophily = 1.5;
    EXPECT_THROW((void)planted_partition(bad, rng, nullptr), Error);
    bad = {};
    bad.power = 1.0;
    EXPECT_THROW((void)planted_partition(bad, rng, nullptr), Error);
    bad = {};
    bad.avg_degree = 1e9;
    EXPECT_THROW((void)planted_partition(bad, rng, nullptr), Error);
}

TEST(PlantedPartition, SingleCommunityDegeneratesToChungLu) {
    PlantedPartitionSpec spec;
    spec.nodes = 500;
    spec.communities = 1;
    spec.avg_degree = 10.0;
    Rng rng(13);
    const Graph g = planted_partition(spec, rng, nullptr);
    EXPECT_NEAR(g.average_degree(), 10.0, 2.0);
}

} // namespace
} // namespace scgnn::graph
