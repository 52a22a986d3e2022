// Unit tests for the CSR Graph type and induced subgraphs.
#include <gtest/gtest.h>

#include <algorithm>

#include "scgnn/graph/graph.hpp"

namespace scgnn::graph {
namespace {

Graph path4() {
    // 0-1-2-3 path
    const std::vector<Edge> e{{0, 1}, {1, 2}, {2, 3}};
    return Graph(4, e);
}

TEST(Graph, EmptyGraph) {
    Graph g;
    EXPECT_EQ(g.num_nodes(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_EQ(g.average_degree(), 0.0);
    EXPECT_EQ(g.density(), 0.0);
}

TEST(Graph, BasicTopology) {
    const Graph g = path4();
    EXPECT_EQ(g.num_nodes(), 4u);
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));  // symmetric
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, NeighborsAreSorted) {
    const std::vector<Edge> e{{2, 0}, {2, 3}, {2, 1}};
    const Graph g(4, e);
    const auto nb = g.neighbors(2);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(nb.size(), 3u);
}

TEST(Graph, DuplicateAndReversedEdgesMerged) {
    const std::vector<Edge> e{{0, 1}, {1, 0}, {0, 1}};
    const Graph g(2, e);
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopRejected) {
    const std::vector<Edge> e{{1, 1}};
    EXPECT_THROW(Graph(2, e), Error);
}

TEST(Graph, OutOfRangeEndpointRejected) {
    const std::vector<Edge> e{{0, 5}};
    EXPECT_THROW(Graph(2, e), Error);
}

TEST(Graph, DegreeQueriesValidate) {
    const Graph g = path4();
    EXPECT_THROW((void)g.degree(4), Error);
    EXPECT_THROW((void)g.neighbors(4), Error);
    EXPECT_THROW((void)g.has_edge(0, 9), Error);
}

TEST(Graph, AverageDegreeAndDensity) {
    const Graph g = path4();
    EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);  // 2*3/4
    EXPECT_DOUBLE_EQ(g.density(), 6.0 / 12.0);
}

TEST(Graph, EdgeListRoundTrip) {
    const Graph g = path4();
    const auto edges = g.edge_list();
    EXPECT_EQ(edges.size(), 3u);
    for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
    const Graph g2(4, edges);
    EXPECT_EQ(g2.num_edges(), g.num_edges());
}

TEST(Graph, IsolatedNodesAllowed) {
    const std::vector<Edge> e{{0, 1}};
    const Graph g(5, e);
    EXPECT_EQ(g.degree(4), 0u);
    EXPECT_EQ(g.neighbors(4).size(), 0u);
}

} // namespace
} // namespace scgnn::graph
