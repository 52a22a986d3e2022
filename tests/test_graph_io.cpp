// Unit tests for graph/dataset persistence (round trips and error paths).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "scgnn/graph/io.hpp"

namespace scgnn::graph {
namespace {

class IoTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("scgnn_io_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& f) const { return (dir_ / f).string(); }
    std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
    const Graph g(5, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {0, 4}});
    write_edge_list(g, path("g.edges"));
    const Graph back = read_edge_list(path("g.edges"));
    EXPECT_EQ(back.num_nodes(), 5u);
    EXPECT_EQ(back.num_edges(), 4u);
    for (const Edge& e : g.edge_list()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

TEST_F(IoTest, EdgeListExplicitNodeCountKeepsIsolatedTail) {
    const Graph g(6, std::vector<Edge>{{0, 1}});  // nodes 2..5 isolated
    write_edge_list(g, path("g.edges"));
    const Graph inferred = read_edge_list(path("g.edges"));
    EXPECT_EQ(inferred.num_nodes(), 2u);  // inference cannot see isolates
    const Graph explicit_n = read_edge_list(path("g.edges"), 6);
    EXPECT_EQ(explicit_n.num_nodes(), 6u);
}

TEST_F(IoTest, EdgeListSkipsCommentsAndBlanks) {
    std::ofstream out(path("hand.edges"));
    out << "# header\n\n0 1\n # indented comment\n1 2\n";
    out.close();
    const Graph g = read_edge_list(path("hand.edges"));
    EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, EdgeListRejectsMalformedLine) {
    std::ofstream out(path("bad.edges"));
    out << "0 notanumber\n";
    out.close();
    EXPECT_THROW((void)read_edge_list(path("bad.edges")), Error);
}

TEST_F(IoTest, MissingFileThrows) {
    EXPECT_THROW((void)read_edge_list(path("nope.edges")), Error);
    EXPECT_THROW((void)load_dataset(path("nope")), Error);
}

TEST_F(IoTest, DatasetRoundTripPreservesEverything) {
    const Dataset d = make_dataset(DatasetPreset::kPubMedSim, 0.1, 5);
    save_dataset(d, path("ds"));
    const Dataset back = load_dataset(path("ds"));

    EXPECT_EQ(back.name, d.name);
    EXPECT_EQ(back.num_classes, d.num_classes);
    EXPECT_EQ(back.graph.num_nodes(), d.graph.num_nodes());
    EXPECT_EQ(back.graph.num_edges(), d.graph.num_edges());
    EXPECT_EQ(back.labels, d.labels);
    EXPECT_EQ(back.train_mask, d.train_mask);
    EXPECT_EQ(back.val_mask, d.val_mask);
    EXPECT_EQ(back.test_mask, d.test_mask);
    ASSERT_EQ(back.features.rows(), d.features.rows());
    ASSERT_EQ(back.features.cols(), d.features.cols());
    EXPECT_LT(tensor::max_abs_diff(back.features, d.features), 1e-5f);
}

TEST_F(IoTest, LoadValidatesShapeConsistency) {
    const Dataset d = make_dataset(DatasetPreset::kPubMedSim, 0.1, 6);
    save_dataset(d, path("ds"));
    // Truncate the label file: must be detected.
    std::ofstream out(path("ds/labels.txt"), std::ios::trunc);
    out << "0\n1\n";
    out.close();
    EXPECT_THROW((void)load_dataset(path("ds")), Error);
}

TEST_F(IoTest, LoadValidatesSplitIds) {
    const Dataset d = make_dataset(DatasetPreset::kPubMedSim, 0.1, 7);
    save_dataset(d, path("ds"));
    std::ofstream out(path("ds/splits.txt"), std::ios::trunc);
    out << "train 0 1\nval\ntest 999999\n";
    out.close();
    EXPECT_THROW((void)load_dataset(path("ds")), Error);
}

} // namespace
} // namespace scgnn::graph
