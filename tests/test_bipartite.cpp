// Unit tests for DBG extraction and connection-type classification — the
// Fig. 2(c)/(d) machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "scgnn/common/parallel.hpp"
#include "scgnn/common/rng.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"

namespace scgnn::graph {
namespace {

/// Two partitions: {0,1,2} | {3,4,5}; cross edges 0-3, 1-3, 1-4, plus an
/// intra edge 0-1 and 4-5 that must NOT appear in the DBG.
struct Fixture {
    Graph g{6, std::vector<Edge>{{0, 3}, {1, 3}, {1, 4}, {0, 1}, {4, 5}}};
    std::vector<std::uint32_t> part{0, 0, 0, 1, 1, 1};
};

TEST(Dbg, ExtractionCollectsBoundaryOnly) {
    Fixture f;
    const Dbg d = extract_dbg(f.g, f.part, 0, 1);
    EXPECT_EQ(d.src_part, 0u);
    EXPECT_EQ(d.dst_part, 1u);
    EXPECT_EQ(d.src_nodes, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(d.dst_nodes, (std::vector<std::uint32_t>{3, 4}));
    EXPECT_EQ(d.num_edges(), 3u);
}

TEST(Dbg, LocalAdjacencyRowsCorrect) {
    Fixture f;
    const Dbg d = extract_dbg(f.g, f.part, 0, 1);
    // node 0 → {3} = local {0}; node 1 → {3,4} = local {0,1}
    EXPECT_EQ(d.out_degree(0), 1u);
    EXPECT_EQ(d.out_degree(1), 2u);
    const auto n1 = d.out_neighbors(1);
    EXPECT_EQ(n1[0], 0u);
    EXPECT_EQ(n1[1], 1u);
}

TEST(Dbg, ReverseDirectionIsItsOwnDbg) {
    Fixture f;
    const Dbg d = extract_dbg(f.g, f.part, 1, 0);
    EXPECT_EQ(d.src_nodes, (std::vector<std::uint32_t>{3, 4}));
    EXPECT_EQ(d.dst_nodes, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(d.num_edges(), 3u);
}

TEST(Dbg, InDegrees) {
    Fixture f;
    const Dbg d = extract_dbg(f.g, f.part, 0, 1);
    const auto in = d.in_degrees();
    EXPECT_EQ(in[0], 2u);  // node 3 receives from 0 and 1
    EXPECT_EQ(in[1], 1u);  // node 4 receives from 1
}

TEST(Dbg, DenseRowMatchesAdjacency) {
    Fixture f;
    const Dbg d = extract_dbg(f.g, f.part, 0, 1);
    const auto row = d.dense_row(1);
    EXPECT_EQ(row, (std::vector<float>{1.0f, 1.0f}));
    EXPECT_EQ(d.dense_row(0), (std::vector<float>{1.0f, 0.0f}));
}

TEST(Dbg, EmptyWhenNoCrossEdges) {
    const Graph g(4, std::vector<Edge>{{0, 1}, {2, 3}});
    const std::vector<std::uint32_t> part{0, 0, 1, 1};
    const Dbg d = extract_dbg(g, part, 0, 1);
    EXPECT_EQ(d.num_src(), 0u);
    EXPECT_EQ(d.num_edges(), 0u);
}

TEST(Dbg, ValidatesArguments) {
    Fixture f;
    EXPECT_THROW((void)extract_dbg(f.g, f.part, 0, 0), Error);
    const std::vector<std::uint32_t> short_part{0, 1};
    EXPECT_THROW((void)extract_dbg(f.g, short_part, 0, 1), Error);
    EXPECT_THROW((void)f.g.neighbors(9), Error);
}

TEST(Dbg, ExtractAllSkipsEmptyPairs) {
    const Graph g(4, std::vector<Edge>{{0, 2}});
    const std::vector<std::uint32_t> part{0, 1, 2, 2};
    const auto all = extract_all_dbgs(g, part, 3);
    // Only (0→2) and (2→0) carry edges.
    EXPECT_EQ(all.size(), 2u);
}

/// The pair-at-a-time extraction extract_dbg used before the per-source
/// pass: two scans of the whole graph per ordered pair and a hash map
/// from sink id to local index.
Dbg reference_dbg(const Graph& g, std::span<const std::uint32_t> part_of,
                  std::uint32_t src_part, std::uint32_t dst_part) {
    Dbg dbg;
    dbg.src_part = src_part;
    dbg.dst_part = dst_part;
    std::vector<std::uint32_t> dst_set;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
        if (part_of[u] != src_part) continue;
        bool is_src = false;
        for (std::uint32_t v : g.neighbors(u)) {
            if (part_of[v] == dst_part) {
                is_src = true;
                dst_set.push_back(v);
            }
        }
        if (is_src) dbg.src_nodes.push_back(u);
    }
    std::sort(dst_set.begin(), dst_set.end());
    dst_set.erase(std::unique(dst_set.begin(), dst_set.end()), dst_set.end());
    dbg.dst_nodes = std::move(dst_set);
    std::unordered_map<std::uint32_t, std::uint32_t> dst_local;
    for (std::uint32_t i = 0; i < dbg.dst_nodes.size(); ++i)
        dst_local[dbg.dst_nodes[i]] = i;
    dbg.ptr.assign(dbg.src_nodes.size() + 1, 0);
    for (std::uint32_t i = 0; i < dbg.src_nodes.size(); ++i) {
        for (std::uint32_t v : g.neighbors(dbg.src_nodes[i]))
            if (part_of[v] == dst_part) dbg.adj.push_back(dst_local.at(v));
        dbg.ptr[i + 1] = dbg.adj.size();
    }
    return dbg;
}

void expect_same_dbg(const Dbg& a, const Dbg& b) {
    EXPECT_EQ(a.src_part, b.src_part);
    EXPECT_EQ(a.dst_part, b.dst_part);
    EXPECT_EQ(a.src_nodes, b.src_nodes);
    EXPECT_EQ(a.dst_nodes, b.dst_nodes);
    EXPECT_EQ(a.ptr, b.ptr);
    EXPECT_EQ(a.adj, b.adj);
}

/// Random graph over random partition ids. With three or more parts the
/// edges between parts 0 and 1 are dropped, so that pair has no DBG.
std::pair<Graph, std::vector<std::uint32_t>> random_partitioned(
    std::uint32_t n, std::uint32_t m, std::uint32_t parts,
    std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint32_t> part_of(n);
    for (std::uint32_t& p : part_of)
        p = static_cast<std::uint32_t>(rng.index(parts));
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i < m; ++i) {
        const auto u = static_cast<std::uint32_t>(rng.index(n));
        const auto v = static_cast<std::uint32_t>(rng.index(n));
        if (u == v) continue;
        if (parts >= 3 && part_of[u] + part_of[v] == 1) continue;
        edges.push_back({u, v});
    }
    return {Graph(n, edges), std::move(part_of)};
}

TEST(Dbg, ExtractionMatchesReferenceAtEveryThreadCount) {
    for (const std::uint32_t parts : {2u, 3u, 5u, 16u}) {
        const auto [g, part_of] = random_partitioned(600, 2400, parts, parts);
        std::vector<Dbg> ref;
        for (std::uint32_t p = 0; p < parts; ++p)
            for (std::uint32_t q = 0; q < parts; ++q) {
                if (p == q) continue;
                Dbg dbg = reference_dbg(g, part_of, p, q);
                if (parts >= 3 && p + q == 1) {
                    EXPECT_EQ(dbg.num_edges(), 0u);
                }
                expect_same_dbg(extract_dbg(g, part_of, p, q), dbg);
                if (dbg.num_edges() > 0) ref.push_back(std::move(dbg));
            }
        for (unsigned threads = 1; threads <= 4; ++threads) {
            SCOPED_TRACE(::testing::Message() << parts << " parts, "
                                              << threads << " threads");
            const ThreadCountGuard guard(threads);
            const std::vector<Dbg> all = extract_all_dbgs(g, part_of, parts);
            ASSERT_EQ(all.size(), ref.size());
            for (std::size_t i = 0; i < all.size(); ++i)
                expect_same_dbg(all[i], ref[i]);
        }
    }
}

TEST(Classify, O2OEdge) {
    // 0-2 is the only cross edge: both endpoints degree 1.
    const Graph g(4, std::vector<Edge>{{0, 2}});
    const std::vector<std::uint32_t> part{0, 0, 1, 1};
    const Dbg d = extract_dbg(g, part, 0, 1);
    const auto types = classify_edges(d);
    ASSERT_EQ(types.size(), 1u);
    EXPECT_EQ(types[0], ConnectionType::kO2O);
}

TEST(Classify, O2MEdges) {
    // 0 fans out to 2 and 3 (each sink exclusive).
    const Graph g(4, std::vector<Edge>{{0, 2}, {0, 3}});
    const std::vector<std::uint32_t> part{0, 0, 1, 1};
    const auto types = classify_edges(extract_dbg(g, part, 0, 1));
    ASSERT_EQ(types.size(), 2u);
    EXPECT_EQ(types[0], ConnectionType::kO2M);
    EXPECT_EQ(types[1], ConnectionType::kO2M);
}

TEST(Classify, M2OEdges) {
    // 0 and 1 both feed sink 2 only.
    const Graph g(4, std::vector<Edge>{{0, 2}, {1, 2}});
    const std::vector<std::uint32_t> part{0, 0, 1, 1};
    const auto types = classify_edges(extract_dbg(g, part, 0, 1));
    ASSERT_EQ(types.size(), 2u);
    EXPECT_EQ(types[0], ConnectionType::kM2O);
    EXPECT_EQ(types[1], ConnectionType::kM2O);
}

TEST(Classify, M2MEdges) {
    // Full 2×2 bipartite block: every edge is M2M.
    const Graph g(4, std::vector<Edge>{{0, 2}, {0, 3}, {1, 2}, {1, 3}});
    const std::vector<std::uint32_t> part{0, 0, 1, 1};
    const auto types = classify_edges(extract_dbg(g, part, 0, 1));
    ASSERT_EQ(types.size(), 4u);
    for (auto t : types) EXPECT_EQ(t, ConnectionType::kM2M);
}

TEST(Classify, MixedTypesCoexist) {
    // 0→{3,4} shares sink 3 with 1→3 (M2M-ish); 2→5 is O2O.
    const Graph g(6, std::vector<Edge>{{0, 3}, {0, 4}, {1, 3}, {2, 5}});
    const std::vector<std::uint32_t> part{0, 0, 0, 1, 1, 1};
    const ConnectionMix mix = connection_mix(extract_dbg(g, part, 0, 1));
    EXPECT_EQ(mix.total(), 4u);
    EXPECT_EQ(mix.count[static_cast<int>(ConnectionType::kO2O)], 1u);
    EXPECT_GT(mix.count[static_cast<int>(ConnectionType::kM2M)], 0u);
}

TEST(Classify, MixFractionsSumToOne) {
    Fixture f;
    const ConnectionMix mix = connection_mix(f.g, f.part, 2);
    double total = 0.0;
    for (auto t : {ConnectionType::kO2O, ConnectionType::kO2M,
                   ConnectionType::kM2O, ConnectionType::kM2M})
        total += mix.fraction(t);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Classify, ToStringNames) {
    EXPECT_STREQ(to_string(ConnectionType::kO2O), "O2O");
    EXPECT_STREQ(to_string(ConnectionType::kM2M), "M2M");
}

TEST(Classify, M2MDominatesOnRealisticPartitionedGraphs) {
    // The Fig. 2(d) claim: on dense community graphs almost all cross
    // edges are M2M.
    const Dataset data = make_dataset(DatasetPreset::kRedditSim, 0.25, 3);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, data.graph, 4, 7);
    const ConnectionMix mix = connection_mix(data.graph, parts.part_of, 4);
    EXPECT_GT(mix.fraction(ConnectionType::kM2M), 0.9);
    EXPECT_LT(mix.fraction(ConnectionType::kO2O), 0.05);
}

} // namespace
} // namespace scgnn::graph
