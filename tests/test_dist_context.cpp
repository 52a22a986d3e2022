// Unit tests for DistContext: local graphs, halo indexing, exchange plans,
// and the per-edge vanilla volume accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "scgnn/common/parallel.hpp"
#include "scgnn/common/rng.hpp"
#include "scgnn/dist/context.hpp"

namespace scgnn::dist {
namespace {

using graph::Edge;

graph::Dataset hand_dataset() {
    // 0-1-2 | 3-4-5 with cross edges 2-3 and 0-5 and 1-3.
    graph::Dataset d;
    d.name = "hand";
    d.graph = graph::Graph(
        6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5},
                             {2, 3}, {0, 5}, {1, 3}});
    d.features = tensor::Matrix(6, 4, 1.0f);
    d.labels = {0, 1, 0, 1, 0, 1};
    d.num_classes = 2;
    d.train_mask = {0, 1, 2, 3};
    d.test_mask = {4, 5};
    return d;
}

partition::Partitioning half_split() {
    partition::Partitioning p;
    p.num_parts = 2;
    p.part_of = {0, 0, 0, 1, 1, 1};
    return p;
}

TEST(DistContext, LocalNodesAndOwnership) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    EXPECT_EQ(ctx.num_parts(), 2u);
    EXPECT_EQ(ctx.local_nodes(0).size(), 3u);
    EXPECT_EQ(ctx.local_nodes(1).size(), 3u);
    EXPECT_EQ(ctx.owner(4), 1u);
    EXPECT_EQ(ctx.local_index(4), 1u);  // 4 is the 2nd node of partition 1
    EXPECT_EQ(ctx.feature_dim(), 4u);
}

TEST(DistContext, HaloContainsExactlyRemoteNeighbours) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    // Partition 0 references remote nodes {3 (from 2 and 1), 5 (from 0)}.
    const auto h0 = ctx.halo(0);
    EXPECT_EQ(std::vector<std::uint32_t>(h0.begin(), h0.end()),
              (std::vector<std::uint32_t>{3, 5}));
    EXPECT_EQ(ctx.owner(h0[0]), 1u);
    EXPECT_EQ(ctx.owner(h0[1]), 1u);
    // Partition 1 references {0, 1, 2}.
    EXPECT_EQ(ctx.halo(1).size(), 3u);
}

TEST(DistContext, LocalAdjShapeAndGlobalValueMatch) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    const auto& a0 = ctx.local_adj(0);
    EXPECT_EQ(a0.rows(), 3u);
    EXPECT_EQ(a0.cols(), 5u);  // 3 local + 2 halo
    const auto global = gnn::normalized_adjacency(d.graph,
                                                  gnn::AdjNorm::kSymmetric);
    // Row of node 2 (local row 2): local col of 1 is 1; halo col of 3 is 3.
    EXPECT_FLOAT_EQ(a0.coeff(2, 1), global.coeff(2, 1));
    EXPECT_FLOAT_EQ(a0.coeff(2, 3), global.coeff(2, 3));
    EXPECT_FLOAT_EQ(a0.coeff(2, 2), global.coeff(2, 2));  // self-loop
}

TEST(DistContext, PlansCoverEveryCrossEdgeOnce) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    // 3 undirected cross edges → 3 per direction.
    EXPECT_EQ(ctx.total_cross_edges(), 6u);
    EXPECT_EQ(ctx.plans().size(), 2u);
    for (const PairPlan& plan : ctx.plans()) {
        EXPECT_EQ(plan.num_edges(), 3u);
        EXPECT_EQ(plan.src_local_rows.size(), plan.num_rows());
        EXPECT_EQ(plan.dst_halo_slots.size(), plan.num_rows());
    }
}

TEST(DistContext, PlanRowsMapToHaloSlots) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    for (const PairPlan& plan : ctx.plans()) {
        const auto halo = ctx.halo(plan.dst_part);
        for (std::size_t i = 0; i < plan.dbg.src_nodes.size(); ++i) {
            // The halo slot must hold exactly the boundary node's global id.
            EXPECT_EQ(halo[plan.dst_halo_slots[i]], plan.dbg.src_nodes[i]);
            // And src_local_rows must be its local index at the owner.
            EXPECT_EQ(ctx.local_index(plan.dbg.src_nodes[i]),
                      plan.src_local_rows[i]);
        }
    }
}

TEST(DistContext, EachHaloSlotFedByExactlyOnePlan) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    for (std::uint32_t p = 0; p < ctx.num_parts(); ++p) {
        std::set<std::uint32_t> fed;
        for (const PairPlan& plan : ctx.plans()) {
            if (plan.dst_part != p) continue;
            for (std::uint32_t slot : plan.dst_halo_slots)
                EXPECT_TRUE(fed.insert(slot).second)
                    << "halo slot fed twice";
        }
        EXPECT_EQ(fed.size(), ctx.halo(p).size()) << "halo slot unfed";
    }
}

TEST(DistContext, VanillaExchangeBytesPerEdgeModel) {
    const graph::Dataset d = hand_dataset();
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    EXPECT_EQ(ctx.vanilla_exchange_bytes(4), 6u * 4u * 4u);
}

TEST(DistContext, ValidatesInput) {
    const graph::Dataset d = hand_dataset();
    partition::Partitioning bad = half_split();
    bad.part_of.pop_back();
    EXPECT_THROW(DistContext(d, bad, gnn::AdjNorm::kSymmetric), Error);
    partition::Partitioning one;
    one.num_parts = 1;
    one.part_of.assign(6, 0);
    EXPECT_THROW(DistContext(d, one, gnn::AdjNorm::kSymmetric), Error);
    const DistContext ctx(d, half_split(), gnn::AdjNorm::kSymmetric);
    EXPECT_THROW((void)ctx.local_nodes(2), Error);
    EXPECT_THROW((void)ctx.owner(6), Error);
}

TEST(DistContext, FourPartitionsOnPreset) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 5);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 3);
    const DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    std::size_t local_total = 0;
    for (std::uint32_t p = 0; p < 4; ++p)
        local_total += ctx.local_nodes(p).size();
    EXPECT_EQ(local_total, d.graph.num_nodes());
    // Cross-edge conservation: sum of plan edges equals twice the cut.
    const auto q = partition::evaluate(d.graph, parts);
    EXPECT_EQ(ctx.total_cross_edges(), 2 * q.cut_edges);
}

/// What DistContext built before its per-partition parallel build: the
/// halo with hash-map slots, the local matrices from sorted triplets and
/// one two-scan DBG per ordered pair.
struct ReferenceContext {
    std::vector<std::vector<std::uint32_t>> halo;
    std::vector<tensor::SparseMatrix> local_adj;
    std::vector<graph::Dbg> dbgs;
    std::vector<std::vector<std::uint32_t>> src_local_rows, dst_halo_slots;
};

graph::Dbg reference_dbg(const graph::Graph& g,
                         std::span<const std::uint32_t> part_of,
                         std::uint32_t src_part, std::uint32_t dst_part) {
    graph::Dbg dbg;
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

ReferenceContext reference_context(const graph::Dataset& data,
                                   const partition::Partitioning& parts,
                                   gnn::AdjNorm norm) {
    const graph::Graph& g = data.graph;
    const std::uint32_t p_count = parts.num_parts;
    const std::vector<std::uint32_t>& owner = parts.part_of;
    std::vector<std::vector<std::uint32_t>> local_nodes(p_count);
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
        local_nodes[owner[u]].push_back(u);
    std::vector<std::uint32_t> local_index(g.num_nodes(), 0);
    for (std::uint32_t p = 0; p < p_count; ++p)
        for (std::uint32_t i = 0; i < local_nodes[p].size(); ++i)
            local_index[local_nodes[p][i]] = i;

    ReferenceContext r;
    r.halo.resize(p_count);
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> slot(
        p_count);
    for (std::uint32_t p = 0; p < p_count; ++p) {
        std::vector<std::uint32_t> h;
        for (std::uint32_t u : local_nodes[p])
            for (std::uint32_t v : g.neighbors(u))
                if (owner[v] != p) h.push_back(v);
        std::sort(h.begin(), h.end());
        h.erase(std::unique(h.begin(), h.end()), h.end());
        r.halo[p] = std::move(h);
        for (std::uint32_t i = 0; i < r.halo[p].size(); ++i)
            slot[p][r.halo[p][i]] = i;
    }
    const tensor::SparseMatrix global = gnn::normalized_adjacency(g, norm);
    for (std::uint32_t p = 0; p < p_count; ++p) {
        const auto n_local = static_cast<std::uint32_t>(local_nodes[p].size());
        std::vector<tensor::Triplet> trips;
        for (std::uint32_t i = 0; i < n_local; ++i) {
            const std::uint32_t gu = local_nodes[p][i];
            const auto cols = global.row_cols(gu);
            const auto vals = global.row_vals(gu);
            for (std::size_t e = 0; e < cols.size(); ++e) {
                const std::uint32_t gv = cols[e];
                const std::uint32_t col = owner[gv] == p
                                              ? local_index[gv]
                                              : n_local + slot[p].at(gv);
                trips.push_back({i, col, vals[e]});
            }
        }
        r.local_adj.emplace_back(
            n_local, n_local + static_cast<std::uint32_t>(r.halo[p].size()),
            std::move(trips));
    }
    for (std::uint32_t p = 0; p < p_count; ++p)
        for (std::uint32_t q = 0; q < p_count; ++q) {
            if (p == q) continue;
            graph::Dbg dbg = reference_dbg(g, owner, p, q);
            if (dbg.num_edges() == 0) continue;
            std::vector<std::uint32_t> rows, slots;
            for (std::uint32_t gu : dbg.src_nodes) {
                rows.push_back(local_index[gu]);
                slots.push_back(slot[q].at(gu));
            }
            r.src_local_rows.push_back(std::move(rows));
            r.dst_halo_slots.push_back(std::move(slots));
            r.dbgs.push_back(std::move(dbg));
        }
    return r;
}

/// Random graph over random partition ids, wrapped as a dataset. With
/// three or more parts the edges between parts 0 and 1 are dropped, so
/// that pair has no plan.
std::pair<graph::Dataset, partition::Partitioning> random_case(
    std::uint32_t n, std::uint32_t m, std::uint32_t parts,
    std::uint64_t seed) {
    Rng rng(seed);
    partition::Partitioning pt;
    pt.num_parts = parts;
    pt.part_of.resize(n);
    for (std::uint32_t& p : pt.part_of)
        p = static_cast<std::uint32_t>(rng.index(parts));
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i < m; ++i) {
        const auto u = static_cast<std::uint32_t>(rng.index(n));
        const auto v = static_cast<std::uint32_t>(rng.index(n));
        if (u == v) continue;
        if (parts >= 3 && pt.part_of[u] + pt.part_of[v] == 1) continue;
        edges.push_back({u, v});
    }
    graph::Dataset d;
    d.graph = graph::Graph(n, edges);
    d.features = tensor::Matrix(n, 4, 1.0f);
    return {std::move(d), std::move(pt)};
}

template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(DistContext, MatchesReferenceBuildAtEveryThreadCount) {
    for (const std::uint32_t parts : {2u, 3u, 5u, 16u}) {
        const auto [d, pt] = random_case(900, 3600, parts, 40 + parts);
        const ReferenceContext ref =
            reference_context(d, pt, gnn::AdjNorm::kSymmetric);
        if (parts >= 3) {
            for (const graph::Dbg& dbg : ref.dbgs)
                EXPECT_NE(dbg.src_part + dbg.dst_part, 1u);
        }
        for (unsigned threads = 1; threads <= 4; ++threads) {
            SCOPED_TRACE(::testing::Message() << parts << " parts, "
                                              << threads << " threads");
            const ThreadCountGuard guard(threads);
            const DistContext ctx(d, pt, gnn::AdjNorm::kSymmetric);
            for (std::uint32_t p = 0; p < parts; ++p) {
                const auto halo = ctx.halo(p);
                EXPECT_TRUE(same_bits(halo, std::span<const std::uint32_t>(
                                                ref.halo[p])));
                for (const std::uint32_t v : halo) EXPECT_NE(ctx.owner(v), p);
                const tensor::SparseMatrix& a = ctx.local_adj(p);
                const tensor::SparseMatrix& b = ref.local_adj[p];
                EXPECT_EQ(a.rows(), b.rows());
                EXPECT_EQ(a.cols(), b.cols());
                EXPECT_TRUE(same_bits(a.row_ptr(), b.row_ptr()));
                EXPECT_TRUE(same_bits(a.col_idx(), b.col_idx()));
                EXPECT_TRUE(same_bits(a.values(), b.values()));
            }
            ASSERT_EQ(ctx.plans().size(), ref.dbgs.size());
            for (std::size_t i = 0; i < ref.dbgs.size(); ++i) {
                const PairPlan& plan = ctx.plans()[i];
                const graph::Dbg& dbg = ref.dbgs[i];
                EXPECT_EQ(plan.src_part, dbg.src_part);
                EXPECT_EQ(plan.dst_part, dbg.dst_part);
                EXPECT_EQ(plan.src_local_rows, ref.src_local_rows[i]);
                EXPECT_EQ(plan.dst_halo_slots, ref.dst_halo_slots[i]);
                EXPECT_EQ(plan.dbg.src_part, dbg.src_part);
                EXPECT_EQ(plan.dbg.dst_part, dbg.dst_part);
                EXPECT_EQ(plan.dbg.src_nodes, dbg.src_nodes);
                EXPECT_EQ(plan.dbg.dst_nodes, dbg.dst_nodes);
                EXPECT_EQ(plan.dbg.ptr, dbg.ptr);
                EXPECT_EQ(plan.dbg.adj, dbg.adj);
            }
        }
    }
}

} // namespace
} // namespace scgnn::dist
