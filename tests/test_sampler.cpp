// Unit tests for the seeded neighbor sampler (dist/sampler.hpp): batch
// structure, fanout bounds, halo requests staying inside the exchange
// plans, epoch permutations covering the train split, the bitwise
// determinism contract (same seed/epoch/batch → same batch, at any
// thread count), equality with a reference model of the original
// binary-search sampler, and concurrent sample().
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "scgnn/common/parallel.hpp"
#include "scgnn/common/rng.hpp"
#include "scgnn/dist/sampler.hpp"
#include "scgnn/partition/partition.hpp"

namespace scgnn::dist {
namespace {

struct Fixture {
    graph::Dataset data;
    partition::Partitioning parts;
    DistContext ctx;

    explicit Fixture(double scale = 0.12, std::uint32_t num_parts = 4,
                     std::uint64_t seed = 5)
        : data(graph::make_dataset(graph::DatasetPreset::kPubMedSim, scale,
                                   seed)),
          parts(partition::make_partitioning(
              partition::PartitionAlgo::kNodeCut, data.graph, num_parts,
              seed)),
          ctx(data, parts, gnn::AdjNorm::kSymmetric) {}
};

SamplerConfig small_cfg() {
    SamplerConfig cfg;
    cfg.batch_size = 32;
    cfg.fanout = {4, 3};
    cfg.seed = 17;
    return cfg;
}

/// Canonical dump of a batch for bitwise comparison.
std::string render(const SampledBatch& b) {
    std::ostringstream o;
    for (std::uint32_t v : b.nodes) o << v << ",";
    o << "|";
    for (std::uint32_t s : b.seeds) o << s << ",";
    o << "|" << b.halo_rows << "|" << b.sampled_edges << "|";
    for (const tensor::SparseMatrix& m : b.local_adj) {
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const auto cols = m.row_cols(r);
            const auto vals = m.row_vals(r);
            for (std::size_t e = 0; e < cols.size(); ++e) {
                char buf[64];
                std::snprintf(buf, sizeof buf, "%zu:%u:%.17g;", r, cols[e],
                              static_cast<double>(vals[e]));
                o << buf;
            }
        }
        o << "/";
    }
    for (const auto& layer : b.requests)
        for (const PlanRequest& req : layer) {
            o << "p" << req.plan << ":";
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e) {
                char buf[64];
                std::snprintf(buf, sizeof buf, "%u>%u*%.17g;",
                              req.edge_dst[e], req.edge_req[e],
                              static_cast<double>(req.edge_w[e]));
                o << buf;
            }
        }
    return o.str();
}

TEST(NeighborSampler, BatchStructureInvariants) {
    const Fixture fx;
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2,
                      small_cfg());
    s.begin_epoch(0);
    ASSERT_GT(s.num_batches(), 1u);
    for (std::size_t bi = 0; bi < s.num_batches(); ++bi) {
        const SampledBatch b = s.batch(bi);
        // Nodes ascending unique, all valid.
        for (std::size_t i = 1; i < b.nodes.size(); ++i)
            ASSERT_LT(b.nodes[i - 1], b.nodes[i]);
        for (std::uint32_t v : b.nodes)
            ASSERT_LT(v, fx.data.graph.num_nodes());
        // Seeds are batch-local and in range.
        ASSERT_FALSE(b.seeds.empty());
        ASSERT_LE(b.seeds.size(), small_cfg().batch_size);
        for (std::uint32_t sl : b.seeds) ASSERT_LT(sl, b.nodes.size());
        // One square local matrix per layer.
        ASSERT_EQ(b.local_adj.size(), 2u);
        for (const tensor::SparseMatrix& m : b.local_adj) {
            EXPECT_EQ(m.rows(), b.nodes.size());
            EXPECT_EQ(m.cols(), b.nodes.size());
        }
        // halo_rows is exactly the sum of requested rows.
        std::uint64_t rows = 0;
        for (const auto& layer : b.requests)
            for (const PlanRequest& req : layer) rows += req.rows.size();
        EXPECT_EQ(b.halo_rows, rows);
    }
}

TEST(NeighborSampler, FanoutBoundsHold) {
    const Fixture fx;
    SamplerConfig cfg = small_cfg();
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2, cfg);
    s.begin_epoch(1);
    for (std::size_t bi = 0; bi < s.num_batches(); ++bi) {
        const SampledBatch b = s.batch(bi);
        for (std::size_t li = 0; li < b.local_adj.size(); ++li) {
            // Per consumer: local non-self in-edges + cross edges at this
            // layer must respect the fanout budget (+1 for the exact self
            // term, which is never sampled away).
            std::vector<std::uint32_t> in_deg(b.nodes.size(), 0);
            const tensor::SparseMatrix& m = b.local_adj[li];
            for (std::size_t r = 0; r < m.rows(); ++r)
                for (std::uint32_t c : m.row_cols(r))
                    if (c != r) ++in_deg[r];
            for (const PlanRequest& req : b.requests[li])
                for (std::uint32_t dst : req.edge_dst) ++in_deg[dst];
            for (std::size_t r = 0; r < in_deg.size(); ++r)
                EXPECT_LE(in_deg[r], s.fanout_at(li))
                    << "layer " << li << " consumer " << r;
        }
    }
}

TEST(NeighborSampler, HaloRequestsStayInsideThePlans) {
    const Fixture fx;
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2,
                      small_cfg());
    s.begin_epoch(0);
    bool any_request = false;
    for (std::size_t bi = 0; bi < s.num_batches(); ++bi) {
        const SampledBatch b = s.batch(bi);
        for (const auto& layer : b.requests)
            for (const PlanRequest& req : layer) {
                any_request = true;
                ASSERT_LT(req.plan, fx.ctx.plans().size());
                const PairPlan& plan = fx.ctx.plans()[req.plan];
                // Rows ascending unique, every one a real boundary row of
                // the plan — the sampled halo is a subset of the full one.
                for (std::size_t i = 1; i < req.rows.size(); ++i)
                    ASSERT_LT(req.rows[i - 1], req.rows[i]);
                for (std::uint32_t r : req.rows)
                    ASSERT_LT(r, plan.dbg.num_src());
                ASSERT_EQ(req.src_local.size(), req.rows.size());
                // Edge arrays are parallel and index into rows / nodes.
                ASSERT_EQ(req.edge_dst.size(), req.edge_req.size());
                ASSERT_EQ(req.edge_dst.size(), req.edge_w.size());
                for (std::uint32_t e : req.edge_req)
                    ASSERT_LT(e, req.rows.size());
                for (std::uint32_t d : req.edge_dst)
                    ASSERT_LT(d, b.nodes.size());
                // Requested rows name nodes owned by the plan's source
                // part; consumers are owned by the destination part.
                for (std::size_t i = 0; i < req.rows.size(); ++i) {
                    const std::uint32_t g = plan.dbg.src_nodes[req.rows[i]];
                    EXPECT_EQ(fx.ctx.owner(g), plan.src_part);
                    EXPECT_EQ(b.nodes[req.src_local[i]], g);
                }
                for (std::uint32_t d : req.edge_dst)
                    EXPECT_EQ(fx.ctx.owner(b.nodes[d]), plan.dst_part);
            }
    }
    EXPECT_TRUE(any_request) << "fixture produced no cross-device edges";
}

TEST(NeighborSampler, EpochPermutationCoversTrainSplit) {
    const Fixture fx;
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2,
                      small_cfg());
    for (std::uint64_t epoch : {0ull, 3ull}) {
        s.begin_epoch(epoch);
        std::multiset<std::uint32_t> seen;
        for (std::size_t bi = 0; bi < s.num_batches(); ++bi) {
            const SampledBatch b = s.batch(bi);
            for (std::uint32_t sl : b.seeds) seen.insert(b.nodes[sl]);
        }
        // Every train node exactly once per epoch.
        const std::multiset<std::uint32_t> want(fx.data.train_mask.begin(),
                                                fx.data.train_mask.end());
        EXPECT_EQ(seen, want) << "epoch " << epoch;
    }
}

TEST(NeighborSampler, RebuildingABatchIsBitwiseStable) {
    const Fixture fx;
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2,
                      small_cfg());
    s.begin_epoch(2);
    const std::string once = render(s.batch(1));
    const std::string again = render(s.batch(1));
    EXPECT_EQ(once, again);
    // A different epoch reshuffles the seeds.
    s.begin_epoch(3);
    EXPECT_NE(render(s.batch(1)), once);
}

TEST(NeighborSampler, BitwiseInvariantAcrossThreadCounts) {
    const Fixture fx;
    auto sample_at = [&](unsigned threads) {
        ThreadCountGuard guard(threads);
        NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2,
                          small_cfg());
        s.begin_epoch(0);
        std::string all;
        for (std::size_t bi = 0; bi < s.num_batches(); ++bi)
            all += render(s.batch(bi));
        return all;
    };
    EXPECT_EQ(sample_at(1), sample_at(4));
}

// Reference model: the sampler as first written, with binary searches
// into the batch's node list and the plans' source lists, per-pair plan
// lookup and hash-set Floyd sampling. NeighborSampler replaces all of it
// with dense indices and must reproduce every batch exactly.
std::uint64_t ref_stream_key(std::uint64_t seed, std::uint64_t epoch,
                             std::uint64_t batch, std::uint64_t layer,
                             std::uint64_t node) {
    std::uint64_t s = seed;
    s = splitmix64(s) ^ epoch;
    s = splitmix64(s) ^ batch;
    s = splitmix64(s) ^ layer;
    s = splitmix64(s) ^ node;
    return splitmix64(s);
}

std::vector<std::uint32_t> ref_sample(Rng& rng, std::uint32_t n,
                                      std::uint32_t k) {
    std::vector<std::uint32_t> out;
    if (k * 3 >= n) {
        std::vector<std::uint32_t> pool(n);
        std::iota(pool.begin(), pool.end(), 0u);
        for (std::uint32_t i = 0; i < k; ++i) {
            const std::size_t j = i + rng.index(n - i);
            std::swap(pool[i], pool[j]);
            out.push_back(pool[i]);
        }
        return out;
    }
    std::unordered_set<std::uint32_t> chosen;
    for (std::uint32_t j = n - k; j < n; ++j) {
        auto t = static_cast<std::uint32_t>(rng.uniform_u64(j + 1));
        if (!chosen.insert(t).second) chosen.insert(j), t = j;
        out.push_back(t);
    }
    return out;
}

std::uint32_t ref_index(const std::vector<std::uint32_t>& nodes,
                        std::uint32_t g) {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), g);
    EXPECT_TRUE(it != nodes.end() && *it == g);
    return static_cast<std::uint32_t>(it - nodes.begin());
}

SampledBatch reference_batch(const graph::Dataset& data,
                             const tensor::SparseMatrix& adj,
                             const DistContext& ctx,
                             const SamplerConfig& cfg, std::uint32_t L,
                             std::uint64_t epoch, std::size_t b) {
    std::vector<std::uint32_t> order = data.train_mask;
    std::sort(order.begin(), order.end());
    Rng perm(ref_stream_key(cfg.seed, epoch, ~0ULL, ~0ULL, ~0ULL));
    perm.shuffle(order);
    auto fanout = [&](std::uint32_t l) {
        return cfg.fanout.size() == 1 ? cfg.fanout[0] : cfg.fanout[l];
    };
    const std::uint32_t p = ctx.num_parts();
    std::vector<std::int64_t> plan_of_pair(static_cast<std::size_t>(p) * p,
                                           -1);
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi)
        plan_of_pair[static_cast<std::size_t>(ctx.plans()[pi].src_part) * p +
                     ctx.plans()[pi].dst_part] = static_cast<std::int64_t>(pi);

    const std::size_t lo = b * cfg.batch_size;
    const std::size_t hi = std::min(order.size(), lo + cfg.batch_size);
    std::vector<std::vector<std::uint32_t>> need(L + 1);
    need[L].assign(order.begin() + static_cast<std::ptrdiff_t>(lo),
                   order.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(need[L].begin(), need[L].end());
    struct Edge {
        std::uint32_t dst, src;
        float w;
    };
    std::vector<std::vector<Edge>> edges(L);
    for (std::uint32_t l = L; l-- > 0;) {
        for (const std::uint32_t u : need[l + 1]) {
            const auto cols = adj.row_cols(u);
            const auto vals = adj.row_vals(u);
            std::vector<std::size_t> others;
            for (std::size_t i = 0; i < cols.size(); ++i) {
                if (cols[i] == u)
                    edges[l].push_back({u, u, vals[i]});
                else
                    others.push_back(i);
            }
            const std::size_t k = fanout(l);
            if (others.size() <= k) {
                for (const std::size_t i : others)
                    edges[l].push_back({u, cols[i], vals[i]});
                continue;
            }
            Rng rng(ref_stream_key(cfg.seed, epoch, b, l, u));
            std::vector<std::uint32_t> pick =
                ref_sample(rng, static_cast<std::uint32_t>(others.size()),
                           static_cast<std::uint32_t>(k));
            std::sort(pick.begin(), pick.end());
            const float scale =
                static_cast<float>(others.size()) / static_cast<float>(k);
            for (const std::uint32_t j : pick)
                edges[l].push_back(
                    {u, cols[others[j]], vals[others[j]] * scale});
        }
        for (const Edge& e : edges[l]) need[l].push_back(e.src);
        std::sort(need[l].begin(), need[l].end());
        need[l].erase(std::unique(need[l].begin(), need[l].end()),
                      need[l].end());
    }

    SampledBatch out;
    for (const auto& level : need)
        out.nodes.insert(out.nodes.end(), level.begin(), level.end());
    std::sort(out.nodes.begin(), out.nodes.end());
    out.nodes.erase(std::unique(out.nodes.begin(), out.nodes.end()),
                    out.nodes.end());
    for (const std::uint32_t g : need[L])
        out.seeds.push_back(ref_index(out.nodes, g));

    out.local_adj.resize(L);
    out.requests.resize(L);
    struct CrossEdge {
        std::uint32_t plan_row, dst;
        float w;
    };
    for (std::uint32_t l = 0; l < L; ++l) {
        std::vector<tensor::Triplet> triplets;
        std::vector<std::vector<CrossEdge>> cross(ctx.plans().size());
        for (const Edge& e : edges[l]) {
            const std::uint32_t bd = ref_index(out.nodes, e.dst);
            ++out.sampled_edges;
            if (ctx.owner(e.src) == ctx.owner(e.dst)) {
                triplets.push_back({bd, ref_index(out.nodes, e.src), e.w});
                continue;
            }
            const std::int64_t pi =
                plan_of_pair[static_cast<std::size_t>(ctx.owner(e.src)) * p +
                             ctx.owner(e.dst)];
            EXPECT_GE(pi, 0);
            const auto& src_nodes =
                ctx.plans()[static_cast<std::size_t>(pi)].dbg.src_nodes;
            const auto it =
                std::lower_bound(src_nodes.begin(), src_nodes.end(), e.src);
            cross[static_cast<std::size_t>(pi)].push_back(
                {static_cast<std::uint32_t>(it - src_nodes.begin()), bd, e.w});
        }
        out.local_adj[l] = tensor::SparseMatrix(out.nodes.size(),
                                                out.nodes.size(), triplets);
        for (std::size_t pi = 0; pi < cross.size(); ++pi) {
            if (cross[pi].empty()) continue;
            PlanRequest req;
            req.plan = pi;
            for (const CrossEdge& e : cross[pi]) req.rows.push_back(e.plan_row);
            std::sort(req.rows.begin(), req.rows.end());
            req.rows.erase(std::unique(req.rows.begin(), req.rows.end()),
                           req.rows.end());
            for (const std::uint32_t r : req.rows)
                req.src_local.push_back(ref_index(
                    out.nodes, ctx.plans()[pi].dbg.src_nodes[r]));
            for (const CrossEdge& e : cross[pi]) {
                const auto it = std::lower_bound(req.rows.begin(),
                                                 req.rows.end(), e.plan_row);
                req.edge_dst.push_back(e.dst);
                req.edge_req.push_back(
                    static_cast<std::uint32_t>(it - req.rows.begin()));
                req.edge_w.push_back(e.w);
            }
            out.halo_rows += req.rows.size();
            out.requests[l].push_back(std::move(req));
        }
    }
    return out;
}

/// render() plus the request fields it leaves out.
std::string render_full(const SampledBatch& b) {
    std::ostringstream o;
    o << render(b);
    for (const auto& layer : b.requests)
        for (const PlanRequest& req : layer) {
            o << "|r";
            for (std::size_t i = 0; i < req.rows.size(); ++i)
                o << req.rows[i] << "@" << req.src_local[i] << ",";
        }
    return o.str();
}

TEST(NeighborSampler, MatchesReferenceModel) {
    // fanout {1}, {4,3} and {30,10} reach the keep-all, Floyd and dense
    // Fisher–Yates branches; the per-layer lists extend with their last
    // entry at 3 layers.
    const std::vector<std::vector<std::uint32_t>> fanouts = {
        {1}, {4, 3}, {30, 10}};
    // Sampled into over every config, as the trainer reuses its batches.
    SampledBatch reused;
    for (const std::uint32_t parts : {2u, 4u, 8u}) {
        // At P=8 a smaller graph leaves some part pairs without a shared
        // edge, so without a plan.
        const Fixture fx(parts == 8 ? 0.03 : 0.12, parts);
        const tensor::SparseMatrix adj = gnn::normalized_adjacency(
            fx.data.graph, gnn::AdjNorm::kSymmetric);
        if (parts == 8) {
            ASSERT_LT(fx.ctx.plans().size(), 8u * 7u);
        }
        for (const std::uint32_t layers : {1u, 3u}) {
            for (const auto& base : fanouts) {
                SamplerConfig cfg = small_cfg();
                cfg.fanout = base;
                if (base.size() > 1) cfg.fanout.resize(layers, base.back());
                NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric,
                                  layers, cfg);
                NeighborSampler::Scratch scratch;  // warm after batch 0
                for (const std::uint64_t epoch : {0ull, 2ull}) {
                    s.begin_epoch(epoch);
                    for (std::size_t bi = 0; bi < s.num_batches(); ++bi) {
                        const std::string want = render_full(reference_batch(
                            fx.data, adj, fx.ctx, cfg, layers, epoch, bi));
                        ASSERT_EQ(render_full(s.batch(bi)), want)
                            << "P=" << parts << " L=" << layers
                            << " fanout[0]=" << base[0] << " epoch "
                            << epoch << " batch " << bi;
                        s.sample(bi, scratch, reused);
                        ASSERT_EQ(render_full(reused), want);
                    }
                }
            }
        }
    }
}

TEST(NeighborSampler, ConcurrentBatchesMatchSerial) {
    // sample() is const and keeps all of its state in the caller's
    // scratch, so threads may sample batches of one sampler at once.
    const Fixture fx;
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2,
                      small_cfg());
    s.begin_epoch(1);
    const std::size_t nb = s.num_batches();
    std::vector<std::string> serial(nb);
    for (std::size_t bi = 0; bi < nb; ++bi) serial[bi] = render(s.batch(bi));

    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::string>> got(kThreads,
                                              std::vector<std::string>(nb));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            NeighborSampler::Scratch scratch;
            SampledBatch batch;
            // Each thread walks every batch from its own starting point.
            for (std::size_t i = 0; i < nb; ++i) {
                const std::size_t bi = (i + t * nb / kThreads) % nb;
                s.sample(bi, scratch, batch);
                got[t][bi] = render(batch);
            }
        });
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], serial) << "thread " << t;
}

TEST(NeighborSampler, SingleFanoutEntryBroadcasts) {
    const Fixture fx;
    SamplerConfig cfg = small_cfg();
    cfg.fanout = {3};
    NeighborSampler s(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric, 2, cfg);
    EXPECT_EQ(s.fanout_at(0), 3u);
    EXPECT_EQ(s.fanout_at(1), 3u);
}

TEST(NeighborSampler, RejectsBadConfig) {
    const Fixture fx;
    SamplerConfig cfg = small_cfg();
    cfg.fanout = {4, 3, 2};  // neither 1 nor num_layers entries
    EXPECT_THROW(NeighborSampler(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric,
                                 2, cfg),
                 Error);
    cfg = small_cfg();
    cfg.batch_size = 0;
    EXPECT_THROW(NeighborSampler(fx.data, fx.ctx, gnn::AdjNorm::kSymmetric,
                                 2, cfg),
                 Error);
}

} // namespace
} // namespace scgnn::dist
