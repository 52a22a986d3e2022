#include "scgnn/dist/sampler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "scgnn/common/rng.hpp"

namespace scgnn::dist {

namespace {

/// Deterministic per-consumer stream key: a splitmix64 chain over the
/// sampler seed, epoch, batch, layer and node, so every consumer draws
/// from an independent stream regardless of iteration order.
std::uint64_t stream_key(std::uint64_t seed, std::uint64_t epoch,
                         std::uint64_t batch, std::uint64_t layer,
                         std::uint64_t node) {
    std::uint64_t s = seed;
    s = splitmix64(s) ^ epoch;
    s = splitmix64(s) ^ batch;
    s = splitmix64(s) ^ layer;
    s = splitmix64(s) ^ node;
    return splitmix64(s);
}

constexpr std::uint32_t kNone = ~std::uint32_t{0};

} // namespace

NeighborSampler::NeighborSampler(const graph::Dataset& data,
                                 const DistContext& ctx, gnn::AdjNorm norm,
                                 std::uint32_t num_layers, SamplerConfig cfg)
    : ctx_(&ctx),
      cfg_(std::move(cfg)),
      num_layers_(num_layers),
      adj_(gnn::normalized_adjacency(data.graph, norm)),
      order_(data.train_mask) {
    SCGNN_CHECK(num_layers_ >= 1, "sampler needs at least one layer");
    SCGNN_CHECK(cfg_.batch_size >= 1, "batch size must be at least 1");
    SCGNN_CHECK(cfg_.fanout.size() == 1 || cfg_.fanout.size() == num_layers_,
                "fanout must have one entry or one per layer");
    for (std::uint32_t f : cfg_.fanout)
        SCGNN_CHECK(f >= 1, "fanout entries must be at least 1");
    SCGNN_CHECK(!order_.empty(), "sampler needs a non-empty train split");
    std::sort(order_.begin(), order_.end());
    SCGNN_CHECK(std::adjacent_find(order_.begin(), order_.end()) ==
                    order_.end(),
                "train split must not repeat a node");

    // Per-node CSR of boundary rows, in O(N + Σ plan rows): a node has at
    // most one row per destination part.
    const std::uint32_t n = data.graph.num_nodes();
    const std::span<const PairPlan> plans = ctx.plans();
    plan_row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const PairPlan& plan : plans)
        for (const std::uint32_t u : plan.dbg.src_nodes) ++plan_row_ptr_[u + 1];
    std::partial_sum(plan_row_ptr_.begin(), plan_row_ptr_.end(),
                     plan_row_ptr_.begin());
    plan_rows_.resize(plan_row_ptr_[n]);
    std::vector<std::uint64_t> fill(plan_row_ptr_.begin(),
                                    plan_row_ptr_.end() - 1);
    for (std::size_t pi = 0; pi < plans.size(); ++pi) {
        const PairPlan& plan = plans[pi];
        for (std::size_t r = 0; r < plan.dbg.src_nodes.size(); ++r)
            plan_rows_[fill[plan.dbg.src_nodes[r]]++] = {
                plan.dst_part, static_cast<std::uint32_t>(pi),
                static_cast<std::uint32_t>(r)};
    }
    begin_epoch(0);
}

void NeighborSampler::begin_epoch(std::uint64_t epoch) {
    epoch_ = epoch;
    std::sort(order_.begin(), order_.end());
    Rng rng(stream_key(cfg_.seed, epoch, /*batch=*/~0ULL, /*layer=*/~0ULL,
                       /*node=*/~0ULL));
    rng.shuffle(order_);
}

std::size_t NeighborSampler::num_batches() const noexcept {
    return (order_.size() + cfg_.batch_size - 1) / cfg_.batch_size;
}

const NeighborSampler::PlanRow& NeighborSampler::plan_row(
    std::uint32_t src, std::uint32_t dst_part) const {
    const PlanRow* it = plan_rows_.data() + plan_row_ptr_[src];
    const PlanRow* const end = plan_rows_.data() + plan_row_ptr_[src + 1];
    while (it != end && it->dst_part != dst_part) ++it;
    SCGNN_ASSERT(it != end, "sampled boundary row missing from plan");
    return *it;
}

SampledBatch NeighborSampler::batch(std::size_t b) const {
    Scratch scratch;
    SampledBatch out;
    sample(b, scratch, out);
    return out;
}

void NeighborSampler::sample(std::size_t b, Scratch& s,
                             SampledBatch& out) const {
    SCGNN_CHECK(b < num_batches(), "batch index out of range");
    const std::size_t lo = b * cfg_.batch_size;
    const std::size_t hi = std::min(order_.size(), lo + cfg_.batch_size);
    const std::uint32_t L = num_layers_;
    const std::size_t num_nodes = adj_.rows();
    const std::span<const PairPlan> plans = ctx_->plans();

    // Level stamps: level l gets base + (L − l), so within this batch a
    // node's stamp is ≥ base once it is in the batch and equals the level's
    // stamp once it is in that level. Stamps only grow; before they would
    // wrap, the array restarts from zero.
    if (s.stamp.size() != num_nodes ||
        s.tick > std::numeric_limits<std::uint32_t>::max() - (L + 1)) {
        s.stamp.assign(num_nodes, 0);
        s.pos.resize(num_nodes);
        s.slot.assign(num_nodes, kNone);
        s.tick = 0;
    }
    const std::uint32_t base = s.tick + 1;
    s.tick += L + 1;
    s.need.resize(L + 1);
    s.layers.resize(L);
    // Edges are staged straight into the output's storage: each layer's
    // matrix arrays are swapped out (leaving it 0×0) and one request per
    // plan is cleared, to be compacted to the non-empty ones at the end.
    out.local_adj.resize(L);
    out.requests.resize(L);
    for (std::uint32_t l = 0; l < L; ++l) {
        Scratch::Layer& layer = s.layers[l];
        layer.ends.clear();
        layer.ptr.assign(1, 0);
        layer.col.clear();
        layer.val.clear();
        out.local_adj[l].assign(0, 0, layer.ptr, layer.col, layer.val);
        layer.col.clear();
        layer.val.clear();
        out.requests[l].resize(plans.size());
        for (std::size_t pi = 0; pi < plans.size(); ++pi) {
            PlanRequest& req = out.requests[l][pi];
            req.plan = pi;
            req.rows.clear();
            req.src_local.clear();
            req.edge_dst.clear();
            req.edge_req.clear();
            req.edge_w.clear();
        }
    }

    // Frontier recursion: need[l] = global ids whose layer-l embedding the
    // batch must materialise, ascending for the consumer levels l ≥ 1;
    // need[L] = the seeds. A node joins `out.nodes` on its first level.
    std::vector<std::uint32_t>& seeds = s.need[L];
    seeds.assign(order_.begin() + static_cast<std::ptrdiff_t>(lo),
                 order_.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(seeds.begin(), seeds.end());
    for (const std::uint32_t v : seeds) s.stamp[v] = base;
    out.nodes = seeds;

    for (std::uint32_t l = L; l-- > 0;) {
        const std::uint32_t level = base + (L - l);
        Scratch::Layer& layer = s.layers[l];
        std::vector<PlanRequest>& reqs = out.requests[l];
        std::vector<std::uint32_t>& srcs = s.need[l];
        srcs.clear();
        // The sources of layer l are the nodes whose h^l is needed. Each
        // consumer's edges are emitted in ascending column order, the exact
        // self term in its place, so the same-owner edges arrive in CSR
        // order. Until batch-local ids exist, edges hold global ids, and a
        // cross edge holds its plan row in `edge_req`.
        std::uint32_t u = 0, owner_u = 0;
        auto emit = [&](std::uint32_t src, float w) {
            if (s.stamp[src] != level) {
                if (s.stamp[src] < base) out.nodes.push_back(src);
                s.stamp[src] = level;
                srcs.push_back(src);
            }
            if (ctx_->owner(src) == owner_u) {
                layer.col.push_back(src);
                layer.val.push_back(w);
                return;
            }
            const PlanRow& pr = plan_row(src, owner_u);
            PlanRequest& req = reqs[pr.plan];
            req.edge_dst.push_back(u);
            req.edge_req.push_back(pr.row);
            req.edge_w.push_back(w);
        };
        const auto k = static_cast<std::size_t>(fanout_at(l));
        for (const std::uint32_t consumer : s.need[l + 1]) {
            u = consumer;
            owner_u = ctx_->owner(u);
            const auto cols = adj_.row_cols(u);
            const auto vals = adj_.row_vals(u);
            std::size_t self = cols.size();
            s.others.clear();
            for (std::size_t i = 0; i < cols.size(); ++i) {
                if (cols[i] == u)
                    self = i;
                else
                    s.others.push_back(static_cast<std::uint32_t>(i));
            }
            if (s.others.size() <= k) {
                for (std::size_t i = 0; i < cols.size(); ++i)
                    emit(cols[i], vals[i]);
            } else {
                Rng rng(stream_key(cfg_.seed, epoch_, b, l, u));
                rng.sample_without_replacement(
                    static_cast<std::uint32_t>(s.others.size()),
                    static_cast<std::uint32_t>(k), s.pick, s.pool);
                std::sort(s.pick.begin(), s.pick.end());
                // Horvitz–Thompson rescale keeps the estimator unbiased.
                const float scale = static_cast<float>(s.others.size()) /
                                    static_cast<float>(k);
                for (const std::uint32_t j : s.pick) {
                    const std::uint32_t i = s.others[j];
                    if (self < i) {
                        emit(u, vals[self]);
                        self = cols.size();
                    }
                    emit(cols[i], vals[i] * scale);
                }
                if (self < cols.size()) emit(u, vals[self]);
            }
            layer.ends.push_back(layer.col.size());
        }
        if (l > 0) std::sort(srcs.begin(), srcs.end());
    }

    // Batch-local ids: the position of each node in the ascending list.
    std::sort(out.nodes.begin(), out.nodes.end());
    const std::size_t n = out.nodes.size();
    for (std::size_t i = 0; i < n; ++i)
        s.pos[out.nodes[i]] = static_cast<std::uint32_t>(i);
    out.seeds.resize(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        out.seeds[i] = s.pos[seeds[i]];

    out.halo_rows = 0;
    out.sampled_edges = 0;
    for (std::uint32_t l = 0; l < L; ++l) {
        Scratch::Layer& layer = s.layers[l];
        // Consumers ascend and so do their columns, so the same-owner
        // edges already sit in CSR order.
        const std::vector<std::uint32_t>& consumers = s.need[l + 1];
        layer.ptr.assign(n + 1, 0);
        for (std::size_t c = 0; c < consumers.size(); ++c)
            layer.ptr[s.pos[consumers[c]] + 1] =
                layer.ends[c] - (c == 0 ? 0 : layer.ends[c - 1]);
        std::partial_sum(layer.ptr.begin(), layer.ptr.end(),
                         layer.ptr.begin());
        for (std::uint32_t& c : layer.col) c = s.pos[c];
        out.sampled_edges += layer.col.size();
        out.local_adj[l].assign(n, n, layer.ptr, layer.col, layer.val);

        // Keep the requests of plans with cross edges, in ascending plan
        // order. A swap keeps the storage of the emptied ones for reuse.
        std::vector<PlanRequest>& reqs = out.requests[l];
        std::size_t used = 0;
        for (std::size_t pi = 0; pi < reqs.size(); ++pi) {
            if (reqs[pi].edge_dst.empty()) continue;
            if (used != pi) std::swap(reqs[used], reqs[pi]);
            ++used;
        }
        reqs.resize(used);

        for (PlanRequest& req : reqs) {
            out.sampled_edges += req.edge_dst.size();
            for (std::uint32_t& d : req.edge_dst) d = s.pos[d];
            // slot[] is kNone outside this block: mark each requested
            // node once, then give it its index into the sorted rows.
            const std::vector<std::uint32_t>& src_nodes =
                plans[req.plan].dbg.src_nodes;
            for (const std::uint32_t r : req.edge_req) {
                std::uint32_t& slot = s.slot[src_nodes[r]];
                if (slot != kNone) continue;
                slot = 0;
                req.rows.push_back(r);
            }
            std::sort(req.rows.begin(), req.rows.end());
            req.src_local.resize(req.rows.size());
            for (std::size_t i = 0; i < req.rows.size(); ++i) {
                const std::uint32_t g = src_nodes[req.rows[i]];
                req.src_local[i] = s.pos[g];
                s.slot[g] = static_cast<std::uint32_t>(i);
            }
            for (std::uint32_t& r : req.edge_req) r = s.slot[src_nodes[r]];
            for (const std::uint32_t r : req.rows) s.slot[src_nodes[r]] = kNone;
            out.halo_rows += req.rows.size();
        }
    }
}

} // namespace scgnn::dist
