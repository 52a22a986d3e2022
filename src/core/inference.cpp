/// \file inference.cpp
/// \brief Deterministic open-loop serving simulation (DESIGN.md §14).

#include "scgnn/runtime/inference.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "scgnn/common/rng.hpp"
#include "scgnn/common/stats.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"

namespace scgnn::runtime {

/// Scratch of one run() call. Node marks hold the stamp of the last query
/// that visited the node, so no per-query clearing is needed.
struct InferenceServer::Scratch {
    explicit Scratch(std::uint32_t nodes)
        : seen(nodes), visited(static_cast<std::size_t>(nodes) + 1) {}
    std::vector<std::uint32_t> seen;     ///< per node: last visiting query
    /// Current BFS in discovery order; one spare slot for the branch-free
    /// append.
    std::vector<std::uint32_t> visited;
    std::vector<std::uint32_t> units;    ///< unit ids of the current batch
    std::uint32_t query = 0;             ///< stamp of the current BFS
};

void validate(const ServeConfig& cfg) {
    SCGNN_CHECK(cfg.qps > 0.0, "qps must be positive");
    SCGNN_CHECK(cfg.queries >= 1, "need at least one query");
    SCGNN_CHECK(cfg.batch_max >= 1, "batch_max must be at least 1");
    SCGNN_CHECK(cfg.deadline_ms >= 0.0, "deadline must be non-negative");
    SCGNN_CHECK(cfg.layers >= 1, "a query resolves at least one hop");
    SCGNN_CHECK(cfg.embed_dim >= 1, "embed_dim must be at least 1");
    SCGNN_CHECK(cfg.hist_max_ms > 0.0,
                "latency histogram needs a positive range");
}

InferenceServer::InferenceServer(const graph::Dataset& data,
                                 const partition::Partitioning& parts,
                                 ServeConfig cfg)
    : cfg_(std::move(cfg)),
      ctx_(data, parts, gnn::AdjNorm::kSymmetric),
      graph_(data.graph) {
    validate(cfg_);

    const std::span<const dist::PairPlan> plans = ctx_.plans();
    std::vector<std::vector<std::int32_t>> group_of(plans.size());
    std::vector<std::size_t> num_groups(plans.size(), 0);
    if (cfg_.semantic) {
        // One static grouping pass (the same Fig. 8 setup step training
        // runs); only the group ids survive — the cache is keyed by group,
        // so one fused-row fetch serves every member.
        core::SemanticCompressor comp(cfg_.compressor);
        comp.setup(ctx_);
        for (std::size_t pi = 0; pi < plans.size(); ++pi) {
            group_of[pi] = comp.grouping(pi).group_of_row;
            num_groups[pi] = comp.grouping(pi).groups.size();
        }
    }

    // Per-node CSR of plan rows. Plans are visited in ascending home
    // (dst) part, so every node's entries land sorted by home.
    const std::uint32_t n = graph_.num_nodes();
    home_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const dist::PairPlan& plan : plans)
        for (const std::uint32_t u : plan.dbg.src_nodes) ++home_ptr_[u + 1];
    std::partial_sum(home_ptr_.begin(), home_ptr_.end(), home_ptr_.begin());
    home_units_.resize(home_ptr_[n]);
    std::vector<std::size_t> order(plans.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return plans[a].dst_part < plans[b].dst_part;
                     });

    // Unit ids, per plan [groups][raw rows]: group g of a plan and its
    // i-th raw row each map to exactly one id.
    std::vector<std::uint64_t> fill(home_ptr_.begin(), home_ptr_.end() - 1);
    std::uint64_t next = 0;
    for (const std::size_t pi : order) {
        const dist::PairPlan& plan = plans[pi];
        const std::uint64_t raw_base = next + num_groups[pi];
        std::uint64_t raw = 0;
        for (std::size_t r = 0; r < plan.dbg.src_nodes.size(); ++r) {
            const std::uint32_t u = plan.dbg.src_nodes[r];
            SCGNN_CHECK(ctx_.owner(u) == plan.src_part,
                        "plan rows must be owned by the plan's source part");
            const std::int32_t g = cfg_.semantic ? group_of[pi][r] : -1;
            SCGNN_CHECK(g < static_cast<std::int64_t>(num_groups[pi]),
                        "group id out of range");
            const std::uint64_t id =
                g >= 0 ? next + static_cast<std::uint64_t>(g) : raw_base + raw++;
            home_units_[fill[u]++] = {plan.dst_part,
                                      static_cast<std::uint32_t>(id)};
        }
        next = raw_base + raw;
        unit_owner_.resize(next, plan.src_part);
    }
    // Multi-hop remote nodes without a direct boundary row still cost one
    // per-node unit (fetched through their owner).
    SCGNN_CHECK(next + n <= std::numeric_limits<std::uint32_t>::max(),
                "halo-unit ids overflow 32 bits");
    off_plan_base_ = static_cast<std::uint32_t>(next);
    unit_owner_.reserve(next + n);
    for (std::uint32_t u = 0; u < n; ++u) unit_owner_.push_back(ctx_.owner(u));
}

std::size_t InferenceServer::resolve_units(std::uint32_t v, Scratch& s) const {
    // Serial BFS over the graph, depth = layers (Â adds only self-loops,
    // so the visited set is Â's). Nodes are visited in discovery order,
    // keeping the unit list deterministic.
    const std::uint32_t stamp = ++s.query;
    std::uint32_t* const visited = s.visited.data();
    visited[0] = v;
    s.seen[v] = stamp;
    std::size_t count = 1;
    std::size_t frontier_lo = 0;
    for (std::uint32_t hop = 0; hop < cfg_.layers; ++hop) {
        const std::size_t frontier_hi = count;
        for (std::size_t fi = frontier_lo; fi < frontier_hi; ++fi) {
            for (const std::uint32_t w : graph_.neighbors(visited[fi])) {
                // Branch-free append: w always lands in the next slot,
                // which it keeps only on its first visit.
                visited[count] = w;
                count += s.seen[w] != stamp;
                s.seen[w] = stamp;
            }
        }
        frontier_lo = frontier_hi;
    }

    // Off-plan unit ids run over the nodes in order, so their owners
    // double as the node → owner map.
    const std::uint32_t* const owner = unit_owner_.data() + off_plan_base_;
    const std::uint32_t home = owner[v];
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t u = visited[i];
        if (owner[u] == home) continue;
        const HomeUnit* lo = home_units_.data() + home_ptr_[u];
        const HomeUnit* hi = home_units_.data() + home_ptr_[u + 1];
        const HomeUnit* it = std::lower_bound(
            lo, hi, home,
            [](const HomeUnit& e, std::uint32_t h) { return e.home < h; });
        s.units.push_back(it != hi && it->home == home ? it->unit
                                                       : off_plan_base_ + u);
    }
    return count;
}

ServeResult InferenceServer::run() const {
    const std::uint32_t p = ctx_.num_parts();
    struct Query {
        double arrival_ms;
        std::uint32_t node;
    };
    // Open-loop arrivals at fixed spacing; the node stream is one seeded
    // sequence drawn before routing, so it is independent of P.
    std::vector<std::vector<Query>> per_device(p);
    {
        Rng rng(cfg_.seed);
        const double gap_ms = 1e3 / cfg_.qps;
        for (std::uint32_t i = 0; i < cfg_.queries; ++i) {
            const auto v = static_cast<std::uint32_t>(
                rng.uniform_u64(graph_.num_nodes()));
            per_device[ctx_.owner(v)].push_back({i * gap_ms, v});
        }
    }

    comm::Fabric fabric(p, cfg_.cost);
    Histogram hist(0.0, cfg_.hist_max_ms, ServeConfig::kHistBins);
    RunningStat lat;
    ServeResult res;
    res.queries = cfg_.queries;
    std::uint64_t fetched_bytes = 0;
    const std::uint64_t unit_bytes =
        static_cast<std::uint64_t>(cfg_.embed_dim) * sizeof(float);

    // Per-call scratch, so concurrent run() calls share nothing. Stamps
    // start at 0 and count queries or batches (≤ cfg_.queries): no wrap.
    Scratch scratch(graph_.num_nodes());
    std::vector<std::uint32_t> batch_seen(unit_owner_.size());
    // Device + 1 whose cache holds the unit; devices run in sequence, so
    // a new device starts with an empty cache without any reset.
    std::vector<std::uint32_t> cached_on(unit_owner_.size());
    std::vector<std::uint64_t> fetch_by_owner(p);
    std::uint32_t batch = 0;
    obs::HistogramMetric* const lat_metric =
        obs::enabled() ? &obs::registry().histogram("serve.latency_ms", 0.0,
                                                    cfg_.hist_max_ms,
                                                    ServeConfig::kHistBins)
                       : nullptr;
    for (std::uint32_t d = 0; d < p; ++d) {
        const std::vector<Query>& q = per_device[d];
        double busy_until_ms = 0.0;
        std::size_t i = 0;
        while (i < q.size()) {
            // The batch window is anchored at the head arrival: members
            // are the (≤ batch_max) queries arriving within deadline_ms,
            // and dispatch happens when the batch fills or the window
            // closes — never before the device frees up.
            const double t0 = q[i].arrival_ms;
            std::size_t j = i + 1;
            while (j < q.size() && j - i < cfg_.batch_max &&
                   q[j].arrival_ms <= t0 + cfg_.deadline_ms)
                ++j;
            const double close_ms =
                j - i == cfg_.batch_max
                    ? q[j - 1].arrival_ms
                    : std::min(t0 + cfg_.deadline_ms,
                               q.back().arrival_ms);
            const double dispatch_ms = std::max(busy_until_ms, close_ms);

            scratch.units.clear();
            std::size_t touched = 0;
            for (std::size_t k = i; k < j; ++k)
                touched += resolve_units(q[k].node, scratch);

            ++batch;
            for (const std::uint32_t u : scratch.units) {
                if (batch_seen[u] == batch) continue;
                batch_seen[u] = batch;
                if (cfg_.halo_cache && cached_on[u] == d + 1) {
                    ++res.cache_hits;
                    continue;
                }
                ++res.cache_misses;
                fetch_by_owner[unit_owner_[u]] += unit_bytes;
                if (cfg_.halo_cache) cached_on[u] = d + 1;
            }
            // Sends go out in ascending owner order, so the fabric sees
            // one fixed send sequence.
            double fetch_ms = 0.0;
            for (std::uint32_t o = 0; o < p; ++o) {
                const std::uint64_t bytes = fetch_by_owner[o];
                if (bytes == 0) continue;
                fetch_ms += fabric.send(o, d, bytes).modelled_ms;
                fetched_bytes += bytes;
                fetch_by_owner[o] = 0;
            }

            const double service_ms =
                ServeConfig::kDispatchOverheadMs +
                ServeConfig::kComputeMsPerNode * static_cast<double>(touched) +
                fetch_ms;
            const double done_ms = dispatch_ms + service_ms;
            busy_until_ms = done_ms;
            for (std::size_t k = i; k < j; ++k) {
                const double l = done_ms - q[k].arrival_ms;
                hist.add(l);
                lat.add(l);
                if (lat_metric != nullptr) lat_metric->observe(l);
            }
            ++res.batches;
            i = j;
        }
    }

    res.mean_batch = res.batches > 0
                         ? static_cast<double>(res.queries) /
                               static_cast<double>(res.batches)
                         : 0.0;
    res.p50_ms = hist.quantile(0.50);
    res.p99_ms = hist.quantile(0.99);
    res.p999_ms = hist.quantile(0.999);
    res.mean_ms = lat.mean();
    res.max_ms = lat.max();
    const std::uint64_t touches = res.cache_hits + res.cache_misses;
    res.hit_rate = touches > 0 ? static_cast<double>(res.cache_hits) /
                                     static_cast<double>(touches)
                               : 0.0;
    res.halo_mb = static_cast<double>(fetched_bytes) / 1e6;

    if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.counter("serve.queries").add(res.queries);
        reg.counter("serve.batches").add(res.batches);
        reg.counter("serve.cache_hits").add(res.cache_hits);
        reg.counter("serve.cache_misses").add(res.cache_misses);
        obs::record_final("serve.p50_ms", res.p50_ms);
        obs::record_final("serve.p99_ms", res.p99_ms);
        obs::record_final("serve.p999_ms", res.p999_ms);
        obs::record_final("serve.mean_ms", res.mean_ms);
        obs::record_final("serve.hit_rate", res.hit_rate);
        obs::record_final("serve.halo_mb", res.halo_mb);
    }
    return res;
}

} // namespace scgnn::runtime
