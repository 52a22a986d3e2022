#include "scgnn/core/grouping.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/trace.hpp"

namespace scgnn::core {

using graph::ConnectionType;
using graph::Dbg;

std::vector<ConnectionType> classify_sources(const Dbg& dbg) {
    const auto in_deg = dbg.in_degrees();
    std::vector<ConnectionType> cls(dbg.num_src());
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u) {
        const auto sinks = dbg.out_neighbors(u);
        if (sinks.size() == 1) {
            cls[u] = in_deg[sinks[0]] == 1 ? ConnectionType::kO2O
                                           : ConnectionType::kM2O;
        } else {
            bool any_shared = false;
            for (std::uint32_t v : sinks)
                if (in_deg[v] > 1) {
                    any_shared = true;
                    break;
                }
            cls[u] = any_shared ? ConnectionType::kM2M : ConnectionType::kO2M;
        }
    }
    return cls;
}

namespace {

/// Dense in-group sink counter over one DBG's sinks: `add` counts the
/// sinks of some rows, `clear` resets only the sinks it touched, so one
/// tally serves every group of the DBG.
struct SinkTally {
    std::vector<std::uint32_t> count;    ///< per local sink, 0 between uses
    std::vector<std::uint32_t> touched;  ///< sinks with count > 0

    explicit SinkTally(const Dbg& dbg) : count(dbg.num_dst(), 0) {}

    void add(const Dbg& dbg, std::span<const std::uint32_t> rows) {
        for (std::uint32_t u : rows)
            for (std::uint32_t v : dbg.out_neighbors(u))
                if (count[v]++ == 0) touched.push_back(v);
    }

    void clear() {
        for (std::uint32_t v : touched) count[v] = 0;
        touched.clear();
    }
};

/// Assemble a SemanticGroup from its member source rows, computing the
/// in-group degrees and the L-SALSA weights.
SemanticGroup make_group(const Dbg& dbg, std::vector<std::uint32_t> members,
                         ConnectionType origin, SinkTally& tally) {
    SemanticGroup g;
    g.origin = origin;
    g.members = std::move(members);
    std::sort(g.members.begin(), g.members.end());

    for (std::uint32_t u : g.members) g.edges += dbg.out_degree(u);
    SCGNN_ASSERT(g.edges > 0, "a semantic group must cover at least one edge");
    tally.add(dbg, g.members);
    std::sort(tally.touched.begin(), tally.touched.end());

    g.out_weights.reserve(g.members.size());
    const auto inv_e = static_cast<float>(1.0 / static_cast<double>(g.edges));
    for (std::uint32_t u : g.members)
        g.out_weights.push_back(static_cast<float>(dbg.out_degree(u)) * inv_e);

    g.sinks = tally.touched;
    g.in_weights.reserve(g.sinks.size());
    for (std::uint32_t v : g.sinks)
        g.in_weights.push_back(static_cast<float>(tally.count[v]) * inv_e);
    tally.clear();
    return g;
}

} // namespace

std::uint64_t Grouping::grouped_edges() const noexcept {
    std::uint64_t total = 0;
    for (const SemanticGroup& g : groups) total += g.edges;
    return total;
}

std::uint64_t Grouping::wire_rows(const Dbg& dbg) const {
    std::uint64_t rows = groups.size();
    for (std::uint32_t u : raw_rows) rows += dbg.out_degree(u);
    return rows;
}

double Grouping::compression_ratio(const Dbg& dbg) const {
    const std::uint64_t wire = wire_rows(dbg);
    if (wire == 0) return 1.0;
    return static_cast<double>(dbg.num_edges()) / static_cast<double>(wire);
}

Grouping build_grouping(const Dbg& dbg, const GroupingConfig& cfg) {
    SCGNN_TRACE_SPAN("core.grouping");
    Grouping out;
    out.group_of_row.assign(dbg.num_src(), -1);
    if (dbg.num_src() == 0) return out;

    const std::vector<ConnectionType> cls = classify_sources(dbg);

    // O2O sources stay raw.
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == ConnectionType::kO2O) out.raw_rows.push_back(u);

    SinkTally tally(dbg);

    // M2O: sources sharing a sink form a natural full-mapping group, in
    // ascending sink order, members ascending.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> m2o;  // (sink, u)
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == ConnectionType::kM2O)
            m2o.emplace_back(dbg.out_neighbors(u)[0], u);
    std::sort(m2o.begin(), m2o.end());
    for (std::size_t lo = 0, hi = 0; lo < m2o.size(); lo = hi) {
        while (hi < m2o.size() && m2o[hi].first == m2o[lo].first) ++hi;
        if (hi - lo >= 2) {
            std::vector<std::uint32_t> members;
            members.reserve(hi - lo);
            for (std::size_t i = lo; i < hi; ++i)
                members.push_back(m2o[i].second);
            out.groups.push_back(make_group(dbg, std::move(members),
                                            ConnectionType::kM2O, tally));
        } else {
            // A lone single-edge source of a shared sink: its sibling edges
            // belong to M2M sources, so there is nothing to fuse with.
            out.raw_rows.push_back(m2o[lo].second);
        }
    }

    // O2M: each fan-out source is its own full-mapping group.
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == ConnectionType::kO2M)
            out.groups.push_back(
                make_group(dbg, {u}, ConnectionType::kO2M, tally));

    // M2M pool: similarity-driven k-means over dense adjacency rows.
    std::vector<std::uint32_t> pool;
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == ConnectionType::kM2M) pool.push_back(u);

    if (pool.size() == 1) {
        out.chosen_k = 1;
        out.groups.push_back(
            make_group(dbg, {pool[0]}, ConnectionType::kM2M, tally));
    } else if (!pool.empty()) {
        std::uint32_t k;
        std::vector<std::uint32_t> assignment;
        if (cfg.kmeans_k > 0) {
            k = std::min<std::uint32_t>(cfg.kmeans_k,
                                        static_cast<std::uint32_t>(pool.size()));
            KMeansConfig kc;
            kc.k = k;
            kc.seed = cfg.seed;
            kc.kind = cfg.kind;
            assignment = kmeans_dbg_rows(dbg, pool, kc).assignment;
        } else {
            // The sweep runs k-means at every k with this seed and config;
            // its winner is the clustering at the chosen k.
            ElbowConfig ec;
            ec.k_min = 2;
            ec.k_max = std::min<std::uint32_t>(
                cfg.max_k, static_cast<std::uint32_t>(pool.size()));
            ec.kmeans.seed = cfg.seed;
            ec.kmeans.kind = cfg.kind;
            ElbowResult eep = find_eep_dbg(dbg, pool, ec);
            k = eep.best_k;
            assignment = std::move(eep.assignment);
        }
        out.chosen_k = k;

        std::vector<std::vector<std::uint32_t>> clusters(k);
        for (std::size_t i = 0; i < pool.size(); ++i)
            clusters[assignment[i]].push_back(pool[i]);

        // Cohesion guard: within each cluster, a member whose sinks are
        // mostly private (shared-sink fraction below the threshold) would
        // only blur the group's semantics — evict it into a singleton
        // group (its own fan-out still compresses d:1).
        std::vector<std::uint32_t> evicted;
        if (cfg.min_cohesion > 0.0) {
            SCGNN_CHECK(cfg.min_cohesion <= 1.0,
                        "min_cohesion is a fraction in [0, 1]");
            for (auto& members : clusters) {
                if (members.size() < 2) continue;
                tally.add(dbg, members);
                std::vector<std::uint32_t> kept;
                kept.reserve(members.size());
                for (std::uint32_t u : members) {
                    const auto sinks = dbg.out_neighbors(u);
                    std::size_t shared = 0;
                    for (std::uint32_t v : sinks)
                        if (tally.count[v] >= 2) ++shared;
                    const double cohesion =
                        static_cast<double>(shared) /
                        static_cast<double>(sinks.size());
                    if (cohesion + 1e-12 >= cfg.min_cohesion)
                        kept.push_back(u);
                    else
                        evicted.push_back(u);
                }
                tally.clear();
                // Keeping a single survivor is fine — it becomes a
                // singleton group below via the same path.
                members = std::move(kept);
            }
        }
        for (auto& members : clusters)
            if (!members.empty())
                out.groups.push_back(make_group(dbg, std::move(members),
                                                ConnectionType::kM2M, tally));
        for (std::uint32_t u : evicted)
            out.groups.push_back(
                make_group(dbg, {u}, ConnectionType::kM2M, tally));
    }

    // Index rows → groups.
    for (std::size_t gi = 0; gi < out.groups.size(); ++gi)
        for (std::uint32_t u : out.groups[gi].members)
            out.group_of_row[u] = static_cast<std::int32_t>(gi);

    std::sort(out.raw_rows.begin(), out.raw_rows.end());

    // Every source row is either grouped or raw, never both.
    std::size_t covered = out.raw_rows.size();
    for (const SemanticGroup& g : out.groups) covered += g.members.size();
    SCGNN_ASSERT(covered == dbg.num_src(),
                 "grouping must partition the source rows");
    if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.counter("grouping.builds").add(1);
        reg.counter("grouping.groups").add(out.groups.size());
        reg.counter("grouping.raw_rows").add(out.raw_rows.size());
    }
    return out;
}

Grouping coarsen_grouping(const Dbg& dbg, const Grouping& fine,
                          std::uint32_t target_groups) {
    const std::size_t n = fine.groups.size();
    if (target_groups == 0) target_groups = 1;
    if (n <= target_groups) return fine;

    // Order groups by their smallest sink (ties: smallest member) so each
    // bucket merges sink-local semantics rather than arbitrary strangers.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  const SemanticGroup& ga = fine.groups[a];
                  const SemanticGroup& gb = fine.groups[b];
                  if (ga.sinks.front() != gb.sinks.front())
                      return ga.sinks.front() < gb.sinks.front();
                  return ga.members.front() < gb.members.front();
              });

    Grouping out;
    out.raw_rows = fine.raw_rows;
    out.group_of_row = fine.group_of_row;  // re-indexed below
    out.chosen_k = fine.chosen_k;
    out.groups.reserve(target_groups);
    SinkTally tally(dbg);
    // Fold the ordered groups into target_groups contiguous buckets whose
    // sizes differ by at most one (every bucket non-empty since n > target).
    std::size_t begin = 0;
    for (std::uint32_t b = 0; b < target_groups; ++b) {
        const std::size_t end = (static_cast<std::size_t>(b) + 1) * n /
                                target_groups;
        std::vector<std::uint32_t> members;
        ConnectionType origin = fine.groups[order[begin]].origin;
        for (std::size_t i = begin; i < end; ++i) {
            const SemanticGroup& g = fine.groups[order[i]];
            members.insert(members.end(), g.members.begin(), g.members.end());
            if (g.origin != origin) origin = ConnectionType::kM2M;
        }
        out.groups.push_back(
            make_group(dbg, std::move(members), origin, tally));
        begin = end;
    }
    for (std::size_t gi = 0; gi < out.groups.size(); ++gi)
        for (std::uint32_t u : out.groups[gi].members)
            out.group_of_row[u] = static_cast<std::int32_t>(gi);
    return out;
}

} // namespace scgnn::core
