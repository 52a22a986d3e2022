#include "scgnn/graph/bipartite.hpp"

#include <algorithm>

#include "scgnn/common/parallel.hpp"

namespace scgnn::graph {

std::span<const std::uint32_t> Dbg::out_neighbors(std::uint32_t lu) const {
    SCGNN_CHECK(lu < num_src(), "local source index out of range");
    return {adj.data() + ptr[lu],
            static_cast<std::size_t>(ptr[lu + 1] - ptr[lu])};
}

std::uint32_t Dbg::out_degree(std::uint32_t lu) const {
    SCGNN_CHECK(lu < num_src(), "local source index out of range");
    return static_cast<std::uint32_t>(ptr[lu + 1] - ptr[lu]);
}

std::vector<std::uint32_t> Dbg::in_degrees() const {
    std::vector<std::uint32_t> deg(num_dst(), 0);
    for (std::uint32_t lv : adj) ++deg[lv];
    return deg;
}

std::vector<float> Dbg::dense_row(std::uint32_t lu) const {
    std::vector<float> row(num_dst(), 0.0f);
    for (std::uint32_t lv : out_neighbors(lu)) row[lv] = 1.0f;
    return row;
}

namespace {

constexpr std::uint32_t kAllParts = ~std::uint32_t{0};
constexpr std::uint32_t kUnseen = ~std::uint32_t{0};

/// One pass over the nodes of `src_part` that fills the DBG (src_part → q)
/// for every q ≠ src_part (or only for q == `only`). Sources arrive in
/// ascending global order, so each DBG's src_nodes, ptr and rows come out
/// in order. Sinks are collected in first-seen order and sorted once per
/// q; the sink sets of different q are disjoint, so one dense node → local
/// array relabels all of them. Slot src_part of the result stays empty;
/// with `only` set, only slot `only` is filled or indexed.
std::vector<Dbg> extract_from(const Graph& g,
                              std::span<const std::uint32_t> part_of,
                              std::uint32_t src_part, std::uint32_t num_parts,
                              std::uint32_t only) {
    std::vector<Dbg> out(num_parts);
    for (std::uint32_t q = 0; q < num_parts; ++q) {
        out[q].src_part = src_part;
        out[q].dst_part = q;
    }
    std::vector<std::uint32_t> local(g.num_nodes(), kUnseen);
    std::vector<std::uint8_t> hit(num_parts, 0);
    std::vector<std::uint32_t> touched;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
        if (part_of[u] != src_part) continue;
        for (std::uint32_t v : g.neighbors(u)) {
            const std::uint32_t q = part_of[v];
            if (q == src_part || (only != kAllParts && q != only)) continue;
            Dbg& dbg = out[q];
            if (hit[q] == 0) {
                hit[q] = 1;
                touched.push_back(q);
                dbg.src_nodes.push_back(u);
            }
            dbg.adj.push_back(v);  // global id until the relabel below
            if (local[v] == kUnseen) {
                local[v] = 0;
                dbg.dst_nodes.push_back(v);
            }
        }
        for (std::uint32_t q : touched) {
            out[q].ptr.push_back(out[q].adj.size());
            hit[q] = 0;
        }
        touched.clear();
    }
    for (Dbg& dbg : out) {
        std::sort(dbg.dst_nodes.begin(), dbg.dst_nodes.end());
        for (std::uint32_t i = 0; i < dbg.num_dst(); ++i)
            local[dbg.dst_nodes[i]] = i;
        for (std::uint32_t& v : dbg.adj) v = local[v];
    }
    return out;
}

} // namespace

Dbg extract_dbg(const Graph& g, std::span<const std::uint32_t> part_of,
                std::uint32_t src_part, std::uint32_t dst_part) {
    SCGNN_CHECK(part_of.size() == g.num_nodes(),
                "one partition id per node required");
    SCGNN_CHECK(src_part != dst_part, "DBG requires two distinct partitions");
    // Only slot dst_part is ever indexed, so the ids of other partitions
    // need no bound.
    const std::uint32_t slots = std::max(src_part, dst_part) + 1;
    return std::move(
        extract_from(g, part_of, src_part, slots, dst_part)[dst_part]);
}

std::vector<Dbg> extract_all_dbgs(const Graph& g,
                                  std::span<const std::uint32_t> part_of,
                                  std::uint32_t num_parts) {
    SCGNN_CHECK(num_parts >= 2, "need at least two partitions");
    SCGNN_CHECK(part_of.size() == g.num_nodes(),
                "one partition id per node required");
    for (std::uint32_t p : part_of)
        SCGNN_CHECK(p < num_parts, "partition id out of range");
    // One pass per source partition, in parallel; the gather below keeps
    // the p-major, q-minor order and skips the pairs with no cross edge.
    std::vector<std::vector<Dbg>> by_src(num_parts);
    parallel_for(0, num_parts, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p)
            by_src[p] = extract_from(g, part_of, static_cast<std::uint32_t>(p),
                                     num_parts, kAllParts);
    });
    std::vector<Dbg> out;
    for (std::uint32_t p = 0; p < num_parts; ++p)
        for (std::uint32_t q = 0; q < num_parts; ++q)
            if (q != p && by_src[p][q].num_edges() > 0)
                out.push_back(std::move(by_src[p][q]));
    return out;
}

const char* to_string(ConnectionType t) noexcept {
    switch (t) {
        case ConnectionType::kO2O: return "O2O";
        case ConnectionType::kO2M: return "O2M";
        case ConnectionType::kM2O: return "M2O";
        case ConnectionType::kM2M: return "M2M";
    }
    return "?";
}

std::vector<ConnectionType> classify_edges(const Dbg& dbg) {
    const auto in_deg = dbg.in_degrees();
    std::vector<ConnectionType> types;
    types.reserve(dbg.num_edges());
    for (std::uint32_t lu = 0; lu < dbg.num_src(); ++lu) {
        const bool fan_out = dbg.out_degree(lu) > 1;
        for (std::uint32_t lv : dbg.out_neighbors(lu)) {
            const bool fan_in = in_deg[lv] > 1;
            if (!fan_out && !fan_in)
                types.push_back(ConnectionType::kO2O);
            else if (fan_out && !fan_in)
                types.push_back(ConnectionType::kO2M);
            else if (!fan_out && fan_in)
                types.push_back(ConnectionType::kM2O);
            else
                types.push_back(ConnectionType::kM2M);
        }
    }
    return types;
}

ConnectionMix connection_mix(const Dbg& dbg) {
    ConnectionMix mix;
    for (ConnectionType t : classify_edges(dbg))
        ++mix.count[static_cast<int>(t)];
    return mix;
}

ConnectionMix connection_mix(const Graph& g,
                             std::span<const std::uint32_t> part_of,
                             std::uint32_t num_parts) {
    ConnectionMix mix;
    for (const Dbg& dbg : extract_all_dbgs(g, part_of, num_parts))
        mix.merge(connection_mix(dbg));
    return mix;
}

} // namespace scgnn::graph
