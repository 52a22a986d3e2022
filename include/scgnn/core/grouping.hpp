#pragma once
/// \file grouping.hpp
/// \brief Semantic group construction for one DBG (§3.2/§3.3 and the
///        framework rules of §4):
///
///   * M2M source nodes are clustered by similarity-driven k-means (group
///     number from the EEP search unless pinned);
///   * O2M sources and M2O sink-stars are natural full-mapping groups and
///     bypass clustering;
///   * O2O sources stay ungrouped ("raw") — they are either sent verbatim
///     or removed entirely by the differential optimisation (§5.3).
///
/// Each group carries its L-SALSA weights: w_out(u) = D(u)/|E_g| on the
/// source side and w_in(v) = D(v)/|E_g| on the sink side, where degrees are
/// counted inside the group.

#include <cstdint>
#include <vector>

#include "scgnn/core/elbow.hpp"
#include "scgnn/core/similarity.hpp"
#include "scgnn/graph/bipartite.hpp"

namespace scgnn::core {

/// One semantic group g = (U_i, V_i, E_{U_i→V_i}) with L-SALSA weights.
struct SemanticGroup {
    graph::ConnectionType origin = graph::ConnectionType::kM2M;
    std::vector<std::uint32_t> members;      ///< local source rows (U_i)
    std::vector<std::uint32_t> sinks;        ///< local sink indices (V_i)
    std::vector<float> out_weights;          ///< w_out per member, sums to 1
    std::vector<float> in_weights;           ///< w_in per sink, sums to 1
    std::uint64_t edges = 0;                 ///< |E_{U_i→V_i}|

    /// The in-group compression ratio |E| : 1 of §3.3.
    [[nodiscard]] double compression_ratio() const noexcept {
        return static_cast<double>(edges);
    }
};

/// Grouping configuration.
struct GroupingConfig {
    std::uint32_t kmeans_k = 0;   ///< 0 = pick via EEP search
    std::uint32_t max_k = 32;     ///< elbow sweep upper bound
    std::uint64_t seed = 13;
    SimilarityKind kind = SimilarityKind::kSemantic;
    /// Cohesion guard (§2.2: "only two nodes that are sufficiently high
    /// cohesive to each other can be divided into a semantic group"): a
    /// clustered M2M source whose fraction of sinks shared with other
    /// members falls below this threshold is evicted into its own
    /// singleton group. 0 disables the guard. This is what keeps
    /// low-cohesion partitionings (random-cut) from blurring unrelated
    /// nodes into one semantics — the Table 2 volume/accuracy contrast.
    double min_cohesion = 0.10;
};

/// The complete grouping of one DBG.
struct Grouping {
    std::vector<SemanticGroup> groups;
    std::vector<std::uint32_t> raw_rows;     ///< ungrouped sources (O2O etc.)
    std::vector<std::int32_t> group_of_row;  ///< group id per source row, -1 = raw
    std::uint32_t chosen_k = 0;              ///< k used for the M2M pool (0 = none)

    /// Σ edges covered by groups.
    [[nodiscard]] std::uint64_t grouped_edges() const noexcept;

    /// Wire rows one exchange costs under this grouping: one per group plus
    /// one per raw-source *edge* (raw rows keep the per-edge vanilla model).
    [[nodiscard]] std::uint64_t wire_rows(const graph::Dbg& dbg) const;

    /// Overall compression ratio of the DBG: vanilla per-edge rows divided
    /// by wire_rows (≥ 1 when grouping helps; 1 on an empty DBG).
    [[nodiscard]] double compression_ratio(const graph::Dbg& dbg) const;
};

/// Build the semantic grouping of a DBG. Deterministic given cfg.seed.
[[nodiscard]] Grouping build_grouping(const graph::Dbg& dbg,
                                      const GroupingConfig& cfg);

/// Coarsen a grouping down to at most `target_groups` groups by merging
/// whole groups (raw rows are untouched — they are the rule layer's
/// verbatim set, not a budget). Groups are ordered by their smallest sink
/// so sink-local groups merge together, then folded into `target_groups`
/// contiguous buckets and re-derived from the DBG, so the merged L-SALSA
/// weights are exact. Deterministic; returns `fine` unchanged when it
/// already fits the budget. This is the semantic rate knob the warmup
/// schedule drives: wire rows scale ~linearly with the group budget where
/// the k-means k only reaches the M2M pool (dist/rate_control.hpp).
[[nodiscard]] Grouping coarsen_grouping(const graph::Dbg& dbg,
                                        const Grouping& fine,
                                        std::uint32_t target_groups);

/// Per-source-node connection class used by the framework rules (§4). A
/// source is O2O when it has one edge whose sink also has one edge; O2M
/// when it fans out only to exclusive sinks; M2O when it is a single-edge
/// source of a shared sink; M2M otherwise.
[[nodiscard]] std::vector<graph::ConnectionType> classify_sources(
    const graph::Dbg& dbg);

} // namespace scgnn::core
