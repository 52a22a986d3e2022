#pragma once
/// \file analysis.hpp
/// \brief Diagnostics over DBGs and groupings: grouping-quality metrics
///        used by the ablation studies and examples.

#include <cstdint>

#include "scgnn/core/grouping.hpp"

namespace scgnn::core {

/// Quality metrics of one grouping, per the paper's cohesion framing:
/// good groupings have high similarity inside groups, low across.
struct GroupingQuality {
    double mean_intra_similarity = 0.0;  ///< member pairs within groups
    double mean_inter_similarity = 0.0;  ///< pairs straddling groups
    double cohesion_ratio = 0.0;         ///< intra / max(inter, ε)
    double coverage = 0.0;               ///< grouped edges / all edges
    double compression_ratio = 1.0;      ///< per-edge rows / wire rows
    double mean_group_size = 0.0;        ///< edges per group
};

/// Evaluate a grouping against its DBG. Pairwise terms are computed over
/// the M2M groups' members; groups larger than `max_pair_members` are
/// deterministically subsampled to bound the cost.
[[nodiscard]] GroupingQuality evaluate_grouping(
    const graph::Dbg& dbg, const Grouping& grouping,
    std::uint32_t max_pair_members = 64);

} // namespace scgnn::core
