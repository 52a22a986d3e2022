#pragma once
/// \file elbow.hpp
/// \brief Elbow-equilibrium-point (EEP) search for the group-number
///        hyper-parameter (§3.2, Fig. 4(b)): sweep k, record the k-means
///        inertia curve, and pick the point of maximum discrete curvature
///        — "the most distorted point".

#include <cstdint>
#include <vector>

#include "scgnn/core/kmeans.hpp"

namespace scgnn::core {

/// Elbow sweep parameters.
struct ElbowConfig {
    std::uint32_t k_min = 2;
    std::uint32_t k_max = 32;
    std::uint32_t k_step = 1;
    KMeansConfig kmeans{};  ///< k field is overwritten during the sweep
};

/// Elbow sweep outcome.
struct ElbowResult {
    std::vector<std::uint32_t> ks;       ///< swept k values
    std::vector<double> inertia;         ///< inertia per k
    std::vector<double> curvature;       ///< discrete curvature per k
    std::uint32_t best_k = 0;            ///< the EEP
    /// The sweep's k-means assignment at best_k (find_eep/find_eep_dbg
    /// only; pick_elbow leaves it empty).
    std::vector<std::uint32_t> assignment;
};

/// Sweep k over [k_min, k_max] and return the EEP. k_max is clamped to the
/// row count; requires at least three distinct k values after clamping
/// (otherwise best_k is the smallest k). The k values run in parallel,
/// one task and one seeded k-means each, so the result is bitwise the
/// same at every thread count.
[[nodiscard]] ElbowResult find_eep(const tensor::Matrix& rows,
                                   const ElbowConfig& cfg);

/// Sparse-path elbow sweep over DBG source rows (see kmeans_dbg_rows);
/// identical selection rule as find_eep.
[[nodiscard]] ElbowResult find_eep_dbg(const graph::Dbg& dbg,
                                       std::span<const std::uint32_t> pool,
                                       const ElbowConfig& cfg);

/// Select the EEP from a precomputed (k, inertia) curve: both axes are
/// normalised to [0,1] and the interior point of maximum discrete
/// curvature wins. With fewer than three points the first k is returned.
[[nodiscard]] ElbowResult pick_elbow(std::vector<std::uint32_t> ks,
                                     std::vector<double> inertia);

} // namespace scgnn::core
