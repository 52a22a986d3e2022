#include "scgnn/core/elbow.hpp"

#include <algorithm>

#include "scgnn/common/parallel.hpp"
#include "scgnn/common/stats.hpp"

namespace scgnn::core {

ElbowResult pick_elbow(std::vector<std::uint32_t> ks,
                       std::vector<double> inertia) {
    SCGNN_CHECK(!ks.empty(), "elbow selection needs at least one point");
    SCGNN_CHECK(ks.size() == inertia.size(), "ks/inertia length mismatch");

    ElbowResult res;
    res.ks = std::move(ks);
    res.inertia = std::move(inertia);

    if (res.ks.size() < 3) {
        res.best_k = res.ks.front();
        res.curvature.assign(res.ks.size(), 0.0);
        return res;
    }

    // Normalise both axes to [0,1] so curvature is scale-free, then pick
    // the interior point of maximum curvature — "the most distorted point".
    std::vector<double> xs(res.ks.size()), ys(res.ks.size());
    const double x_lo = res.ks.front(), x_hi = res.ks.back();
    double y_lo = res.inertia[0], y_hi = res.inertia[0];
    for (double v : res.inertia) {
        y_lo = std::min(y_lo, v);
        y_hi = std::max(y_hi, v);
    }
    const double y_span = std::max(y_hi - y_lo, 1e-12);
    for (std::size_t i = 0; i < res.ks.size(); ++i) {
        xs[i] = (static_cast<double>(res.ks[i]) - x_lo) / (x_hi - x_lo);
        ys[i] = (res.inertia[i] - y_lo) / y_span;
    }
    res.curvature = discrete_curvature(xs, ys);

    std::size_t best = 1;
    for (std::size_t i = 1; i + 1 < res.curvature.size(); ++i)
        if (res.curvature[i] > res.curvature[best]) best = i;
    res.best_k = res.ks[best];
    return res;
}

namespace {

void check_sweep(const ElbowConfig& cfg) {
    SCGNN_CHECK(cfg.k_min >= 1, "k_min must be at least 1");
    SCGNN_CHECK(cfg.k_step >= 1, "k_step must be at least 1");
    SCGNN_CHECK(cfg.k_max >= cfg.k_min, "k_max must be >= k_min");
}

/// Run `fit(kc)` for every k of the sweep, one grain-1 task per k into its
/// own slot; each run keeps its own seed, so the curve and the kept
/// assignment are the same at every thread count. The winner's assignment
/// is kept so the caller need not rerun k-means at the chosen k.
template <typename Fit>
ElbowResult sweep(std::uint32_t n, const ElbowConfig& cfg, const Fit& fit) {
    check_sweep(cfg);
    const std::uint32_t k_hi = std::min(cfg.k_max, n);
    std::vector<std::uint32_t> ks;
    for (std::uint32_t k = cfg.k_min; k <= k_hi; k += cfg.k_step)
        ks.push_back(k);
    SCGNN_CHECK(!ks.empty(), "elbow sweep produced no points");

    std::vector<KMeansResult> fits(ks.size());
    parallel_for(0, ks.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            KMeansConfig kc = cfg.kmeans;
            kc.k = ks[i];
            fits[i] = fit(kc);
            fits[i].centroids = tensor::Matrix();  // not needed past here
        }
    });
    std::vector<double> inertia;
    inertia.reserve(fits.size());
    for (const KMeansResult& r : fits) inertia.push_back(r.inertia);
    ElbowResult res = pick_elbow(ks, std::move(inertia));
    const auto best = static_cast<std::size_t>(
        std::find(ks.begin(), ks.end(), res.best_k) - ks.begin());
    res.assignment = std::move(fits[best].assignment);
    return res;
}

} // namespace

ElbowResult find_eep(const tensor::Matrix& rows, const ElbowConfig& cfg) {
    return sweep(static_cast<std::uint32_t>(rows.rows()), cfg,
                 [&](const KMeansConfig& kc) { return kmeans_rows(rows, kc); });
}

ElbowResult find_eep_dbg(const graph::Dbg& dbg,
                         std::span<const std::uint32_t> pool,
                         const ElbowConfig& cfg) {
    return sweep(static_cast<std::uint32_t>(pool.size()), cfg,
                 [&](const KMeansConfig& kc) {
                     return kmeans_dbg_rows(dbg, pool, kc);
                 });
}

} // namespace scgnn::core
