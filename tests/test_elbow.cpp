// Unit tests for the EEP (elbow) search of §3.2 / Fig. 4(b).
#include <gtest/gtest.h>

#include <cstring>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/elbow.hpp"

namespace scgnn::core {
namespace {

using tensor::Matrix;

/// Rows drawn from `k_true` well-separated binary patterns: the inertia
/// curve must elbow near k_true.
Matrix planted_rows(std::uint32_t k_true, std::uint32_t per_cluster,
                    std::uint32_t dim, std::uint64_t seed) {
    Rng rng(seed);
    Matrix m(k_true * per_cluster, dim);
    const std::uint32_t width = dim / k_true;
    for (std::uint32_t c = 0; c < k_true; ++c)
        for (std::uint32_t i = 0; i < per_cluster; ++i) {
            const std::size_t r = c * per_cluster + i;
            for (std::uint32_t j = c * width; j < (c + 1) * width; ++j)
                m(r, j) = 1.0f;
            // A little noise so clusters are not perfectly tight.
            const std::size_t flip = rng.index(dim);
            m(r, flip) = 1.0f - m(r, flip);
        }
    return m;
}

TEST(Elbow, PickElbowOnIdealCurve) {
    // Inertia falls steeply to k=4 then flattens.
    const std::vector<std::uint32_t> ks{2, 3, 4, 5, 6, 7, 8};
    const std::vector<double> inertia{100, 55, 12, 10, 8.5, 7.5, 7};
    const ElbowResult res = pick_elbow(ks, inertia);
    EXPECT_EQ(res.best_k, 4u);
    EXPECT_EQ(res.curvature.size(), ks.size());
}

TEST(Elbow, FewerThanThreePointsReturnsFirstK) {
    const ElbowResult res = pick_elbow({3, 4}, {10.0, 5.0});
    EXPECT_EQ(res.best_k, 3u);
}

TEST(Elbow, PickElbowValidates) {
    EXPECT_THROW((void)pick_elbow({}, {}), Error);
    EXPECT_THROW((void)pick_elbow({1, 2}, {1.0}), Error);
}

TEST(Elbow, FindsPlantedClusterCount) {
    const Matrix rows = planted_rows(4, 12, 32, 7);
    ElbowConfig cfg;
    cfg.k_min = 2;
    cfg.k_max = 10;
    cfg.kmeans.seed = 3;
    const ElbowResult res = find_eep(rows, cfg);
    EXPECT_GE(res.best_k, 3u);
    EXPECT_LE(res.best_k, 5u);
    // Inertia must be (near-)decreasing over the sweep.
    for (std::size_t i = 1; i < res.inertia.size(); ++i)
        EXPECT_LE(res.inertia[i], res.inertia[i - 1] * 1.2);
}

TEST(Elbow, SparsePathAgreesWithDense) {
    // Same planted structure through a DBG.
    graph::Dbg dbg;
    dbg.src_part = 0;
    dbg.dst_part = 1;
    const Matrix rows = planted_rows(3, 10, 30, 9);
    dbg.src_nodes.resize(rows.rows());
    dbg.dst_nodes.resize(rows.cols());
    dbg.ptr = {0};
    for (std::size_t r = 0; r < rows.rows(); ++r) {
        for (std::uint32_t c = 0; c < rows.cols(); ++c)
            if (rows(r, c) > 0.5f) dbg.adj.push_back(c);
        dbg.ptr.push_back(dbg.adj.size());
    }
    std::vector<std::uint32_t> pool(rows.rows());
    for (std::uint32_t i = 0; i < pool.size(); ++i) pool[i] = i;

    ElbowConfig cfg;
    cfg.k_min = 2;
    cfg.k_max = 8;
    cfg.kmeans.seed = 5;
    const ElbowResult dense = find_eep(rows, cfg);
    const ElbowResult sparse = find_eep_dbg(dbg, pool, cfg);
    ASSERT_EQ(dense.inertia.size(), sparse.inertia.size());
    // Float accumulation order differs between the paths, so distinct local
    // optima within ~1% are possible; the curves (and hence the EEP) agree.
    for (std::size_t i = 0; i < dense.inertia.size(); ++i)
        EXPECT_NEAR(dense.inertia[i], sparse.inertia[i],
                    0.02 * (1.0 + dense.inertia[i]));
    EXPECT_NEAR(static_cast<double>(dense.best_k),
                static_cast<double>(sparse.best_k), 1.0);
}

TEST(Elbow, KeptAssignmentIsTheRunAtBestKAtEveryThreadCount) {
    // The sweep runs its k values in parallel and hands back the winner's
    // assignment; it must be exactly what a fresh k-means at best_k gives,
    // and the whole result must not depend on the pool width.
    const Matrix rows = planted_rows(4, 12, 40, 3);
    graph::Dbg dbg;
    dbg.src_nodes.resize(rows.rows());
    dbg.dst_nodes.resize(rows.cols());
    for (std::size_t r = 0; r < rows.rows(); ++r) {
        for (std::uint32_t c = 0; c < rows.cols(); ++c)
            if (rows(r, c) > 0.5f) dbg.adj.push_back(c);
        dbg.ptr.push_back(dbg.adj.size());
    }
    std::vector<std::uint32_t> pool(rows.rows());
    for (std::uint32_t i = 0; i < pool.size(); ++i) pool[i] = i;
    ElbowConfig cfg;
    cfg.k_min = 2;
    cfg.k_max = 9;
    cfg.kmeans.seed = 11;
    KMeansConfig kc = cfg.kmeans;

    const ElbowResult dense1 = find_eep(rows, cfg);
    const ElbowResult sparse1 = find_eep_dbg(dbg, pool, cfg);
    EXPECT_NE(dense1.best_k, cfg.k_min);
    kc.k = dense1.best_k;
    EXPECT_EQ(dense1.assignment, kmeans_rows(rows, kc).assignment);
    kc.k = sparse1.best_k;
    EXPECT_EQ(sparse1.assignment, kmeans_dbg_rows(dbg, pool, kc).assignment);

    auto same = [](const ElbowResult& a, const ElbowResult& b) {
        return a.ks == b.ks && a.best_k == b.best_k &&
               a.assignment == b.assignment &&
               a.inertia.size() == b.inertia.size() &&
               std::memcmp(a.inertia.data(), b.inertia.data(),
                           a.inertia.size() * sizeof(double)) == 0;
    };
    for (unsigned threads = 2; threads <= 4; ++threads) {
        const ThreadCountGuard guard(threads);
        EXPECT_TRUE(same(find_eep(rows, cfg), dense1)) << threads;
        EXPECT_TRUE(same(find_eep_dbg(dbg, pool, cfg), sparse1)) << threads;
    }
}

TEST(Elbow, KMaxClampedToRowCount) {
    const Matrix rows = planted_rows(2, 3, 8, 1);  // only 6 rows
    ElbowConfig cfg;
    cfg.k_min = 2;
    cfg.k_max = 50;
    const ElbowResult res = find_eep(rows, cfg);
    EXPECT_LE(res.ks.back(), 6u);
}

TEST(Elbow, StepControlsSweepDensity) {
    const Matrix rows = planted_rows(2, 10, 16, 2);
    ElbowConfig cfg;
    cfg.k_min = 2;
    cfg.k_max = 10;
    cfg.k_step = 2;
    const ElbowResult res = find_eep(rows, cfg);
    EXPECT_EQ(res.ks, (std::vector<std::uint32_t>{2, 4, 6, 8, 10}));
}

TEST(Elbow, ValidatesConfig) {
    const Matrix rows = planted_rows(2, 4, 8, 3);
    ElbowConfig cfg;
    cfg.k_min = 0;
    EXPECT_THROW((void)find_eep(rows, cfg), Error);
    cfg = {};
    cfg.k_min = 5;
    cfg.k_max = 4;
    EXPECT_THROW((void)find_eep(rows, cfg), Error);
    cfg = {};
    cfg.k_step = 0;
    EXPECT_THROW((void)find_eep(rows, cfg), Error);
}

} // namespace
} // namespace scgnn::core
