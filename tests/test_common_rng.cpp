// Unit tests for the deterministic RNG substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "scgnn/common/rng.hpp"

namespace scgnn {
namespace {

TEST(Rng, SameSeedSameStream) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
    Rng a(7);
    const auto first = a();
    (void)a();
    a.reseed(7);
    EXPECT_EQ(a(), first);
}

TEST(Rng, ForkProducesIndependentStream) {
    Rng parent(5);
    Rng child = parent.fork(0);
    Rng parent2(5);
    Rng child2 = parent2.fork(0);
    // Forks are deterministic...
    for (int i = 0; i < 16; ++i) EXPECT_EQ(child(), child2());
    // ...and differ from sibling forks.
    Rng sibling = parent.fork(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (child() == sibling()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng r(42);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng r(42);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.5, 2.5);
        EXPECT_GE(u, -3.5);
        EXPECT_LT(u, 2.5);
    }
}

TEST(Rng, UniformU64CoversRangeWithoutBias) {
    Rng r(9);
    std::array<int, 5> hist{};
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) ++hist[r.uniform_u64(5)];
    for (int c : hist) {
        EXPECT_GT(c, draws / 5 - draws / 25);
        EXPECT_LT(c, draws / 5 + draws / 25);
    }
}

TEST(Rng, UniformU64RejectsEmptyRange) {
    Rng r(1);
    EXPECT_THROW((void)r.uniform_u64(0), Error);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
    Rng r(11);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalShiftScale) {
    Rng r(12);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += r.normal(5.0, 0.1);
    EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng r(13);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng r(14);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
    Rng r(15);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    const auto before = v;
    r.shuffle(v);
    EXPECT_NE(v, before);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
    Rng r(16);
    for (std::uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
        const auto s = r.sample_without_replacement(100, k);
        EXPECT_EQ(s.size(), k);
        std::set<std::uint32_t> uniq(s.begin(), s.end());
        EXPECT_EQ(uniq.size(), k);
        for (auto x : s) EXPECT_LT(x, 100u);
    }
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
    Rng r(17);
    const auto s = r.sample_without_replacement(10, 10);
    std::set<std::uint32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
    Rng r(18);
    EXPECT_THROW((void)r.sample_without_replacement(5, 6), Error);
    std::vector<std::uint32_t> out, scratch;
    EXPECT_THROW(r.sample_without_replacement(5, 6, out, scratch), Error);
}

// Literal draws pin every branch: the dense partial Fisher–Yates
// (k·3 ≥ n), Floyd with the linear membership scan (small k) and Floyd
// with the hash set (large k). Both Floyd cases include draws
// that collide with an earlier pick and are replaced by j.
TEST(Rng, SampleWithoutReplacementPinnedDraws) {
    struct Case {
        std::uint64_t seed;
        std::uint32_t n, k;
        std::vector<std::uint32_t> want;
    };
    const Case cases[] = {
        {2024, 20, 7, {1, 15, 3, 5, 16, 8, 11}},
        {5, 40, 13, {8, 17, 19, 25, 16, 32, 33, 28, 13, 14, 37, 9, 39}},
        {13, 120, 39, {19, 64, 80, 9,  56, 38, 11, 50, 53, 40,  51, 45, 76,
                       94, 26, 63, 75, 82, 24, 13, 101, 70, 77, 100, 61, 31,
                       99, 65, 47, 5,  21, 96, 41, 60, 97, 93, 44, 0,  119}},
    };
    for (const Case& c : cases) {
        Rng r(c.seed);
        EXPECT_EQ(r.sample_without_replacement(c.n, c.k), c.want)
            << "n=" << c.n << " k=" << c.k;
    }
}

TEST(Rng, SampleWithoutReplacementOutParamMatchesReturningForm) {
    Rng pick(19);
    // Buffers reused across calls, as batch samplers do.
    std::vector<std::uint32_t> out, scratch;
    for (int trial = 0; trial < 400; ++trial) {
        const auto n = static_cast<std::uint32_t>(1 + pick.index(300));
        std::uint32_t k = static_cast<std::uint32_t>(pick.index(n + 1));
        if (trial % 7 == 0) k = 0;
        if (trial % 7 == 1) k = n;
        const std::uint64_t seed = pick();
        Rng a(seed), b(seed);
        const std::vector<std::uint32_t> want =
            a.sample_without_replacement(n, k);
        b.sample_without_replacement(n, k, out, scratch);
        ASSERT_EQ(out, want) << "n=" << n << " k=" << k;
        // Both forms leave the engine at the same point of its stream.
        ASSERT_EQ(a(), b());
    }
}

TEST(Rng, SplitMix64IsDeterministic) {
    std::uint64_t s1 = 99, s2 = 99;
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
    EXPECT_EQ(s1, s2);
}

} // namespace
} // namespace scgnn
