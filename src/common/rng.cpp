#include "scgnn/common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <unordered_set>

namespace scgnn {

namespace {

/// Floyd's membership test scans the picks so far up to this many picks;
/// beyond it a hash set takes over.
constexpr std::uint32_t kFloydScanMax = 32;

} // namespace

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
    SCGNN_CHECK(n > 0, "uniform_u64 range must be non-empty");
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
        const std::uint64_t t = (0 - n) % n;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
    // Box–Muller; regenerate u1 away from zero to avoid log(0).
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
    std::vector<std::uint32_t> out, scratch;
    sample_without_replacement(n, k, out, scratch);
    return out;
}

void Rng::sample_without_replacement(std::uint32_t n, std::uint32_t k,
                                     std::vector<std::uint32_t>& out,
                                     std::vector<std::uint32_t>& scratch) {
    SCGNN_CHECK(k <= n, "cannot sample more elements than the population");
    out.clear();
    out.reserve(k);
    if (k == 0) return;
    if (k * 3 >= n) {
        // Dense case: partial Fisher–Yates over iota.
        scratch.resize(n);
        std::iota(scratch.begin(), scratch.end(), 0u);
        for (std::uint32_t i = 0; i < k; ++i) {
            const std::size_t j = i + index(n - i);
            std::swap(scratch[i], scratch[j]);
            out.push_back(scratch[i]);
        }
        return;
    }
    // Sparse case: Floyd's algorithm. The chosen set is exactly the picks
    // so far: a draw already taken is replaced by j, which no earlier step
    // could have picked.
    if (k <= kFloydScanMax) {
        for (std::uint32_t j = n - k; j < n; ++j) {
            auto t = static_cast<std::uint32_t>(uniform_u64(j + 1));
            if (std::find(out.begin(), out.end(), t) != out.end()) t = j;
            out.push_back(t);
        }
        return;
    }
    std::unordered_set<std::uint32_t> chosen;
    chosen.reserve(k * 2);
    for (std::uint32_t j = n - k; j < n; ++j) {
        auto t = static_cast<std::uint32_t>(uniform_u64(j + 1));
        if (!chosen.insert(t).second) chosen.insert(j), t = j;
        out.push_back(t);
    }
}

} // namespace scgnn
