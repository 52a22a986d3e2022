#pragma once
/// \file rng.hpp
/// \brief Deterministic random number generation for the whole project.
///
/// Every stochastic component of the reproduction (graph generators,
/// k-means++ seeding, boundary-node sampling, weight init) takes an explicit
/// 64-bit seed and draws from this engine, so every benchmark row is
/// reproducible bit-for-bit across runs and machines. The engine is
/// xoshiro256** (public domain, Blackman & Vigna) seeded via splitmix64;
/// it is small, fast and has no global state.

#include <array>
#include <cstdint>
#include <vector>

#include "scgnn/common/error.hpp"

namespace scgnn {

/// splitmix64 step — used to expand a single u64 seed into engine state and
/// to derive independent child seeds. Stateless helper.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Deterministic, value-semantic PRNG (xoshiro256**).
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can be used
/// with <random> distributions, though the project prefers the built-in
/// helpers below for cross-platform determinism (libstdc++/libc++
/// distributions differ; these helpers do not).
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seed the engine; identical seeds produce identical streams.
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept { reseed(seed); }

    /// Re-seed in place.
    void reseed(std::uint64_t seed) noexcept {
        std::uint64_t sm = seed;
        for (auto& w : state_) w = splitmix64(sm);
    }

    /// Derive an independent child generator (e.g. one per partition) whose
    /// stream does not overlap with this one for practical purposes.
    [[nodiscard]] Rng fork(std::uint64_t stream_id) noexcept {
        std::uint64_t mix = next() ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
        return Rng(mix);
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    /// Next raw 64-bit draw.
    result_type operator()() noexcept { return next(); }

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection for
    /// unbiased results.
    [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t n);

    /// Uniform index in [0, n) as size_t convenience.
    [[nodiscard]] std::size_t index(std::size_t n) {
        return static_cast<std::size_t>(uniform_u64(n));
    }

    /// Standard normal via Box–Muller (deterministic, no cached spare to keep
    /// the state trivially copyable in tests).
    [[nodiscard]] double normal() noexcept;

    /// Normal with the given mean/stddev.
    [[nodiscard]] double normal(double mean, double stddev) noexcept {
        return mean + stddev * normal();
    }

    /// Bernoulli draw with probability p of true.
    [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Fisher–Yates shuffle of a vector, deterministic given the stream.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = index(i);
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Sample `k` distinct indices from [0, n) without replacement
    /// (Floyd's algorithm for k << n, otherwise shuffle of iota).
    [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
        std::uint32_t n, std::uint32_t k);

    /// The same draws written into caller buffers: `out` receives the k
    /// picks in draw order and `scratch` is working memory (the iota pool
    /// of the dense case). Reusing both across calls makes repeated
    /// sampling allocation-free, except for Floyd draws of more than 32
    /// picks, which use a hash set.
    void sample_without_replacement(std::uint32_t n, std::uint32_t k,
                                    std::vector<std::uint32_t>& out,
                                    std::vector<std::uint32_t>& scratch);

private:
    result_type next() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace scgnn
