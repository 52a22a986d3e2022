#pragma once
/// \file kernels.hpp
/// \brief The microkernels behind the dense/sparse tensor ops: the
///        register-tiled row kernels of SpMM and the GEMM variants, run at
///        the widest vector tier the CPU supports, plus row-major AXPY and
///        squared distance.
///
/// Numeric contract (DESIGN.md §10): each kernel has a fixed accumulation
/// order, so every result is the same bit for bit at every thread count
/// and on every tier. Multiply and add round separately (never FMA).

#include <cstddef>
#include <cstdint>

namespace scgnn::tensor::kern {

/// y[j] += a * x[j] for j in [0, n).
void axpy(float a, const float* x, float* y, std::size_t n) noexcept;

/// Double-accumulated Σ (a[i]−b[i])² — the k-means distance.
[[nodiscard]] double sq_dist(const float* a, const float* b,
                             std::size_t n) noexcept;

/// The vector tiers of the row kernels, narrowest first: 4, 8 and 16
/// float lanes (SSE2/NEON, AVX2, AVX-512F).
enum class Isa : std::uint8_t { kBaseline, kAvx2, kAvx512 };

/// "baseline", "avx2" or "avx512".
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// The tier every row kernel runs on: the widest this CPU supports,
/// resolved once.
[[nodiscard]] Isa active_isa() noexcept;

/// A CSR SpMM y = S·x: row r of the output sums val[i] · x[col[i]] over
/// i in [ptr[r], ptr[r+1]) in CSR order and lands at y + dst[r]·f, or at
/// y + r·f when dst is null. x and the output rows are f floats wide.
struct SpmmArgs {
    const std::uint64_t* ptr;
    const std::uint32_t* col;
    const float* val;
    const float* x;
    float* y;
    const std::uint32_t* dst;
    std::size_t f;
};

/// A row-major GEMM C = A·B with A m×k, B k×n and C m×n: C(i, :) sums
/// A(i,p) · B(p, :) over ascending p. With skip_zero, zero entries of A
/// add nothing, so 0·inf never enters a sum.
struct GemmArgs {
    const float* a;
    const float* b;
    float* c;
    std::size_t k, n;
    bool skip_zero;
};

/// A row-major C = Aᵀ·B with A k×m, B k×n and C m×n, cut into output
/// tiles: 4×8 when n ≤ 8, 2×16 otherwise. Each C(i,j) sums A(p,i)·B(p,j)
/// over ascending p, skipping zero A(p,i).
struct AtBArgs {
    const float* a;
    const float* b;
    float* c;
    std::size_t k, m, n;

    [[nodiscard]] std::size_t tile_rows() const noexcept {
        return n <= 8 ? 4 : 2;
    }
    [[nodiscard]] std::size_t tile_cols() const noexcept {
        return n <= 8 ? 8 : 16;
    }
    [[nodiscard]] std::size_t tiles() const noexcept {
        return (m + tile_rows() - 1) / tile_rows() *
               ((n + tile_cols() - 1) / tile_cols());
    }
};

/// Output rows [lo, hi) of `op` on the active tier. Each row is written by
/// exactly one call, so disjoint ranges may run in parallel.
void spmm_rows(const SpmmArgs& op, std::size_t lo, std::size_t hi);
void gemm_rows(const GemmArgs& op, std::size_t lo, std::size_t hi);
/// Output tiles [lo, hi) of `op` (row-major over the tile grid) on the
/// active tier.
void at_b_tiles(const AtBArgs& op, std::size_t lo, std::size_t hi);

namespace detail {

/// One tier's bodies of the three ops above.
struct Tier {
    Isa isa;
    void (*spmm)(const SpmmArgs&, std::size_t, std::size_t);
    void (*gemm)(const GemmArgs&, std::size_t, std::size_t);
    void (*at_b)(const AtBArgs&, std::size_t, std::size_t);
};

/// Every tier, indexed by Isa. A tier the CPU lacks must not be called.
extern const Tier kTiers[3];

/// Whether this CPU runs `isa`.
[[nodiscard]] bool supports(Isa isa) noexcept;

/// The widest supported entry of kTiers, resolved once.
[[nodiscard]] const Tier& active() noexcept;

} // namespace detail

} // namespace scgnn::tensor::kern
