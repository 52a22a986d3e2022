#pragma once
/// \file kernels.hpp
/// \brief The microkernels behind the dense/sparse tensor ops: the
///        register-tiled row kernel of SpMM and the GEMM variants,
///        row-major AXPY and squared distance.
///
/// Numeric contract (DESIGN.md §10): each kernel has a fixed accumulation
/// order, so every result is the same bit for bit at every thread count.
/// Multiply and add round separately (never FMA).

#include <cstddef>
#include <cstring>

namespace scgnn::tensor::kern {

/// y[j] += a * x[j] for j in [0, n).
void axpy(float a, const float* x, float* y, std::size_t n) noexcept;

/// Double-accumulated Σ (a[i]−b[i])² — the k-means distance.
[[nodiscard]] double sq_dist(const float* a, const float* b,
                             std::size_t n) noexcept;

namespace detail {

/// Four floats with lane-wise arithmetic: a GCC/Clang vector extension,
/// not an intrinsic, so it compiles to SSE, AVX or NEON alike. Each lane
/// multiplies and adds with separate roundings, as scalar code does.
/// Tiles accumulate in these rather than in a `float acc[W]` because GCC
/// unrolls the scalar tile early and, under -march=native with AVX-512,
/// then vectorises across the terms instead of the columns (gathers and
/// in-order reductions), which made SpMM 5× slower than plain AXPY.
using f32x4 = float __attribute__((vector_size(16)));

/// y[0, W) = Σ_t a_t · x_t[j0, j0 + W) over the terms of `terms`. The
/// tile lives in W/4 local vector accumulators for the whole reduction
/// and is stored once.
template <std::size_t W, typename Terms>
inline void row_tile(float* y, std::size_t j0, const Terms& terms) {
    f32x4 acc[W / 4] = {};
    terms([&](float a, const float* x) {
        for (std::size_t q = 0; q < W / 4; ++q) {
            f32x4 v;
            std::memcpy(&v, x + j0 + 4 * q, sizeof v);
            acc[q] += a * v;
        }
    });
    std::memcpy(y, acc, sizeof acc);
}

/// row_tile() for the last w < 8 columns of a row.
template <typename Terms>
inline void row_tail(float* y, std::size_t j0, std::size_t w,
                     const Terms& terms) {
    float acc[8] = {};
    terms([&](float a, const float* x) {
        for (std::size_t j = 0; j < w; ++j) acc[j] += a * x[j0 + j];
    });
    for (std::size_t j = 0; j < w; ++j) y[j] = acc[j];
}

} // namespace detail

/// The row kernel of SpMM and the GEMM variants: y[0, n) = Σ_t a_t · x_t,
/// overwriting y. `terms(visit)` calls `visit(a_t, x_t)` once per term,
/// where x_t points at a source row of at least n floats. Every y[j]
/// starts from +0 and adds the separately rounded products a_t · x_t[j]
/// in the order the terms are visited, exactly as repeated
/// axpy(a_t, x_t, y, n) into a zeroed row would. The row is swept in
/// 16-float tiles, then one 8-float tile and a tail, and `terms` runs
/// once per tile, so it must visit the same terms each time.
template <typename Terms>
inline void row(float* y, std::size_t n, const Terms& terms) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) detail::row_tile<16>(y + j, j, terms);
    if (j + 8 <= n) {
        detail::row_tile<8>(y + j, j, terms);
        j += 8;
    }
    if (j < n) detail::row_tail(y + j, j, n - j, terms);
}

} // namespace scgnn::tensor::kern
