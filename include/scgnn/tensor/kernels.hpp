#pragma once
/// \file kernels.hpp
/// \brief The microkernels behind the dense/sparse tensor ops: row-major
///        AXPY, dot product and squared distance.
///
/// Numeric contract (DESIGN.md §10): each kernel is one plain loop with a
/// fixed accumulation order, so every result is the same bit for bit at
/// every thread count. Multiply and add round separately (never FMA).

#include <cstddef>

namespace scgnn::tensor::kern {

/// y[j] += a * x[j] for j in [0, n) — the GEMM/SpMM inner loop.
void axpy(float a, const float* x, float* y, std::size_t n) noexcept;

/// Ascending-index accumulation Σ a[p]·b[p].
[[nodiscard]] float dot(const float* a, const float* b,
                        std::size_t n) noexcept;

/// Double-accumulated Σ (a[i]−b[i])² — the k-means distance.
[[nodiscard]] double sq_dist(const float* a, const float* b,
                             std::size_t n) noexcept;

} // namespace scgnn::tensor::kern
