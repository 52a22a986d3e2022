#pragma once
/// \file ops.hpp
/// \brief Dense kernels used by the GNN layers: GEMM variants, activations,
///        softmax + cross-entropy (forward and backward) and small row-wise
///        utilities. All kernels are written against Matrix and are
///        deliberately cache-friendly (i-k-j loop order) but otherwise
///        straightforward — the reproduction's bottleneck is communication,
///        matching the paper's Fig. 2(b) breakdown.

#include <cstdint>
#include <span>
#include <vector>

#include "scgnn/tensor/matrix.hpp"

namespace scgnn::tensor {

/// C = A · B. Shapes: (m×k)·(k×n) → (m×n).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// C = Aᵀ · B. Shapes: (k×m)ᵀ·(k×n) → (m×n). Used by weight gradients.
[[nodiscard]] Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A · Bᵀ. Shapes: (m×k)·(n×k)ᵀ → (m×n). Used by input gradients.
[[nodiscard]] Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

// The *_into forms write into a caller-owned destination (reshaped in
// place, so steady-state callers reuse capacity and never allocate). The
// destination must not alias either input. Values are bitwise identical
// to the allocating forms above.

/// c = A · B into a reused destination.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);

/// c = Aᵀ · B into a reused destination.
void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c);

/// c = A · Bᵀ into a reused destination.
void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c);

/// Element-wise ReLU, returning a new matrix.
[[nodiscard]] Matrix relu(const Matrix& x);

/// relu() into a reused destination (must not alias `x`).
void relu_into(const Matrix& x, Matrix& y);

/// ReLU backward: grad_in = grad_out ⊙ 1[x > 0], where `x` is the *input*
/// that was fed to relu().
[[nodiscard]] Matrix relu_backward(const Matrix& grad_out, const Matrix& x);

/// relu_backward() into a reused destination (must not alias an input).
void relu_backward_into(const Matrix& grad_out, const Matrix& x, Matrix& g);

/// Mean softmax cross-entropy over the rows listed in `mask` (the train/test
/// split). `labels[r]` is the class index of row r. Returns the mean loss.
[[nodiscard]] double softmax_cross_entropy(
    const Matrix& logits, std::span<const std::int32_t> labels,
    std::span<const std::uint32_t> mask);

/// Gradient of mean softmax cross-entropy w.r.t. the logits; rows not in
/// `mask` receive zero gradient. Matches softmax_cross_entropy above.
[[nodiscard]] Matrix softmax_cross_entropy_grad(
    const Matrix& logits, std::span<const std::int32_t> labels,
    std::span<const std::uint32_t> mask);

/// softmax_cross_entropy_grad() into a reused destination.
void softmax_cross_entropy_grad_into(const Matrix& logits,
                                     std::span<const std::int32_t> labels,
                                     std::span<const std::uint32_t> mask,
                                     Matrix& grad);

/// Per-row argmax (predicted class per node).
[[nodiscard]] std::vector<std::int32_t> row_argmax(const Matrix& logits);

/// Fraction of rows in `mask` whose argmax equals the label — the "test
/// accuracy" column of Table 1.
[[nodiscard]] double masked_accuracy(const Matrix& logits,
                                     std::span<const std::int32_t> labels,
                                     std::span<const std::uint32_t> mask);

/// out = a + b (new matrix); shapes must match.
[[nodiscard]] Matrix add(const Matrix& a, const Matrix& b);

/// y += alpha * x over the full payload; shapes must match.
void axpy(float alpha, const Matrix& x, Matrix& y);

/// Copy row ids[i] of `src` into row i of `dst` for every i. `dst` needs
/// src's column count and at least ids.size() rows.
void gather_rows(const Matrix& src, std::span<const std::uint32_t> ids,
                 Matrix& dst);

/// Transpose (m×n) → (n×m).
[[nodiscard]] Matrix transpose(const Matrix& m);

} // namespace scgnn::tensor
