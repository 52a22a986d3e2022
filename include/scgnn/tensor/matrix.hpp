#pragma once
/// \file matrix.hpp
/// \brief Dense row-major single-precision matrix — the tensor type that all
///        GNN math in this reproduction runs on.
///
/// Embeddings, weights and gradients in the paper are f32 tensors shaped
/// (nodes × features); this class provides exactly that with value
/// semantics, bounds-checked element access in debug paths and contiguous
/// storage so the kernels in ops.hpp can be written against raw spans.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "scgnn/common/error.hpp"
#include "scgnn/common/rng.hpp"

namespace scgnn::tensor {

/// Dense row-major matrix of f32. Rows are the natural unit of exchange in
/// distributed GNN training (one row = one node's embedding), so row views
/// are first-class.
class Matrix {
public:
    /// Empty 0x0 matrix.
    Matrix() = default;

    /// rows × cols matrix, zero-initialised.
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

    /// rows × cols matrix with every element set to `fill_value`.
    Matrix(std::size_t rows, std::size_t cols, float fill_value)
        : rows_(rows), cols_(cols), data_(rows * cols, fill_value) {}

    /// Build from explicit row-major data; `data.size()` must equal
    /// rows*cols.
    Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
        : rows_(rows), cols_(cols), data_(std::move(data)) {
        SCGNN_CHECK(data_.size() == rows_ * cols_,
                    "matrix data size must equal rows*cols");
    }

    /// Number of rows.
    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

    /// Number of columns.
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    /// Total element count.
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    /// True when the matrix holds no elements.
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Bytes occupied by the payload (what a vanilla exchange would ship).
    [[nodiscard]] std::size_t payload_bytes() const noexcept {
        return data_.size() * sizeof(float);
    }

    /// Checked element access.
    [[nodiscard]] float& at(std::size_t r, std::size_t c) {
        SCGNN_CHECK(r < rows_ && c < cols_, "matrix index out of range");
        return data_[r * cols_ + c];
    }

    /// Checked element access (const).
    [[nodiscard]] float at(std::size_t r, std::size_t c) const {
        SCGNN_CHECK(r < rows_ && c < cols_, "matrix index out of range");
        return data_[r * cols_ + c];
    }

    /// Unchecked element access for kernels.
    [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }

    /// Unchecked element access for kernels (const).
    [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    /// Mutable view of row `r`.
    [[nodiscard]] std::span<float> row(std::size_t r) {
        SCGNN_CHECK(r < rows_, "row index out of range");
        return {data_.data() + r * cols_, cols_};
    }

    /// Const view of row `r`.
    [[nodiscard]] std::span<const float> row(std::size_t r) const {
        SCGNN_CHECK(r < rows_, "row index out of range");
        return {data_.data() + r * cols_, cols_};
    }

    /// Whole payload as a mutable span.
    [[nodiscard]] std::span<float> flat() noexcept { return data_; }

    /// Whole payload as a const span.
    [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

    /// Raw pointer to the first element (row-major).
    [[nodiscard]] float* data() noexcept { return data_.data(); }

    /// Raw const pointer to the first element.
    [[nodiscard]] const float* data() const noexcept { return data_.data(); }

    /// Set every element to `v`.
    void fill(float v) noexcept {
        for (auto& x : data_) x = v;
    }

    /// Set every element to zero.
    void zero() noexcept { fill(0.0f); }

    /// Become a zeroed rows×cols matrix, reusing the existing storage
    /// whenever its capacity covers the new size — the no-allocation
    /// reshape the steady-state training paths rely on (DESIGN.md §10).
    void reshape_zero(std::size_t rows, std::size_t cols) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, 0.0f);
    }

    /// In-place element-wise addition; shapes must match.
    Matrix& operator+=(const Matrix& other);

    /// In-place element-wise subtraction; shapes must match.
    Matrix& operator-=(const Matrix& other);

    /// In-place scalar multiplication.
    Matrix& operator*=(float s) noexcept;

    /// Exact element-wise equality (used by round-trip tests).
    [[nodiscard]] bool operator==(const Matrix& other) const noexcept {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

    /// Glorot/Xavier-uniform initialisation, the init the GNN layers use.
    static Matrix glorot(std::size_t rows, std::size_t cols, Rng& rng);

    /// Matrix with i.i.d. N(mean, stddev²) entries.
    static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng,
                        float mean = 0.0f, float stddev = 1.0f);

    /// Identity matrix of order n.
    static Matrix identity(std::size_t n);

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/// Max absolute element-wise difference between two same-shaped matrices.
[[nodiscard]] float max_abs_diff(const Matrix& a, const Matrix& b);

/// Frobenius norm.
[[nodiscard]] float frobenius_norm(const Matrix& m) noexcept;

} // namespace scgnn::tensor
