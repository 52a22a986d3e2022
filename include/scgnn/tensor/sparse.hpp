#pragma once
/// \file sparse.hpp
/// \brief CSR sparse matrix and SpMM — the aggregate kernel Â·H at the heart
///        of full-batch GNN training (Fig. 2(a) of the paper).

#include <cstdint>
#include <span>
#include <vector>

#include "scgnn/tensor/matrix.hpp"

namespace scgnn::tensor {

/// One nonzero in coordinate form, used to assemble CSR matrices.
struct Triplet {
    std::uint32_t row;
    std::uint32_t col;
    float value;
};

/// CSR (compressed sparse row) matrix of f32.
///
/// Built once from triplets (duplicates are summed, as graph adjacency
/// assembly requires) and then used read-only by SpMM; this mirrors how the
/// normalised adjacency Â is prepared once per partitioning and reused every
/// epoch. assign() swaps ready CSR arrays in, for per-batch matrices that
/// reuse their storage.
class SparseMatrix {
public:
    /// Empty 0×0 matrix.
    SparseMatrix() = default;

    /// Assemble from triplets. Duplicate (row,col) entries are summed.
    /// Triplets may arrive in any order.
    SparseMatrix(std::size_t rows, std::size_t cols,
                 std::vector<Triplet> triplets);

    /// Replace the contents with ready CSR arrays by swapping storage:
    /// `ptr`, `col` and `val` receive this matrix's previous arrays, so no
    /// element is copied. `ptr` holds rows+1 non-decreasing offsets from 0
    /// to nnz, and columns ascend strictly within each row. Checked in
    /// O(rows + nnz) before anything changes. Assigning an empty 0×0 CSR
    /// (`ptr` = {0}) hands a matrix's storage to a caller to refill.
    void assign(std::size_t rows, std::size_t cols,
                std::vector<std::uint64_t>& ptr,
                std::vector<std::uint32_t>& col, std::vector<float>& val);

    /// Number of rows.
    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

    /// Number of columns.
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    /// Number of stored nonzeros.
    [[nodiscard]] std::size_t nnz() const noexcept { return col_.size(); }

    /// Row-pointer array (size rows()+1).
    [[nodiscard]] std::span<const std::uint64_t> row_ptr() const noexcept {
        return ptr_;
    }

    /// Column indices of the nonzeros, row by row, ascending within a row.
    [[nodiscard]] std::span<const std::uint32_t> col_idx() const noexcept {
        return col_;
    }

    /// Values of the nonzeros, parallel to col_idx().
    [[nodiscard]] std::span<const float> values() const noexcept { return val_; }

    /// Column indices of row r.
    [[nodiscard]] std::span<const std::uint32_t> row_cols(std::size_t r) const;

    /// Values of row r.
    [[nodiscard]] std::span<const float> row_vals(std::size_t r) const;

    /// Dense lookup of element (r,c); O(log nnz(r)).
    [[nodiscard]] float coeff(std::size_t r, std::size_t c) const;

    /// Transposed copy.
    [[nodiscard]] SparseMatrix transposed() const;

    /// Dense (rows×cols) copy — for tests on tiny matrices only.
    [[nodiscard]] Matrix to_dense() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::uint64_t> ptr_{0};
    std::vector<std::uint32_t> col_;
    std::vector<float> val_;
};

/// y = S · x, the SpMM aggregate: (rows×cols)·(cols×f) → (rows×f).
/// Runs row-parallel on the global thread pool (see common/parallel.hpp);
/// each output row is owned by one worker, so the result is bitwise
/// identical at every thread count.
[[nodiscard]] Matrix spmm(const SparseMatrix& s, const Matrix& x);

/// spmm() into a reused destination (must not alias `x`).
void spmm_into(const SparseMatrix& s, const Matrix& x, Matrix& y);

/// y = Sᵀ · x without materialising the transpose: (cols×f) output.
/// Used by the backward pass of the aggregation.
[[nodiscard]] Matrix spmm_transposed(const SparseMatrix& s, const Matrix& x);

/// spmm_transposed() into a reused destination (must not alias `x`).
void spmm_transposed_into(const SparseMatrix& s, const Matrix& x, Matrix& y);

/// spmm() pinned to an explicit pool width for the duration of the call
/// (thread-scaling benches, legacy callers). threads == 0 restores the
/// SCGNN_THREADS/hardware default; threads == 1 runs the serial kernel.
/// Bit-identical to spmm().
[[nodiscard]] Matrix spmm_parallel(const SparseMatrix& s, const Matrix& x,
                                   unsigned threads = 0);

} // namespace scgnn::tensor
