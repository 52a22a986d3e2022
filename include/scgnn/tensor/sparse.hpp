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

/// CSR with blocked columns: the nonzeros of each row are segmented into
/// column blocks of `block_cols` columns, stored block-major (all rows of
/// block 0, then block 1, ...). SpMM over this layout sweeps one block of
/// the dense operand's rows at a time, so the gathered x rows stay inside
/// the L2 cache instead of striding the whole operand per CSR row — the
/// cache-blocked boundary-row aggregate of DESIGN.md §10.
///
/// Because blocks are processed in ascending order and columns ascend
/// within a block, every output element accumulates its terms in exactly
/// the plain-CSR order: scalar blocked SpMM is bitwise identical to
/// spmm().
class BlockedCsr {
public:
    /// x-operand rows per block sized so a block of a 64-wide operand
    /// (~256 KiB) fits in a typical L2.
    static constexpr std::size_t kDefaultBlockCols = 1024;

    /// Empty 0×0 matrix.
    BlockedCsr() = default;

    /// Re-layout `s` with the given column-block width.
    explicit BlockedCsr(const SparseMatrix& s,
                        std::size_t block_cols = kDefaultBlockCols);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return col_.size(); }
    [[nodiscard]] std::size_t block_cols() const noexcept { return block_cols_; }
    [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_; }
    [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

    /// Row pointers of block `b` (size rows()+1, offsets into col_/val_).
    [[nodiscard]] std::span<const std::uint64_t> block_ptr(std::size_t b) const {
        SCGNN_CHECK(b < blocks_, "block index out of range");
        return {ptr_.data() + b * (rows_ + 1), rows_ + 1};
    }

    /// Column indices (global) of all nonzeros, block-major.
    [[nodiscard]] std::span<const std::uint32_t> col_idx() const noexcept {
        return col_;
    }

    /// Values parallel to col_idx().
    [[nodiscard]] std::span<const float> values() const noexcept { return val_; }

private:
    friend void spmm_into(const BlockedCsr&, const Matrix&, Matrix&);

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t block_cols_ = kDefaultBlockCols;
    std::size_t blocks_ = 0;
    std::vector<std::uint64_t> ptr_;  ///< blocks_ × (rows_+1) row pointers
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

/// Cache-blocked SpMM over the blocked layout; scalar path bitwise
/// identical to spmm() on the source matrix.
void spmm_into(const BlockedCsr& s, const Matrix& x, Matrix& y);

/// Allocating form of the blocked SpMM.
[[nodiscard]] Matrix spmm(const BlockedCsr& s, const Matrix& x);

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
