#include "scgnn/tensor/sparse.hpp"

#include <algorithm>

#include "scgnn/common/parallel.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::tensor {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
    for (const auto& t : triplets) {
        SCGNN_CHECK(t.row < rows_, "triplet row out of range");
        SCGNN_CHECK(t.col < cols_, "triplet col out of range");
    }
    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet& a, const Triplet& b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });

    ptr_.assign(rows_ + 1, 0);
    col_.reserve(triplets.size());
    val_.reserve(triplets.size());
    for (std::size_t i = 0; i < triplets.size();) {
        const auto r = triplets[i].row;
        const auto c = triplets[i].col;
        float sum = 0.0f;
        while (i < triplets.size() && triplets[i].row == r &&
               triplets[i].col == c)
            sum += triplets[i++].value;
        col_.push_back(c);
        val_.push_back(sum);
        ++ptr_[r + 1];
    }
    for (std::size_t r = 0; r < rows_; ++r) ptr_[r + 1] += ptr_[r];
}

void SparseMatrix::assign(std::size_t rows, std::size_t cols,
                          std::vector<std::uint64_t>& ptr,
                          std::vector<std::uint32_t>& col,
                          std::vector<float>& val) {
    SCGNN_CHECK(ptr.size() == rows + 1 && ptr[0] == 0 &&
                    ptr[rows] == col.size() && val.size() == col.size(),
                "CSR arrays must match the shape");
    for (std::size_t r = 0; r < rows; ++r)
        SCGNN_CHECK(ptr[r] <= ptr[r + 1], "CSR row pointers must ascend");
    for (std::size_t r = 0; r < rows; ++r)
        for (std::uint64_t i = ptr[r]; i < ptr[r + 1]; ++i)
            SCGNN_CHECK(col[i] < cols && (i == ptr[r] || col[i - 1] < col[i]),
                        "CSR columns must ascend strictly within a row");
    rows_ = rows;
    cols_ = cols;
    ptr_.swap(ptr);
    col_.swap(col);
    val_.swap(val);
}

std::span<const std::uint32_t> SparseMatrix::row_cols(std::size_t r) const {
    SCGNN_CHECK(r < rows_, "sparse row index out of range");
    return {col_.data() + ptr_[r], static_cast<std::size_t>(ptr_[r + 1] - ptr_[r])};
}

std::span<const float> SparseMatrix::row_vals(std::size_t r) const {
    SCGNN_CHECK(r < rows_, "sparse row index out of range");
    return {val_.data() + ptr_[r], static_cast<std::size_t>(ptr_[r + 1] - ptr_[r])};
}

float SparseMatrix::coeff(std::size_t r, std::size_t c) const {
    SCGNN_CHECK(r < rows_ && c < cols_, "sparse index out of range");
    const auto cols = row_cols(r);
    const auto it = std::lower_bound(cols.begin(), cols.end(),
                                     static_cast<std::uint32_t>(c));
    if (it == cols.end() || *it != c) return 0.0f;
    return val_[ptr_[r] + static_cast<std::size_t>(it - cols.begin())];
}

SparseMatrix SparseMatrix::transposed() const {
    // Two-pass counting transpose, O(nnz) with no sort: pass 1 counts the
    // nonzeros per output row (our columns), pass 2 scatters through a
    // per-row cursor. Scanning our rows in ascending order places every
    // output row's entries in ascending column order — the same ordering
    // the triplet-sort construction produced — and the input is already
    // deduplicated, so no merge pass is needed.
    SparseMatrix t;
    t.rows_ = cols_;
    t.cols_ = rows_;
    t.ptr_.assign(cols_ + 1, 0);
    for (const std::uint32_t c : col_) ++t.ptr_[c + 1];
    for (std::size_t c = 0; c < cols_; ++c) t.ptr_[c + 1] += t.ptr_[c];
    t.col_.resize(nnz());
    t.val_.resize(nnz());
    std::vector<std::uint64_t> cursor(t.ptr_.begin(), t.ptr_.end() - 1);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::uint64_t i = ptr_[r]; i < ptr_[r + 1]; ++i) {
            const std::uint64_t pos = cursor[col_[i]]++;
            t.col_[pos] = static_cast<std::uint32_t>(r);
            t.val_[pos] = val_[i];
        }
    }
    return t;
}

Matrix SparseMatrix::to_dense() const {
    Matrix d(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const auto cols = row_cols(r);
        const auto vals = row_vals(r);
        for (std::size_t i = 0; i < cols.size(); ++i) d(r, cols[i]) = vals[i];
    }
    return d;
}

void spmm_into(const SparseMatrix& s, const Matrix& x, Matrix& y) {
    SCGNN_CHECK(s.cols() == x.rows(), "spmm inner dimensions must agree");
    y.reshape_zero(s.rows(), x.cols());
    const std::size_t f = x.cols();
    // Row-parallel on the global pool: each output row is owned by exactly
    // one chunk, so no synchronisation is needed and the result is bitwise
    // identical at every thread count. The grain is sized from the average
    // row cost so ragged degree distributions still balance via the pool's
    // dynamic chunk hand-out.
    const std::size_t avg_row_work =
        s.rows() == 0 ? 0 : (s.nnz() / s.rows() + 1) * f;
    const bool simd = kern::use_simd();
    parallel_for(0, s.rows(), grain_for(avg_row_work),
                 [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            const auto cols = s.row_cols(r);
            const auto vals = s.row_vals(r);
            float* yr = y.data() + r * f;
            for (std::size_t i = 0; i < cols.size(); ++i) {
                const float* xr =
                    x.data() + static_cast<std::size_t>(cols[i]) * f;
                if (simd)
                    kern::axpy_avx2(vals[i], xr, yr, f);
                else
                    kern::axpy_scalar(vals[i], xr, yr, f);
            }
        }
    });
}

Matrix spmm(const SparseMatrix& s, const Matrix& x) {
    Matrix y;
    spmm_into(s, x, y);
    return y;
}

BlockedCsr::BlockedCsr(const SparseMatrix& s, std::size_t block_cols)
    : rows_(s.rows()), cols_(s.cols()), block_cols_(block_cols) {
    SCGNN_CHECK(block_cols_ > 0, "block_cols must be positive");
    blocks_ = cols_ == 0 ? 0 : (cols_ + block_cols_ - 1) / block_cols_;
    ptr_.assign(blocks_ * (rows_ + 1), 0);
    col_.resize(s.nnz());
    val_.resize(s.nnz());
    if (blocks_ == 0) return;

    // Pass 1: count nonzeros per (block, row). A CSR row's columns ascend,
    // so its block ids are monotone and pass 2's sequential fill keeps the
    // within-(block,row) column order ascending.
    for (std::size_t r = 0; r < rows_; ++r)
        for (const std::uint32_t c : s.row_cols(r))
            ++ptr_[(c / block_cols_) * (rows_ + 1) + r + 1];
    std::uint64_t running = 0;
    for (std::size_t b = 0; b < blocks_; ++b) {
        std::uint64_t* bp = ptr_.data() + b * (rows_ + 1);
        bp[0] = running;
        for (std::size_t r = 0; r < rows_; ++r) {
            running += bp[r + 1];
            bp[r + 1] = running;
        }
    }

    // Pass 2: scatter through per-(block,row) cursors derived in place.
    std::vector<std::uint64_t> cursor(ptr_.size());
    for (std::size_t b = 0; b < blocks_; ++b)
        for (std::size_t r = 0; r < rows_; ++r)
            cursor[b * (rows_ + 1) + r] = ptr_[b * (rows_ + 1) + r];
    for (std::size_t r = 0; r < rows_; ++r) {
        const auto cols = s.row_cols(r);
        const auto vals = s.row_vals(r);
        for (std::size_t i = 0; i < cols.size(); ++i) {
            const std::size_t b = cols[i] / block_cols_;
            const std::uint64_t pos = cursor[b * (rows_ + 1) + r]++;
            col_[pos] = cols[i];
            val_[pos] = vals[i];
        }
    }
}

void spmm_into(const BlockedCsr& s, const Matrix& x, Matrix& y) {
    SCGNN_CHECK(s.cols() == x.rows(), "spmm inner dimensions must agree");
    y.reshape_zero(s.rows(), x.cols());
    const std::size_t f = x.cols();
    const std::size_t avg_row_work =
        s.rows() == 0 ? 0 : (s.nnz() / s.rows() + 1) * f;
    const bool simd = kern::use_simd();
    // Blocks ascend serially; rows fan out within a block. Per output
    // element the accumulation order is ascending column — identical to
    // the plain-CSR kernel — while each block's slice of x stays resident
    // across all the rows that touch it.
    for (std::size_t b = 0; b < s.num_blocks(); ++b) {
        const std::uint64_t* bp = s.ptr_.data() + b * (s.rows_ + 1);
        parallel_for(0, s.rows(), grain_for(avg_row_work),
                     [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
                float* yr = y.data() + r * f;
                for (std::uint64_t i = bp[r]; i < bp[r + 1]; ++i) {
                    const float* xr =
                        x.data() + static_cast<std::size_t>(s.col_[i]) * f;
                    if (simd)
                        kern::axpy_avx2(s.val_[i], xr, yr, f);
                    else
                        kern::axpy_scalar(s.val_[i], xr, yr, f);
                }
            }
        });
    }
}

Matrix spmm(const BlockedCsr& s, const Matrix& x) {
    Matrix y;
    spmm_into(s, x, y);
    return y;
}

Matrix spmm_parallel(const SparseMatrix& s, const Matrix& x, unsigned threads) {
    SCGNN_CHECK(s.cols() == x.rows(), "spmm inner dimensions must agree");
    // spmm() itself now runs on the shared pool; this wrapper only pins an
    // explicit width for the duration of the call (thread-scaling benches,
    // legacy callers). threads == 0 restores the SCGNN_THREADS/hardware
    // default via the guard.
    ThreadCountGuard guard(threads);
    return spmm(s, x);
}

void spmm_transposed_into(const SparseMatrix& s, const Matrix& x, Matrix& y) {
    SCGNN_CHECK(s.rows() == x.rows(),
                "spmm_transposed requires x rows == s rows");
    y.reshape_zero(s.cols(), x.cols());
    const std::size_t f = x.cols();
    const bool simd = kern::use_simd();
    for (std::size_t r = 0; r < s.rows(); ++r) {
        const auto cols = s.row_cols(r);
        const auto vals = s.row_vals(r);
        const float* xr = x.data() + r * f;
        for (std::size_t i = 0; i < cols.size(); ++i) {
            float* yr = y.data() + static_cast<std::size_t>(cols[i]) * f;
            if (simd)
                kern::axpy_avx2(vals[i], xr, yr, f);
            else
                kern::axpy_scalar(vals[i], xr, yr, f);
        }
    }
}

Matrix spmm_transposed(const SparseMatrix& s, const Matrix& x) {
    Matrix y;
    spmm_transposed_into(s, x, y);
    return y;
}

} // namespace scgnn::tensor
