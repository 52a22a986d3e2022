// Unit tests for the CSR SparseMatrix and the SpMM aggregate kernels.
#include <gtest/gtest.h>

#include <algorithm>

#include "scgnn/common/parallel.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace scgnn::tensor {
namespace {

SparseMatrix tiny() {
    // [[1 0 2],
    //  [0 0 0],
    //  [3 4 0]]
    return SparseMatrix(3, 3,
                        {{0, 0, 1.0f}, {0, 2, 2.0f}, {2, 0, 3.0f}, {2, 1, 4.0f}});
}

TEST(Sparse, BuildAndShape) {
    const SparseMatrix s = tiny();
    EXPECT_EQ(s.rows(), 3u);
    EXPECT_EQ(s.cols(), 3u);
    EXPECT_EQ(s.nnz(), 4u);
}

TEST(Sparse, EmptyMatrix) {
    SparseMatrix s;
    EXPECT_EQ(s.rows(), 0u);
    EXPECT_EQ(s.nnz(), 0u);
}

TEST(Sparse, CoeffLookup) {
    const SparseMatrix s = tiny();
    EXPECT_EQ(s.coeff(0, 0), 1.0f);
    EXPECT_EQ(s.coeff(0, 1), 0.0f);
    EXPECT_EQ(s.coeff(0, 2), 2.0f);
    EXPECT_EQ(s.coeff(1, 1), 0.0f);
    EXPECT_EQ(s.coeff(2, 1), 4.0f);
    EXPECT_THROW((void)s.coeff(3, 0), Error);
}

TEST(Sparse, DuplicateTripletsAreSummed) {
    const SparseMatrix s(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}});
    EXPECT_EQ(s.nnz(), 1u);
    EXPECT_EQ(s.coeff(0, 0), 3.5f);
}

TEST(Sparse, UnorderedTripletsSortedWithinRows) {
    const SparseMatrix s(1, 4, {{0, 3, 1.0f}, {0, 0, 2.0f}, {0, 2, 3.0f}});
    const auto cols = s.row_cols(0);
    EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
}

TEST(Sparse, OutOfRangeTripletThrows) {
    EXPECT_THROW(SparseMatrix(2, 2, {{2, 0, 1.0f}}), Error);
    EXPECT_THROW(SparseMatrix(2, 2, {{0, 2, 1.0f}}), Error);
}

TEST(Sparse, AssignFromCsrMatchesTriplets) {
    const SparseMatrix want = tiny();
    SparseMatrix m(1, 1, {{0, 0, 9.0f}});  // storage to be replaced
    std::vector<std::uint64_t> ptr{0, 2, 2, 4};
    std::vector<std::uint32_t> col{0, 2, 0, 1};
    std::vector<float> val{1.0f, 2.0f, 3.0f, 4.0f};
    m.assign(3, 3, ptr, col, val);
    ASSERT_EQ(m.rows(), 3u);
    ASSERT_EQ(m.cols(), 3u);
    EXPECT_TRUE(std::equal(m.row_ptr().begin(), m.row_ptr().end(),
                           want.row_ptr().begin(), want.row_ptr().end()));
    EXPECT_TRUE(std::equal(m.col_idx().begin(), m.col_idx().end(),
                           want.col_idx().begin(), want.col_idx().end()));
    EXPECT_TRUE(std::equal(m.values().begin(), m.values().end(),
                           want.values().begin(), want.values().end()));
    // The caller's vectors hold the previous 1×1 arrays.
    EXPECT_EQ(ptr, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(col, (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(val, (std::vector<float>{9.0f}));

    // An empty 0×0 CSR takes the storage back out.
    std::vector<std::uint64_t> ptr0{0};
    std::vector<std::uint32_t> col0;
    std::vector<float> val0;
    const float* storage = m.values().data();
    m.assign(0, 0, ptr0, col0, val0);
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_EQ(m.row_ptr().size(), 1u);
    EXPECT_EQ(val0.data(), storage);
    EXPECT_EQ(col0, (std::vector<std::uint32_t>{0, 2, 0, 1}));
}

TEST(Sparse, AssignRejectsMalformedCsrAndKeepsContents) {
    SparseMatrix m = tiny();
    std::vector<float> val{1.0f, 2.0f};
    const auto rejects = [&](std::size_t rows, std::size_t cols,
                             std::vector<std::uint64_t> ptr,
                             std::vector<std::uint32_t> col) {
        const std::vector<std::uint32_t> given = col;
        EXPECT_THROW(m.assign(rows, cols, ptr, col, val), Error);
        EXPECT_EQ(col, given);  // nothing swapped
    };
    // Columns must ascend strictly within a row.
    rejects(1, 3, {0, 2}, {2, 0});
    rejects(1, 3, {0, 2}, {1, 1});
    // Columns in range, pointers ascending and matching nnz.
    rejects(1, 2, {0, 2}, {0, 2});
    rejects(2, 3, {0, 3, 2}, {0, 1});
    rejects(1, 3, {0, 1}, {0, 1});
    EXPECT_EQ(val, (std::vector<float>{1.0f, 2.0f}));
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_FLOAT_EQ(m.coeff(2, 1), 4.0f);
}

TEST(Sparse, RowAccess) {
    const SparseMatrix s = tiny();
    EXPECT_EQ(s.row_cols(1).size(), 0u);
    EXPECT_EQ(s.row_cols(2).size(), 2u);
    EXPECT_EQ(s.row_vals(2)[1], 4.0f);
}

TEST(Sparse, ToDenseMatchesCoeff) {
    const SparseMatrix s = tiny();
    const Matrix d = s.to_dense();
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(d(r, c), s.coeff(r, c));
}

TEST(Sparse, TransposedMatchesDenseTranspose) {
    const SparseMatrix s = tiny();
    const Matrix dt = transpose(s.to_dense());
    EXPECT_TRUE(s.transposed().to_dense() == dt);
}

TEST(Sparse, SpmmMatchesDenseMatmul) {
    Rng rng(1);
    const SparseMatrix s = tiny();
    const Matrix x = Matrix::randn(3, 4, rng);
    const Matrix expect = matmul(s.to_dense(), x);
    EXPECT_LT(max_abs_diff(spmm(s, x), expect), 1e-5f);
}

TEST(Sparse, SpmmTransposedMatchesDense) {
    // The backward aggregate Sᵀ·x is spmm() over the stored transpose.
    Rng rng(2);
    const SparseMatrix s = tiny();
    const Matrix x = Matrix::randn(3, 4, rng);
    const Matrix expect = matmul(transpose(s.to_dense()), x);
    EXPECT_LT(max_abs_diff(spmm(s.transposed(), x), expect), 1e-5f);
}

TEST(Sparse, SpmmShapeMismatchThrows) {
    const SparseMatrix s = tiny();
    const Matrix x(2, 4);
    EXPECT_THROW((void)spmm(s, x), Error);
    EXPECT_THROW((void)spmm(s.transposed(), Matrix(2, 4)), Error);
}

TEST(Sparse, RectangularSpmm) {
    // 2×4 matrix against a 4×3 dense block.
    const SparseMatrix s(2, 4, {{0, 1, 2.0f}, {1, 3, -1.0f}});
    Rng rng(3);
    const Matrix x = Matrix::randn(4, 3, rng);
    const Matrix y = spmm(s, x);
    EXPECT_EQ(y.rows(), 2u);
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_FLOAT_EQ(y(0, c), 2.0f * x(1, c));
        EXPECT_FLOAT_EQ(y(1, c), -1.0f * x(3, c));
    }
}

TEST(Sparse, ParallelSpmmMatchesSerial) {
    Rng rng(11);
    std::vector<Triplet> trips;
    for (int i = 0; i < 2000; ++i)
        trips.push_back({static_cast<std::uint32_t>(rng.uniform_u64(200)),
                         static_cast<std::uint32_t>(rng.uniform_u64(150)),
                         static_cast<float>(rng.normal())});
    const SparseMatrix s(200, 150, trips);
    const Matrix x = Matrix::randn(150, 16, rng);
    const Matrix serial = spmm(s, x);
    for (unsigned threads : {0u, 1u, 2u, 4u, 7u}) {
        const ThreadCountGuard guard(threads);
        EXPECT_TRUE(spmm(s, x) == serial) << threads << " threads";
    }
}

TEST(Sparse, ParallelSpmmTinyMatrixFallsBackToSerial) {
    const SparseMatrix s = tiny();
    Rng rng(12);
    const Matrix x = Matrix::randn(3, 4, rng);
    const Matrix serial = spmm(s, x);
    const ThreadCountGuard guard(8);
    EXPECT_TRUE(spmm(s, x) == serial);
    EXPECT_THROW((void)spmm(s, Matrix(2, 4)), Error);
}

TEST(Sparse, LargeRandomRoundTripAgainstDense) {
    Rng rng(7);
    std::vector<Triplet> trips;
    for (int i = 0; i < 300; ++i)
        trips.push_back({static_cast<std::uint32_t>(rng.uniform_u64(40)),
                         static_cast<std::uint32_t>(rng.uniform_u64(30)),
                         static_cast<float>(rng.normal())});
    const SparseMatrix s(40, 30, trips);
    const Matrix x = Matrix::randn(30, 8, rng);
    EXPECT_LT(max_abs_diff(spmm(s, x), matmul(s.to_dense(), x)), 1e-4f);
    const Matrix g = Matrix::randn(40, 8, rng);
    EXPECT_LT(max_abs_diff(spmm(s.transposed(), g),
                           matmul(transpose(s.to_dense()), g)),
              1e-4f);
}

} // namespace
} // namespace scgnn::tensor
