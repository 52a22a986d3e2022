// Tests for the kernel layer (tensor/kernels.hpp) and the tiled tensor
// ops built on it: every kernel and op must be bitwise identical to naive
// reference loops written in the historical accumulation order (the
// golden-pinned contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <tuple>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/obs/alloc.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace scgnn::tensor {
namespace {

// ------------------------------------------------------------ references

/// Historical matmul order: every C(i,j) accumulates over p ascending,
/// zero entries of A skipped.
Matrix ref_matmul(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t p = 0; p < a.cols(); ++p) {
            const float aip = a(i, p);
            if (aip == 0.0f) continue;
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += aip * b(p, j);
        }
    return c;
}

Matrix ref_matmul_at_b(const Matrix& a, const Matrix& b) {
    Matrix c(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.cols(); ++i)
        for (std::size_t p = 0; p < a.rows(); ++p) {
            const float api = a(p, i);
            if (api == 0.0f) continue;
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += api * b(p, j);
        }
    return c;
}

Matrix ref_matmul_a_bt(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.rows(); ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < a.cols(); ++p)
                acc += a(i, p) * b(j, p);
            c(i, j) = acc;
        }
    return c;
}

/// Historical SpMM order: per row, nonzeros in CSR (ascending-column)
/// order, axpy into the output row.
Matrix ref_spmm(const SparseMatrix& s, const Matrix& x) {
    Matrix y(s.rows(), x.cols());
    for (std::size_t r = 0; r < s.rows(); ++r) {
        const auto cols = s.row_cols(r);
        const auto vals = s.row_vals(r);
        for (std::size_t k = 0; k < cols.size(); ++k)
            for (std::size_t c = 0; c < x.cols(); ++c)
                y(r, c) += vals[k] * x(cols[k], c);
    }
    return y;
}

/// Historical backward-aggregate order: the scatter Sᵀ·x, S's rows
/// ascending and each row's nonzeros in CSR order, axpy of x's row into
/// the output row named by the column.
Matrix ref_spmm_t(const SparseMatrix& s, const Matrix& x) {
    Matrix y(s.cols(), x.cols());
    for (std::size_t r = 0; r < s.rows(); ++r) {
        const auto cols = s.row_cols(r);
        const auto vals = s.row_vals(r);
        for (std::size_t k = 0; k < cols.size(); ++k)
            for (std::size_t c = 0; c < x.cols(); ++c)
                y(cols[k], c) += vals[k] * x(r, c);
    }
    return y;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(float)) == 0;
}

/// bitwise_equal(), except that any NaN matches any NaN: which NaN an add
/// of two NaNs returns depends on its operand order, which the compiler
/// may swap.
bool same_values(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float x = a.data()[i], y = b.data()[i];
        if (std::isnan(x) && std::isnan(y)) continue;
        if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
    }
    return true;
}

/// Random entries with about 15% drawn from signed zeros, ±inf and NaN.
Matrix special_randn(std::size_t rows, std::size_t cols, Rng& rng) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.0f, -0.0f, kInf, -kInf,
                              std::numeric_limits<float>::quiet_NaN()};
    Matrix m = Matrix::randn(rows, cols, rng);
    for (float& v : m.flat())
        if (rng.bernoulli(0.15)) v = specials[rng.index(std::size(specials))];
    return m;
}

/// Random CSR whose every `empty_every`-th row (0 = none) has no entries.
SparseMatrix random_sparse(std::size_t rows, std::size_t cols, double density,
                           Rng& rng, std::size_t empty_every = 0) {
    std::vector<Triplet> trips;
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.uniform() < density &&
                (empty_every == 0 || r % empty_every != 0))
                trips.push_back({static_cast<std::uint32_t>(r),
                                 static_cast<std::uint32_t>(c),
                                 static_cast<float>(rng.uniform() * 2 - 1)});
    return SparseMatrix(rows, cols, std::move(trips));
}

// ---------------------------------------- tensor ops: bitwise golden sweep

TEST(Kernels, MatmulBitwiseEqualsReferenceSweep) {
    Rng rng(11);
    // Shapes straddling the 16- and 8-float row tiles and the Aᵀ·B
    // tiles, plus degenerate 1-sized edges.
    const std::size_t dims[] = {1, 2, 3, 7, 17, 64, 65, 129, 200};
    for (std::size_t m : dims)
        for (std::size_t k : dims)
            for (std::size_t n : dims) {
                if (m * k * n > 200 * 65 * 17) continue;  // keep it seconds
                const Matrix a = Matrix::randn(m, k, rng);
                const Matrix b = Matrix::randn(k, n, rng);
                ASSERT_TRUE(bitwise_equal(matmul(a, b), ref_matmul(a, b)))
                    << "matmul " << m << "x" << k << "x" << n;
            }
}

TEST(Kernels, MatmulVariantsBitwiseEqualReference) {
    Rng rng(12);
    const std::size_t shapes[][2] = {{1, 1},   {3, 5},   {17, 64},
                                     {65, 33}, {129, 8}, {150, 70}};
    for (const auto& sa : shapes)
        for (const auto& sb : shapes) {
            {   // Aᵀ·B needs matching row counts.
                const Matrix a = Matrix::randn(sa[0], sa[1], rng);
                const Matrix b = Matrix::randn(sa[0], sb[1], rng);
                ASSERT_TRUE(
                    bitwise_equal(matmul_at_b(a, b), ref_matmul_at_b(a, b)));
            }
            {   // A·Bᵀ needs matching widths.
                const Matrix a = Matrix::randn(sa[0], sa[1], rng);
                const Matrix b = Matrix::randn(sb[0], sa[1], rng);
                ASSERT_TRUE(
                    bitwise_equal(matmul_a_bt(a, b), ref_matmul_a_bt(a, b)));
            }
        }
}

TEST(Kernels, GemmVariantsBitwiseAtTileEdges) {
    // Widths around the 16- and 8-float tiles of the row kernels and the
    // 4×8 / 2×16 tiles of Aᵀ·B, with signed zeros, ±inf and NaN in both
    // operands: matmul and matmul_at_b skip zero entries of A, so 0·inf
    // never enters a sum; matmul_a_bt is a plain dot and yields NaN.
    Rng rng(19);
    const std::size_t ms[] = {1, 3, 4, 5, 8, 9, 33};
    const std::size_t ns[] = {1, 7, 8, 9, 16, 17, 64, 65};
    for (std::size_t m : ms)
        for (std::size_t n : ns)
            for (std::size_t k : {1ul, 6ul, 33ul}) {
                const Matrix a = special_randn(m, k, rng);
                const Matrix b = special_randn(k, n, rng);
                ASSERT_TRUE(same_values(matmul(a, b), ref_matmul(a, b)))
                    << "matmul " << m << "x" << k << "x" << n;
                const Matrix at = special_randn(k, m, rng);
                ASSERT_TRUE(
                    same_values(matmul_at_b(at, b), ref_matmul_at_b(at, b)))
                    << "matmul_at_b " << m << "x" << k << "x" << n;
                const Matrix bt = special_randn(n, k, rng);
                ASSERT_TRUE(
                    same_values(matmul_a_bt(a, bt), ref_matmul_a_bt(a, bt)))
                    << "matmul_a_bt " << m << "x" << k << "x" << n;
            }
}

TEST(Kernels, SpmmBitwiseEqualsReference) {
    Rng rng(13);
    for (const std::size_t f :
         {1ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 31ul, 32ul, 33ul, 64ul, 65ul})
        for (const double density : {0.02, 0.2, 0.9}) {
            // Every fourth row is empty.
            const SparseMatrix s = random_sparse(37, 53, density, rng, 4);
            const Matrix x = Matrix::randn(53, f, rng);
            ASSERT_TRUE(bitwise_equal(spmm(s, x), ref_spmm(s, x)))
                << "f=" << f << " density=" << density;
        }
}

TEST(Kernels, SpmmRowsIntoWritesOnlyTheNamedRows) {
    Rng rng(20);
    const SparseMatrix s = random_sparse(6, 11, 0.4, rng, 3);
    const Matrix x = Matrix::randn(11, 19, rng);
    const Matrix full = spmm(s, x);
    const std::vector<std::uint32_t> dst = {7, 0, 3, 9, 2, 5};
    Matrix y(10, 19);
    y.fill(-2.5f);
    spmm_rows_into(s, x, dst, y);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        const auto it = std::find(dst.begin(), dst.end(), r);
        const auto got = y.row(r);
        for (std::size_t c = 0; c < y.cols(); ++c) {
            if (it == dst.end()) {
                ASSERT_EQ(got[c], -2.5f) << "row " << r << " was written";
            } else {
                const float want =
                    full(static_cast<std::size_t>(it - dst.begin()), c);
                ASSERT_EQ(std::memcmp(&got[c], &want, sizeof(float)), 0);
            }
        }
    }
}

TEST(Kernels, SqDistMatchesHistoricalLoop) {
    Rng rng(15);
    for (const std::size_t n : {1ul, 7ul, 8ul, 31ul, 32ul, 100ul}) {
        const Matrix x = Matrix::randn(1, n, rng);
        const Matrix y = Matrix::randn(1, n, rng);
        double sq_ref = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double d =
                static_cast<double>(x.data()[j]) - y.data()[j];
            sq_ref += d * d;
        }
        ASSERT_EQ(kern::sq_dist(x.data(), y.data(), n), sq_ref);
    }
}

// -------------------------------------------- counting transpose (O(nnz))

TEST(SparseTranspose, MatchesDenseTransposeAndOrdering) {
    Rng rng(16);
    for (const double density : {0.0, 0.05, 0.4}) {
        const SparseMatrix s = random_sparse(29, 31, density, rng);
        const SparseMatrix t = s.transposed();
        EXPECT_EQ(t.rows(), s.cols());
        EXPECT_EQ(t.cols(), s.rows());
        EXPECT_EQ(t.nnz(), s.nnz());
        // Columns must ascend within every row (the CSR invariant the
        // Triplet-assembly path guaranteed by sorting).
        for (std::size_t r = 0; r < t.rows(); ++r) {
            const auto cols = t.row_cols(r);
            for (std::size_t k = 1; k < cols.size(); ++k)
                ASSERT_LT(cols[k - 1], cols[k]);
        }
        ASSERT_TRUE(bitwise_equal(t.to_dense(), transpose(s.to_dense())));
        // An involution: transposing twice restores the exact CSR.
        ASSERT_TRUE(bitwise_equal(t.transposed().to_dense(), s.to_dense()));
    }
}

TEST(SparseTranspose, GatherOverTransposeEqualsScatter) {
    // Every backward aggregate runs spmm() over a stored transpose in place
    // of a scatter over S. Pin that the two are bitwise equal on
    // rectangular matrices with empty rows and empty columns, at widths
    // around the row-kernel tiles.
    Rng rng(17);
    for (const std::size_t f : {1ul, 8ul, 13ul, 16ul, 33ul, 64ul})
        for (const auto& shape : {std::pair{23ul, 41ul}, std::pair{41ul, 23ul}}) {
            const auto [rows, cols] = shape;
            std::vector<Triplet> trips;
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t c = 0; c < cols; ++c)
                    if (r % 5 != 1 && c % 7 != 2 && rng.uniform() < 0.3)
                        trips.push_back(
                            {static_cast<std::uint32_t>(r),
                             static_cast<std::uint32_t>(c),
                             static_cast<float>(rng.normal())});
            const SparseMatrix s(rows, cols, std::move(trips));
            const Matrix x = Matrix::randn(rows, f, rng);
            ASSERT_TRUE(bitwise_equal(spmm(s.transposed(), x), ref_spmm_t(s, x)))
                << rows << "x" << cols << " f=" << f;
        }
}

TEST(SparseTranspose, IntoWarmDestinationAllocatesNothing) {
    // The sampled backward transposes every batch block into one buffer
    // per layer: once that buffer has held a transpose at least as large,
    // refilling it must not allocate, whatever it held before.
    Rng rng(19);
    const SparseMatrix big = random_sparse(37, 29, 0.4, rng);
    SparseMatrix t;
    big.transpose_into(t);
    ASSERT_TRUE(bitwise_equal(t.to_dense(), transpose(big.to_dense())));
    for (const auto& [rows, cols, density] :
         {std::tuple{37ul, 29ul, 0.4}, std::tuple{20ul, 11ul, 0.3},
          std::tuple{5ul, 29ul, 0.0}, std::tuple{29ul, 23ul, 0.2}}) {
        const SparseMatrix s = random_sparse(rows, cols, density, rng, 3);
        ASSERT_LE(s.nnz(), big.nnz());
        obs::reset_alloc_stats();
        obs::set_alloc_tracking(true);
        s.transpose_into(t);
        obs::set_alloc_tracking(false);
        EXPECT_EQ(obs::alloc_stats().count, 0u) << rows << "x" << cols;
        const SparseMatrix fresh = s.transposed();
        ASSERT_EQ(t.rows(), fresh.rows());
        ASSERT_EQ(t.cols(), fresh.cols());
        ASSERT_TRUE(std::equal(t.row_ptr().begin(), t.row_ptr().end(),
                               fresh.row_ptr().begin()));
        ASSERT_TRUE(std::equal(t.col_idx().begin(), t.col_idx().end(),
                               fresh.col_idx().begin(), fresh.col_idx().end()));
        ASSERT_TRUE(bitwise_equal(t.to_dense(), transpose(s.to_dense())));
    }
    EXPECT_THROW(t.transpose_into(t), Error);
}

// ------------------------------- AXPY: bitwise vs y[j] += a * x[j]

TEST(Kernels, AxpyBitwiseEqualsPlainLoopSweep) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kDen = std::numeric_limits<float>::denorm_min();
    constexpr float kSub = std::numeric_limits<float>::min() / 4;
    // Signed zeros, subnormals and infinities; a*x and y+a*x then also hit
    // 0·inf and inf−inf (NaN), overflow and subnormal results.
    const float specials[] = {0.0f, -0.0f, kDen, -kDen, kSub,  -kSub,
                              kInf, -kInf, 1e30f, -1e30f, 1.0f, -3.5f};
    const float alphas[] = {0.37f, -1.0f, 0.0f, -0.0f, kDen, kSub, kInf, 1e30f};
    auto fill = [&](Rng& rng, float* v, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j)
            v[j] = rng.bernoulli(0.3)
                       ? specials[rng.index(std::size(specials))]
                       : static_cast<float>(rng.normal());
    };

    // x and y start 0–7 floats past a 32-byte aligned base, so a
    // vectorised body's unaligned loads and its tail are both exercised.
    constexpr std::size_t kMaxN = 1000;
    alignas(32) float xbuf[kMaxN + 8];
    alignas(32) float ybuf[kMaxN + 8];
    alignas(32) float rbuf[kMaxN + 8];
    Rng rng(18);
    for (const std::size_t n :
         {0ul, 1ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 31ul, 32ul, 33ul, kMaxN})
        for (std::size_t xoff = 0; xoff < 8; ++xoff)
            for (std::size_t yoff = 0; yoff < 8; ++yoff)
                for (const float a : alphas) {
                    float* x = xbuf + xoff;
                    float* y = ybuf + yoff;
                    float* ref = rbuf + yoff;
                    fill(rng, x, n);
                    fill(rng, y, n);
                    std::memcpy(ref, y, n * sizeof(float));
                    kern::axpy(a, x, y, n);
                    for (std::size_t j = 0; j < n; ++j) ref[j] += a * x[j];
                    ASSERT_EQ(std::memcmp(y, ref, n * sizeof(float)), 0)
                        << "n=" << n << " xoff=" << xoff << " yoff=" << yoff
                        << " a=" << a;
                }
}

} // namespace
} // namespace scgnn::tensor
