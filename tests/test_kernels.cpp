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
#include <string>
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

// ------------------------------------------------- one vector tier each

using kern::Isa;

/// Widths around every tier's row tiles (8, 16, 32 and 64 floats), past
/// two full 64-float tiles and around the 4×8 / 2×16 tiles of Aᵀ·B.
const std::vector<std::size_t> kTileWidths = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,  15, 16, 17, 31, 32,
    33, 47, 48, 49, 63, 64, 65, 95, 96, 97, 127, 128, 129};

const kern::detail::Tier& tier_of(Isa isa) {
    return kern::detail::kTiers[static_cast<std::size_t>(isa)];
}

/// Calls body(lo, hi) over [0, n) in chunks of 3, so the tier bodies see
/// ranges that start past 0.
template <typename Body>
void in_chunks(std::size_t n, const Body& body) {
    for (std::size_t lo = 0; lo < n; lo += 3) body(lo, std::min(n, lo + 3));
}

/// s·x on one tier; with `dst`, row r lands in row dst[r] of `y`.
void tier_spmm_into(Isa isa, const SparseMatrix& s, const Matrix& x,
                    Matrix& y, const std::uint32_t* dst = nullptr) {
    const kern::SpmmArgs op{s.row_ptr().data(), s.col_idx().data(),
                            s.values().data(), x.data(), y.data(), dst,
                            x.cols()};
    in_chunks(s.rows(), [&](std::size_t lo, std::size_t hi) {
        tier_of(isa).spmm(op, lo, hi);
    });
}

Matrix tier_spmm(Isa isa, const SparseMatrix& s, const Matrix& x) {
    Matrix y(s.rows(), x.cols());
    tier_spmm_into(isa, s, x, y);
    return y;
}

/// a·b on one tier (matmul_into's terms, zero entries of a skipped).
Matrix tier_matmul(Isa isa, const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    const kern::GemmArgs op{a.data(), b.data(), c.data(), a.cols(), b.cols(),
                            true};
    in_chunks(a.rows(), [&](std::size_t lo, std::size_t hi) {
        tier_of(isa).gemm(op, lo, hi);
    });
    return c;
}

/// a·bᵀ on one tier (matmul_a_bt_into's terms: packed bᵀ, no skip).
Matrix tier_matmul_a_bt(Isa isa, const Matrix& a, const Matrix& b) {
    const Matrix bt = transpose(b);
    Matrix c(a.rows(), b.rows());
    const kern::GemmArgs op{a.data(), bt.data(), c.data(), a.cols(),
                            b.rows(), false};
    in_chunks(a.rows(), [&](std::size_t lo, std::size_t hi) {
        tier_of(isa).gemm(op, lo, hi);
    });
    return c;
}

/// aᵀ·b on one tier.
Matrix tier_matmul_at_b(Isa isa, const Matrix& a, const Matrix& b) {
    Matrix c(a.cols(), b.cols());
    const kern::AtBArgs op{a.data(), b.data(), c.data(),
                           a.rows(), a.cols(), b.cols()};
    in_chunks(op.tiles(), [&](std::size_t lo, std::size_t hi) {
        tier_of(isa).at_b(op, lo, hi);
    });
    return c;
}

/// One test per tier; a tier this CPU lacks is skipped by name.
class KernelTiers : public testing::TestWithParam<Isa> {
protected:
    void SetUp() override {
        if (!kern::detail::supports(GetParam()))
            GTEST_SKIP() << "this CPU lacks the "
                         << kern::isa_name(GetParam()) << " tier";
    }
};

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelTiers,
    testing::Values(Isa::kBaseline, Isa::kAvx2, Isa::kAvx512),
    [](const testing::TestParamInfo<Isa>& tier) {
        return std::string(kern::isa_name(tier.param));
    });

TEST(Kernels, DispatchesTheWidestSupportedTier) {
    Isa widest = Isa::kBaseline;
    for (const Isa isa : {Isa::kAvx2, Isa::kAvx512})
        if (kern::detail::supports(isa)) widest = isa;
    EXPECT_EQ(kern::active_isa(), widest) << kern::isa_name(widest);
    EXPECT_EQ(kern::detail::active().isa, widest);
    EXPECT_TRUE(kern::detail::supports(Isa::kBaseline));
#if defined(__x86_64__) || defined(__i386__)
    EXPECT_EQ(kern::detail::supports(Isa::kAvx2),
              __builtin_cpu_supports("avx2") != 0);
    EXPECT_EQ(kern::detail::supports(Isa::kAvx512),
              __builtin_cpu_supports("avx512f") != 0);
#endif
    for (const Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512})
        EXPECT_EQ(tier_of(isa).isa, isa);
}

TEST_P(KernelTiers, NoFusedMultiplyAdd) {
    // Two terms, -1·1 and (1+2⁻¹²)·(1+2⁻¹²), in every column. Rounded
    // separately, the second product is 1+2⁻¹¹ and the sum 2⁻¹¹; a fused
    // multiply-add keeps the product's 2⁻²⁴ and yields 2⁻¹¹+2⁻²⁴.
    const Isa isa = GetParam();
    const float e = 1.0f + std::ldexp(1.0f, -12);
    const float want = std::ldexp(1.0f, -11);
    for (const std::size_t w : kTileWidths) {
        Matrix x(2, w);
        for (std::size_t j = 0; j < w; ++j) {
            x(0, j) = 1.0f;
            x(1, j) = e;
        }
        const SparseMatrix s(1, 2, {{0, 0, -1.0f}, {0, 1, e}});
        Matrix a(1, 2);
        a(0, 0) = -1.0f;
        a(0, 1) = e;
        Matrix at(2, w);  // w columns of aᵀ, so aᵀ·x is w×w
        for (std::size_t j = 0; j < w; ++j) {
            at(0, j) = -1.0f;
            at(1, j) = e;
        }
        for (const Matrix& y :
             {tier_spmm(isa, s, x), tier_matmul(isa, a, x),
              tier_matmul_a_bt(isa, a, transpose(x)),
              tier_matmul_at_b(isa, at, x)})
            for (const float v : y.flat())
                ASSERT_EQ(v, want) << "w=" << w << " got " << v;
    }
}

// ---------------------------------------- tensor ops: bitwise golden sweep

TEST(Kernels, MatmulBitwiseEqualsReferenceSweep) {
    Rng rng(11);
    // The public op on the active tier: shapes straddling the row tiles
    // and the Aᵀ·B tiles, plus degenerate 1-sized edges.
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

TEST_P(KernelTiers, GemmVariantsBitwiseAtTileEdges) {
    // Widths around the row tiles of every tier and the 4×8 / 2×16 tiles
    // of Aᵀ·B, with signed zeros, ±inf and NaN in both operands: matmul
    // and matmul_at_b skip zero entries of A, so 0·inf never enters a sum;
    // matmul_a_bt is a plain dot and yields NaN.
    const Isa isa = GetParam();
    Rng rng(19);
    const std::size_t ms[] = {1, 3, 4, 5, 8, 9, 33};
    for (std::size_t m : ms)
        for (std::size_t n : kTileWidths)
            for (std::size_t k : {1ul, 6ul, 33ul}) {
                const Matrix a = special_randn(m, k, rng);
                const Matrix b = special_randn(k, n, rng);
                ASSERT_TRUE(same_values(tier_matmul(isa, a, b),
                                        ref_matmul(a, b)))
                    << "matmul " << m << "x" << k << "x" << n;
                const Matrix at = special_randn(k, m, rng);
                ASSERT_TRUE(same_values(tier_matmul_at_b(isa, at, b),
                                        ref_matmul_at_b(at, b)))
                    << "matmul_at_b " << m << "x" << k << "x" << n;
                const Matrix bt = special_randn(n, k, rng);
                ASSERT_TRUE(same_values(tier_matmul_a_bt(isa, a, bt),
                                        ref_matmul_a_bt(a, bt)))
                    << "matmul_a_bt " << m << "x" << k << "x" << n;
            }
}

TEST_P(KernelTiers, SpmmBitwiseEqualsReference) {
    const Isa isa = GetParam();
    Rng rng(13);
    for (const std::size_t f : kTileWidths)
        for (const double density : {0.02, 0.2, 0.9}) {
            // Every fourth row is empty.
            const SparseMatrix s = random_sparse(37, 53, density, rng, 4);
            const Matrix x = Matrix::randn(53, f, rng);
            ASSERT_TRUE(bitwise_equal(tier_spmm(isa, s, x), ref_spmm(s, x)))
                << "f=" << f << " density=" << density;
        }
}

TEST_P(KernelTiers, SpmmRowsIntoWritesOnlyTheNamedRows) {
    const Isa isa = GetParam();
    Rng rng(20);
    const std::vector<std::uint32_t> dst = {7, 0, 3, 9, 2, 5};
    for (const std::size_t f : kTileWidths) {
        const SparseMatrix s = random_sparse(6, 11, 0.4, rng, 3);
        const Matrix x = Matrix::randn(11, f, rng);
        const Matrix full = ref_spmm(s, x);
        Matrix y(10, f);
        y.fill(-2.5f);
        tier_spmm_into(isa, s, x, y, dst.data());
        for (std::size_t r = 0; r < y.rows(); ++r) {
            const auto it = std::find(dst.begin(), dst.end(), r);
            const auto got = y.row(r);
            for (std::size_t c = 0; c < y.cols(); ++c) {
                if (it == dst.end()) {
                    ASSERT_EQ(got[c], -2.5f)
                        << "f=" << f << ": row " << r << " was written";
                } else {
                    const float want =
                        full(static_cast<std::size_t>(it - dst.begin()), c);
                    ASSERT_EQ(std::memcmp(&got[c], &want, sizeof(float)), 0)
                        << "f=" << f << " row " << r << " col " << c;
                }
            }
        }
    }
}

TEST(Kernels, SpmmRowsIntoMatchesSpmm) {
    // The public op on the active tier, with its destination checks.
    Rng rng(21);
    const SparseMatrix s = random_sparse(6, 11, 0.4, rng, 3);
    const Matrix x = Matrix::randn(11, 19, rng);
    const std::vector<std::uint32_t> dst = {5, 4, 3, 2, 1, 0};
    Matrix y(6, 19);
    spmm_rows_into(s, x, dst, y);
    const Matrix full = spmm(s, x);
    for (std::size_t r = 0; r < 6; ++r)
        ASSERT_EQ(std::memcmp(y.row(5 - r).data(), full.row(r).data(),
                              19 * sizeof(float)),
                  0);
    const std::vector<std::uint32_t> out_of_range = {0, 1, 2, 3, 4, 6};
    EXPECT_THROW(spmm_rows_into(s, x, out_of_range, y), Error);
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

TEST_P(KernelTiers, GatherOverTransposeEqualsScatter) {
    // Every backward aggregate runs spmm() over a stored transpose in place
    // of a scatter over S. Pin that the two are bitwise equal on
    // rectangular matrices with empty rows and empty columns, at widths
    // around the row-kernel tiles.
    const Isa isa = GetParam();
    Rng rng(17);
    for (const std::size_t f : kTileWidths)
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
            ASSERT_TRUE(bitwise_equal(tier_spmm(isa, s.transposed(), x),
                                      ref_spmm_t(s, x)))
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
