// Unit tests for dense kernels: GEMM variants, activations, softmax/CE
// (including a finite-difference check of the loss gradient) and metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "scgnn/common/parallel.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::tensor {
namespace {

Matrix m23() { return Matrix(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6}); }
Matrix m32() { return Matrix(3, 2, std::vector<float>{7, 8, 9, 10, 11, 12}); }

TEST(Ops, Matmul) {
    const Matrix c = matmul(m23(), m32());
    EXPECT_EQ(c.rows(), 2u);
    EXPECT_EQ(c.cols(), 2u);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeMismatch) {
    EXPECT_THROW((void)matmul(m23(), m23()), Error);
}

TEST(Ops, MatmulAtBEqualsExplicitTranspose) {
    Rng rng(1);
    const Matrix a = Matrix::randn(5, 3, rng);
    const Matrix b = Matrix::randn(5, 4, rng);
    const Matrix expect = matmul(transpose(a), b);
    const Matrix got = matmul_at_b(a, b);
    EXPECT_LT(max_abs_diff(expect, got), 1e-5f);
}

TEST(Ops, MatmulABtEqualsExplicitTranspose) {
    Rng rng(2);
    const Matrix a = Matrix::randn(5, 3, rng);
    const Matrix b = Matrix::randn(4, 3, rng);
    const Matrix expect = matmul(a, transpose(b));
    const Matrix got = matmul_a_bt(a, b);
    EXPECT_LT(max_abs_diff(expect, got), 1e-5f);
}

TEST(Ops, ReluClampsNegatives) {
    Matrix x(1, 4, std::vector<float>{-1, 0, 2, -3});
    const Matrix y = relu(x);
    EXPECT_EQ(y(0, 0), 0.0f);
    EXPECT_EQ(y(0, 1), 0.0f);
    EXPECT_EQ(y(0, 2), 2.0f);
    EXPECT_EQ(y(0, 3), 0.0f);
}

TEST(Ops, ReluBackwardMasksByInput) {
    Matrix x(1, 3, std::vector<float>{-1, 0, 2});
    Matrix g(1, 3, std::vector<float>{5, 5, 5});
    const Matrix dx = relu_backward(g, x);
    EXPECT_EQ(dx(0, 0), 0.0f);
    EXPECT_EQ(dx(0, 1), 0.0f);  // boundary: relu'(0) = 0 by convention
    EXPECT_EQ(dx(0, 2), 5.0f);
}

TEST(Ops, CrossEntropyOfPerfectPredictionIsSmall) {
    Matrix logits(2, 2, std::vector<float>{100, 0, 0, 100});
    const std::vector<std::int32_t> labels{0, 1};
    const std::vector<std::uint32_t> mask{0, 1};
    std::vector<double> terms;
    EXPECT_NEAR(softmax_cross_entropy(logits, labels, mask, terms), 0.0,
                1e-6);
}

TEST(Ops, CrossEntropyUniformIsLogC) {
    Matrix logits(1, 4);  // all zeros → uniform
    const std::vector<std::int32_t> labels{2};
    const std::vector<std::uint32_t> mask{0};
    std::vector<double> terms;
    EXPECT_NEAR(softmax_cross_entropy(logits, labels, mask, terms),
                std::log(4.0), 1e-6);
}

TEST(Ops, CrossEntropyGradMatchesFiniteDifference) {
    Rng rng(4);
    Matrix logits = Matrix::randn(3, 4, rng);
    const std::vector<std::int32_t> labels{1, 3, 0};
    const std::vector<std::uint32_t> mask{0, 2};
    const Matrix grad = softmax_cross_entropy_grad(logits, labels, mask);
    std::vector<double> terms;
    const float eps = 1e-3f;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c) {
            Matrix lp = logits, lm = logits;
            lp(r, c) += eps;
            lm(r, c) -= eps;
            const double fd =
                (softmax_cross_entropy(lp, labels, mask, terms) -
                 softmax_cross_entropy(lm, labels, mask, terms)) /
                (2.0 * eps);
            EXPECT_NEAR(grad(r, c), fd, 2e-3) << "at (" << r << "," << c << ")";
        }
}

TEST(Ops, GradRowsOutsideMaskAreZero) {
    Rng rng(5);
    Matrix logits = Matrix::randn(3, 4, rng);
    const std::vector<std::int32_t> labels{1, 3, 0};
    const std::vector<std::uint32_t> mask{1};
    const Matrix grad = softmax_cross_entropy_grad(logits, labels, mask);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(grad(0, c), 0.0f);
        EXPECT_EQ(grad(2, c), 0.0f);
    }
}

TEST(Ops, CrossEntropyValidatesInput) {
    Matrix logits(2, 2);
    const std::vector<std::int32_t> labels{0, 5};  // 5 out of range
    const std::vector<std::uint32_t> mask{1};
    std::vector<double> terms;
    EXPECT_THROW((void)softmax_cross_entropy(logits, labels, mask, terms),
                 Error);
    const std::vector<std::int32_t> ok{0, 1};
    const std::vector<std::uint32_t> bad_mask{7};
    EXPECT_THROW((void)softmax_cross_entropy(logits, ok, bad_mask, terms),
                 Error);
    EXPECT_THROW((void)softmax_cross_entropy(logits, ok, {}, terms), Error);
}

TEST(Ops, CrossEntropyGradValidatesLabels) {
    Matrix logits(2, 2);
    const std::vector<std::uint32_t> mask{1};
    for (const std::int32_t bad : {-1, 2}) {
        const std::vector<std::int32_t> labels{0, bad};
        EXPECT_THROW((void)softmax_cross_entropy_grad(logits, labels, mask),
                     Error)
            << "label " << bad;
    }
    const std::vector<std::int32_t> ok{0, 1};
    const std::vector<std::uint32_t> bad_mask{7};
    EXPECT_THROW((void)softmax_cross_entropy_grad(logits, ok, bad_mask), Error);
}

/// Same shape, and the bit patterns of `got` equal those of `want`.
bool same_bits(const Matrix& got, const Matrix& want) {
    return got.rows() == want.rows() && got.cols() == want.cols() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(float)) == 0;
}

/// A matrix of normal values with every seventh element replaced, in
/// turn, by NaN, +0, -0, +inf or -inf.
Matrix with_specials(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m = Matrix::randn(rows, cols, rng);
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                              -0.0f, std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    auto f = m.flat();
    for (std::size_t i = 0; i < f.size(); i += 7) f[i] = specials[i / 7 % 5];
    return m;
}

TEST(Ops, ReluIsBitwiseAtEveryThreadCount) {
    // 5000 rows of 16 floats span three chunks of the row grain.
    Rng rng(31);
    const Matrix x = with_specials(5000, 16, rng);
    const Matrix grad = with_specials(5000, 16, rng);
    // The historical serial loops: a max and a conditional store.
    Matrix y_ref = x;
    for (auto& v : y_ref.flat()) v = std::max(v, 0.0f);
    Matrix g_ref = grad;
    for (std::size_t i = 0; i < g_ref.size(); ++i)
        if (x.flat()[i] <= 0.0f) g_ref.flat()[i] = 0.0f;
    for (const unsigned threads : {1u, 3u, 4u}) {
        ThreadCountGuard guard(threads);
        Matrix y(2, 2, 9.0f);  // stale contents must not survive
        Matrix g(7000, 3, 9.0f);
        relu_into(x, y);
        relu_backward_into(grad, x, g);
        EXPECT_TRUE(same_bits(y, y_ref)) << threads << " threads";
        EXPECT_TRUE(same_bits(g, g_ref)) << threads << " threads";
    }
}

TEST(Ops, CrossEntropyIsBitwiseAtEveryThreadCount) {
    // 12000 rows of 7 classes: the mask below spans several chunks of the
    // row grain. Logits hold ±0 and -inf (a class with zero probability);
    // no label sits on a -inf, so the loss stays finite.
    const std::size_t rows = 12000, cols = 7;
    Rng rng(32);
    Matrix logits = Matrix::randn(rows, cols, rng);
    std::vector<std::int32_t> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        labels[r] = static_cast<std::int32_t>(rng.index(cols));
        const std::size_t other = (labels[r] + 1 + r % 5) % cols;
        logits(r, other) = r % 3 == 0   ? 0.0f
                           : r % 3 == 1 ? -0.0f
                                        : -std::numeric_limits<float>::infinity();
    }
    // Every row but each tenth, visited out of order.
    std::vector<std::uint32_t> mask;
    for (std::size_t r = rows; r-- > 0;)
        if (r % 10 != 0) mask.push_back(static_cast<std::uint32_t>(r));

    // The historical serial loss and gradient.
    double total = 0.0;
    Matrix grad_ref(rows, cols);
    const float inv_n = 1.0f / static_cast<float>(mask.size());
    for (const std::uint32_t r : mask) {
        const auto row = logits.row(r);
        float mx = row[0];
        for (float v : row) mx = std::max(mx, v);
        double lse = 0.0;
        for (float v : row) lse += std::exp(static_cast<double>(v - mx));
        lse = std::log(lse) + mx;
        total += lse - static_cast<double>(
                           row[static_cast<std::size_t>(labels[r])]);
        auto grow = grad_ref.row(r);
        float sum = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) {
            grow[c] = std::exp(row[c] - mx);
            sum += grow[c];
        }
        const float inv = 1.0f / sum;
        for (auto& g : grow) g *= inv * inv_n;
        grow[static_cast<std::size_t>(labels[r])] -= inv_n;
    }
    const double loss_ref = total / static_cast<double>(mask.size());
    ASSERT_TRUE(std::isfinite(loss_ref));

    for (const unsigned threads : {1u, 3u, 4u}) {
        ThreadCountGuard guard(threads);
        std::vector<double> terms(3, 1.0);
        const double loss = softmax_cross_entropy(logits, labels, mask, terms);
        EXPECT_EQ(std::memcmp(&loss, &loss_ref, sizeof(double)), 0)
            << threads << " threads: " << loss << " vs " << loss_ref;
        EXPECT_EQ(terms.size(), mask.size());
        Matrix grad(1, 1, 9.0f);
        softmax_cross_entropy_grad_into(logits, labels, mask, grad);
        EXPECT_TRUE(same_bits(grad, grad_ref)) << threads << " threads";
    }
}

TEST(Ops, RowArgmax) {
    Matrix x(2, 3, std::vector<float>{1, 9, 2, 7, 3, 5});
    const auto am = row_argmax(x);
    EXPECT_EQ(am[0], 1);
    EXPECT_EQ(am[1], 0);
}

TEST(Ops, MaskedAccuracy) {
    Matrix logits(3, 2, std::vector<float>{1, 0, 0, 1, 1, 0});
    const std::vector<std::int32_t> labels{0, 1, 1};
    const std::vector<std::uint32_t> all{0, 1, 2};
    EXPECT_NEAR(masked_accuracy(logits, labels, all), 2.0 / 3.0, 1e-9);
    const std::vector<std::uint32_t> wrong_only{2};
    EXPECT_EQ(masked_accuracy(logits, labels, wrong_only), 0.0);
}

TEST(Ops, AxpyAccumulates) {
    Matrix x(1, 2, std::vector<float>{1, 2});
    Matrix y(1, 2, std::vector<float>{10, 20});
    axpy(2.0f, x, y);
    EXPECT_EQ(y(0, 0), 12.0f);
    EXPECT_EQ(y(0, 1), 24.0f);
}

TEST(Ops, TransposeRoundTrip) {
    Rng rng(6);
    const Matrix a = Matrix::randn(3, 5, rng);
    EXPECT_TRUE(transpose(transpose(a)) == a);
}

} // namespace
} // namespace scgnn::tensor
