// Unit tests for dense kernels: GEMM variants, activations, softmax/CE
// (including a finite-difference check of the loss gradient) and metrics.
#include <gtest/gtest.h>

#include <cmath>

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
    EXPECT_NEAR(softmax_cross_entropy(logits, labels, mask), 0.0, 1e-6);
}

TEST(Ops, CrossEntropyUniformIsLogC) {
    Matrix logits(1, 4);  // all zeros → uniform
    const std::vector<std::int32_t> labels{2};
    const std::vector<std::uint32_t> mask{0};
    EXPECT_NEAR(softmax_cross_entropy(logits, labels, mask), std::log(4.0),
                1e-6);
}

TEST(Ops, CrossEntropyGradMatchesFiniteDifference) {
    Rng rng(4);
    Matrix logits = Matrix::randn(3, 4, rng);
    const std::vector<std::int32_t> labels{1, 3, 0};
    const std::vector<std::uint32_t> mask{0, 2};
    const Matrix grad = softmax_cross_entropy_grad(logits, labels, mask);
    const float eps = 1e-3f;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c) {
            Matrix lp = logits, lm = logits;
            lp(r, c) += eps;
            lm(r, c) -= eps;
            const double fd = (softmax_cross_entropy(lp, labels, mask) -
                               softmax_cross_entropy(lm, labels, mask)) /
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
    EXPECT_THROW((void)softmax_cross_entropy(logits, labels, mask), Error);
    const std::vector<std::int32_t> ok{0, 1};
    const std::vector<std::uint32_t> bad_mask{7};
    EXPECT_THROW((void)softmax_cross_entropy(logits, ok, bad_mask), Error);
    EXPECT_THROW((void)softmax_cross_entropy(logits, ok, {}), Error);
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
