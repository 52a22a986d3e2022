// Unit tests for per-tensor affine quantisation (the Quant baseline's
// mechanism), including parameterised error-bound properties per bit-width.
#include <gtest/gtest.h>

#include "scgnn/tensor/quantize.hpp"

namespace scgnn::tensor {
namespace {

class QuantizeBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBits, RoundTripErrorBoundedByHalfStep) {
    const int bits = GetParam();
    Rng rng(bits);
    const Matrix m = Matrix::randn(20, 16, rng, 0.0f, 3.0f);
    const QuantizedTensor q = quantize_per_tensor(m, bits);
    const Matrix back = dequantize(q);
    EXPECT_LE(max_abs_diff(m, back), q.scale * 0.5f + 1e-6f);
}

TEST_P(QuantizeBits, WireBytesShrinkWithBitWidth) {
    const int bits = GetParam();
    Rng rng(1);
    const Matrix m = Matrix::randn(8, 8, rng);
    const QuantizedTensor q = quantize_per_tensor(m, bits);
    const std::size_t expected_payload = (64 * bits + 7) / 8;
    EXPECT_EQ(q.payload.size(), expected_payload);
    EXPECT_EQ(q.wire_bytes(), expected_payload + 8);
}

TEST_P(QuantizeBits, ExtremesAreRepresentedExactly) {
    const int bits = GetParam();
    Matrix m(1, 4, std::vector<float>{-2.0f, -1.0f, 1.0f, 2.0f});
    const QuantizedTensor q = quantize_per_tensor(m, bits);
    const Matrix back = dequantize(q);
    // min and max of the tensor define the affine range → exact to one step.
    EXPECT_NEAR(back(0, 0), -2.0f, q.scale * 0.51f);
    EXPECT_NEAR(back(0, 3), 2.0f, q.scale * 0.51f);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, QuantizeBits, ::testing::Values(4, 8, 16));

TEST(Quantize, ConstantTensorSurvives) {
    Matrix m(3, 3, 5.0f);
    const QuantizedTensor q = quantize_per_tensor(m, 8);
    const Matrix back = dequantize(q);
    EXPECT_LE(max_abs_diff(m, back), q.scale * 0.5f + 1e-6f);
}

TEST(Quantize, ZeroTensorIsExact) {
    Matrix m(2, 2);
    const Matrix back = dequantize(quantize_per_tensor(m, 4));
    EXPECT_LE(max_abs_diff(m, back), 1.0f / 15.0f);
}

TEST(Quantize, EmptyTensor) {
    Matrix m;
    const QuantizedTensor q = quantize_per_tensor(m, 8);
    EXPECT_EQ(q.payload.size(), 0u);
    const Matrix back = dequantize(q);
    EXPECT_TRUE(back.empty());
}

TEST(Quantize, RejectsUnsupportedBits) {
    Matrix m(1, 1);
    EXPECT_THROW((void)quantize_per_tensor(m, 3), Error);
    EXPECT_THROW((void)quantize_per_tensor(m, 32), Error);
}

TEST(Quantize, DequantizeValidatesPayload) {
    Matrix m(2, 2, 1.0f);
    QuantizedTensor q = quantize_per_tensor(m, 8);
    q.payload.pop_back();
    EXPECT_THROW((void)dequantize(q), Error);
}

TEST(Quantize, HigherBitsLowerError) {
    Rng rng(9);
    const Matrix m = Matrix::randn(30, 30, rng, 0.0f, 2.0f);
    const float e4 = max_abs_diff(m, dequantize(quantize_per_tensor(m, 4)));
    const float e8 = max_abs_diff(m, dequantize(quantize_per_tensor(m, 8)));
    const float e16 = max_abs_diff(m, dequantize(quantize_per_tensor(m, 16)));
    EXPECT_GT(e4, e8);
    EXPECT_GT(e8, e16);
}

TEST(Quantize, OddElementCountPacks4Bit) {
    Matrix m(1, 5, std::vector<float>{0, 1, 2, 3, 4});
    const QuantizedTensor q = quantize_per_tensor(m, 4);
    EXPECT_EQ(q.payload.size(), 3u);  // ceil(5/2)
    const Matrix back = dequantize(q);
    EXPECT_LE(max_abs_diff(m, back), q.scale * 0.5f + 1e-6f);
}

} // namespace
} // namespace scgnn::tensor
