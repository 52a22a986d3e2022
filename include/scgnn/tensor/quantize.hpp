#pragma once
/// \file quantize.hpp
/// \brief Per-tensor affine quantisation, the mechanism behind the paper's
///        "quantification" baseline [15] (AdaQP-style): embeddings/gradients
///        are packed to low bit-width before crossing partitions and
///        dequantised on arrival. Mirrors torch.quantize_per_tensor
///        semantics (scale + zero-point, round-to-nearest).

#include <cstdint>
#include <vector>

#include "scgnn/tensor/matrix.hpp"

namespace scgnn::tensor {

/// A quantised tensor: packed payload plus the affine parameters needed to
/// reconstruct. `bits` ∈ {4, 8, 16}; 16 means raw IEEE half-precision-like
/// truncation is NOT used — 16-bit affine quantisation keeps the code path
/// uniform.
struct QuantizedTensor {
    std::size_t rows = 0;
    std::size_t cols = 0;
    int bits = 8;
    float scale = 1.0f;       ///< dequant: value = scale * (q - zero_point)
    std::int32_t zero_point = 0;
    std::vector<std::uint8_t> payload;  ///< bit-packed codes, row-major

    /// Bytes that actually cross the wire (payload + the two parameters).
    [[nodiscard]] std::size_t wire_bytes() const noexcept {
        return payload.size() + sizeof(scale) + sizeof(zero_point);
    }
};

/// Quantise a matrix to `bits`-bit codes with per-tensor affine parameters
/// chosen from the min/max of the data (symmetric range degenerate cases —
/// constant tensors — are handled). Requires bits ∈ {4, 8, 16}.
[[nodiscard]] QuantizedTensor quantize_per_tensor(const Matrix& m, int bits);

/// Reconstruct the (lossy) matrix from a quantised tensor.
[[nodiscard]] Matrix dequantize(const QuantizedTensor& q);

} // namespace scgnn::tensor
