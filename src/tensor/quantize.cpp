#include "scgnn/tensor/quantize.hpp"

#include <algorithm>
#include <cmath>

namespace scgnn::tensor {
namespace {

constexpr bool valid_bits(int bits) {
    return bits == 4 || bits == 8 || bits == 16;
}

} // namespace

QuantizedTensor quantize_per_tensor(const Matrix& m, int bits) {
    SCGNN_CHECK(valid_bits(bits), "supported bit-widths are 4, 8 and 16");
    QuantizedTensor q;
    q.rows = m.rows();
    q.cols = m.cols();
    q.bits = bits;

    const auto flat = m.flat();
    float lo = 0.0f, hi = 0.0f;
    if (!flat.empty()) {
        lo = hi = flat[0];
        for (float v : flat) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    // The affine range must contain zero so the zero-point stays inside
    // [0, levels] (same adjustment torch.quantize_per_tensor applies);
    // otherwise constant tensors far from zero clamp catastrophically.
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);
    const auto levels = static_cast<std::uint32_t>((1u << bits) - 1u);
    float range = hi - lo;
    if (range <= 0.0f) range = 1.0f;  // constant tensor: any scale works
    q.scale = range / static_cast<float>(levels);
    q.zero_point = static_cast<std::int32_t>(
        std::lround(-lo / q.scale));
    q.zero_point = std::clamp<std::int32_t>(q.zero_point, 0,
                                            static_cast<std::int32_t>(levels));

    auto encode = [&](float v) -> std::uint32_t {
        const long code = std::lround(v / q.scale) + q.zero_point;
        return static_cast<std::uint32_t>(
            std::clamp<long>(code, 0, static_cast<long>(levels)));
    };

    const std::size_t n = flat.size();
    if (bits == 4) {
        q.payload.assign((n + 1) / 2, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t code = encode(flat[i]);
            if (i % 2 == 0)
                q.payload[i / 2] = static_cast<std::uint8_t>(code);
            else
                q.payload[i / 2] |= static_cast<std::uint8_t>(code << 4);
        }
    } else if (bits == 8) {
        q.payload.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            q.payload[i] = static_cast<std::uint8_t>(encode(flat[i]));
    } else {  // 16
        q.payload.resize(n * 2);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t code = encode(flat[i]);
            q.payload[i * 2] = static_cast<std::uint8_t>(code & 0xff);
            q.payload[i * 2 + 1] = static_cast<std::uint8_t>(code >> 8);
        }
    }
    return q;
}

Matrix dequantize(const QuantizedTensor& q) {
    SCGNN_CHECK(valid_bits(q.bits), "supported bit-widths are 4, 8 and 16");
    Matrix m(q.rows, q.cols);
    auto flat = m.flat();
    const std::size_t n = flat.size();
    auto decode = [&](std::uint32_t code) {
        return q.scale *
               (static_cast<float>(static_cast<std::int64_t>(code) -
                                   q.zero_point));
    };
    if (q.bits == 4) {
        SCGNN_CHECK(q.payload.size() == (n + 1) / 2,
                    "payload size inconsistent with shape");
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t byte = q.payload[i / 2];
            const std::uint32_t code = (i % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
            flat[i] = decode(code);
        }
    } else if (q.bits == 8) {
        SCGNN_CHECK(q.payload.size() == n,
                    "payload size inconsistent with shape");
        for (std::size_t i = 0; i < n; ++i) flat[i] = decode(q.payload[i]);
    } else {
        SCGNN_CHECK(q.payload.size() == n * 2,
                    "payload size inconsistent with shape");
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t code =
                static_cast<std::uint32_t>(q.payload[i * 2]) |
                (static_cast<std::uint32_t>(q.payload[i * 2 + 1]) << 8);
            flat[i] = decode(code);
        }
    }
    return m;
}

} // namespace scgnn::tensor
