#include "scgnn/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "scgnn/common/parallel.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::tensor {

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
    SCGNN_CHECK(a.cols() == b.rows(), "matmul inner dimensions must agree");
    c.reshape_zero(a.rows(), b.cols());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    // Row-block parallel: each output row is owned by one chunk. Within a
    // chunk the k dimension is tiled (mirroring matmul_at_b) so a block
    // of B rows stays cache-hot while the chunk's C rows are swept. Each
    // C(i,j) still accumulates over p in ascending order with the same
    // zero-skip, so the scalar result is bitwise identical to the
    // historical kernel at every thread count; the simd path differs only
    // by per-element FMA fusion.
    constexpr std::size_t kTile = 128;
    const bool simd = kern::use_simd();
    parallel_for(0, m, grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p0 = 0; p0 < k; p0 += kTile) {
            const std::size_t p1 = std::min(k, p0 + kTile);
            for (std::size_t i = lo; i < hi; ++i) {
                float* ci = c.data() + i * n;
                const float* ai = a.data() + i * k;
                for (std::size_t p = p0; p < p1; ++p) {
                    const float aip = ai[p];
                    if (aip == 0.0f) continue;
                    const float* bp = b.data() + p * n;
                    if (simd)
                        kern::axpy_avx2(aip, bp, ci, n);
                    else
                        kern::axpy_scalar(aip, bp, ci, n);
                }
            }
        }
    });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_into(a, b, c);
    return c;
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
    SCGNN_CHECK(a.rows() == b.rows(), "matmul_at_b outer dimensions must agree");
    c.reshape_zero(a.cols(), b.cols());
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    // Output rows (columns of A) are split across chunks; within a chunk
    // the k dimension is tiled so a block of B rows stays cache-hot while
    // the chunk's C rows are swept, instead of streaming the whole C
    // matrix once per k iteration as the old k-outer kernel did. Each
    // C(i,j) still accumulates over p in ascending order with the same
    // zero-skip, so the result is bitwise identical to the serial kernel.
    constexpr std::size_t kTile = 128;
    const bool simd = kern::use_simd();
    parallel_for(0, m, grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p0 = 0; p0 < k; p0 += kTile) {
            const std::size_t p1 = std::min(k, p0 + kTile);
            for (std::size_t i = lo; i < hi; ++i) {
                float* ci = c.data() + i * n;
                for (std::size_t p = p0; p < p1; ++p) {
                    const float api = a.data()[p * m + i];
                    if (api == 0.0f) continue;
                    const float* bp = b.data() + p * n;
                    if (simd)
                        kern::axpy_avx2(api, bp, ci, n);
                    else
                        kern::axpy_scalar(api, bp, ci, n);
                }
            }
        }
    });
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_at_b_into(a, b, c);
    return c;
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c) {
    SCGNN_CHECK(a.cols() == b.cols(), "matmul_a_bt inner dimensions must agree");
    c.reshape_zero(a.rows(), b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    // j is tiled so a block of B rows (the dot-product right operands)
    // stays resident across the chunk's A rows. Every C(i,j) is one
    // ascending-p dot product exactly as before, so scalar results stay
    // bitwise identical; the simd dot uses multiple accumulators and
    // carries the looser reduction ulp bound.
    constexpr std::size_t jTile = 64;
    const bool simd = kern::use_simd();
    parallel_for(0, m, grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j0 = 0; j0 < n; j0 += jTile) {
            const std::size_t j1 = std::min(n, j0 + jTile);
            for (std::size_t i = lo; i < hi; ++i) {
                const float* ai = a.data() + i * k;
                float* ci = c.data() + i * n;
                for (std::size_t j = j0; j < j1; ++j) {
                    const float* bj = b.data() + j * k;
                    ci[j] = simd ? kern::dot_avx2(ai, bj, k)
                                 : kern::dot_scalar(ai, bj, k);
                }
            }
        }
    });
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_a_bt_into(a, b, c);
    return c;
}

void relu_into(const Matrix& x, Matrix& y) {
    y = x;
    for (auto& v : y.flat()) v = std::max(v, 0.0f);
}

Matrix relu(const Matrix& x) {
    Matrix y;
    relu_into(x, y);
    return y;
}

void relu_backward_into(const Matrix& grad_out, const Matrix& x, Matrix& g) {
    SCGNN_CHECK(grad_out.rows() == x.rows() && grad_out.cols() == x.cols(),
                "relu_backward shapes must match");
    g = grad_out;
    auto gf = g.flat();
    auto xf = x.flat();
    for (std::size_t i = 0; i < gf.size(); ++i)
        if (xf[i] <= 0.0f) gf[i] = 0.0f;
}

Matrix relu_backward(const Matrix& grad_out, const Matrix& x) {
    Matrix g;
    relu_backward_into(grad_out, x, g);
    return g;
}

Matrix row_softmax(const Matrix& logits) {
    Matrix p = logits;
    for (std::size_t r = 0; r < p.rows(); ++r) {
        auto row = p.row(r);
        float mx = row[0];
        for (float v : row) mx = std::max(mx, v);
        float sum = 0.0f;
        for (auto& v : row) {
            v = std::exp(v - mx);
            sum += v;
        }
        const float inv = 1.0f / sum;
        for (auto& v : row) v *= inv;
    }
    return p;
}

double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::int32_t> labels,
                             std::span<const std::uint32_t> mask) {
    SCGNN_CHECK(labels.size() == logits.rows(),
                "one label per logits row required");
    SCGNN_CHECK(!mask.empty(), "loss mask must be non-empty");
    double total = 0.0;
    for (std::uint32_t r : mask) {
        SCGNN_CHECK(r < logits.rows(), "mask row out of range");
        const auto row = logits.row(r);
        const auto label = labels[r];
        SCGNN_CHECK(label >= 0 && static_cast<std::size_t>(label) < logits.cols(),
                    "label out of class range");
        float mx = row[0];
        for (float v : row) mx = std::max(mx, v);
        double lse = 0.0;
        for (float v : row) lse += std::exp(static_cast<double>(v - mx));
        lse = std::log(lse) + mx;
        total += lse - static_cast<double>(row[static_cast<std::size_t>(label)]);
    }
    return total / static_cast<double>(mask.size());
}

void softmax_cross_entropy_grad_into(const Matrix& logits,
                                     std::span<const std::int32_t> labels,
                                     std::span<const std::uint32_t> mask,
                                     Matrix& grad) {
    SCGNN_CHECK(labels.size() == logits.rows(),
                "one label per logits row required");
    SCGNN_CHECK(!mask.empty(), "loss mask must be non-empty");
    grad.reshape_zero(logits.rows(), logits.cols());
    const float inv_n = 1.0f / static_cast<float>(mask.size());
    for (std::uint32_t r : mask) {
        SCGNN_CHECK(r < logits.rows(), "mask row out of range");
        const auto row = logits.row(r);
        auto grow = grad.row(r);
        float mx = row[0];
        for (float v : row) mx = std::max(mx, v);
        float sum = 0.0f;
        for (std::size_t c = 0; c < row.size(); ++c) {
            grow[c] = std::exp(row[c] - mx);
            sum += grow[c];
        }
        const float inv = 1.0f / sum;
        for (auto& g : grow) g *= inv * inv_n;
        grow[static_cast<std::size_t>(labels[r])] -= inv_n;
    }
}

Matrix softmax_cross_entropy_grad(const Matrix& logits,
                                  std::span<const std::int32_t> labels,
                                  std::span<const std::uint32_t> mask) {
    Matrix grad;
    softmax_cross_entropy_grad_into(logits, labels, mask, grad);
    return grad;
}

std::vector<std::int32_t> row_argmax(const Matrix& logits) {
    SCGNN_CHECK(logits.cols() > 0, "argmax of empty rows");
    std::vector<std::int32_t> out(logits.rows());
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const auto row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < row.size(); ++c)
            if (row[c] > row[best]) best = c;
        out[r] = static_cast<std::int32_t>(best);
    }
    return out;
}

double masked_accuracy(const Matrix& logits,
                       std::span<const std::int32_t> labels,
                       std::span<const std::uint32_t> mask) {
    SCGNN_CHECK(labels.size() == logits.rows(),
                "one label per logits row required");
    SCGNN_CHECK(!mask.empty(), "accuracy mask must be non-empty");
    const auto pred = row_argmax(logits);
    std::size_t hit = 0;
    for (std::uint32_t r : mask) {
        SCGNN_CHECK(r < logits.rows(), "mask row out of range");
        if (pred[r] == labels[r]) ++hit;
    }
    return static_cast<double>(hit) / static_cast<double>(mask.size());
}

double masked_micro_f1(const Matrix& logits,
                       std::span<const std::int32_t> labels,
                       std::span<const std::uint32_t> mask) {
    // Single-label multi-class micro-F1 equals accuracy; computed through
    // TP/FP/FN to keep the metric honest if multi-label support is added.
    const auto pred = row_argmax(logits);
    std::size_t tp = 0, fp = 0, fn = 0;
    for (std::uint32_t r : mask) {
        SCGNN_CHECK(r < logits.rows(), "mask row out of range");
        if (pred[r] == labels[r]) {
            ++tp;
        } else {
            ++fp;
            ++fn;
        }
    }
    const double denom = static_cast<double>(2 * tp + fp + fn);
    return denom == 0.0 ? 0.0 : 2.0 * static_cast<double>(tp) / denom;
}

Matrix add(const Matrix& a, const Matrix& b) {
    Matrix c = a;
    c += b;
    return c;
}

void axpy(float alpha, const Matrix& x, Matrix& y) {
    SCGNN_CHECK(x.rows() == y.rows() && x.cols() == y.cols(),
                "axpy shapes must match");
    kern::axpy(alpha, x.data(), y.data(), x.size());
}

void gather_rows(const Matrix& src, std::span<const std::uint32_t> ids,
                 Matrix& dst) {
    SCGNN_CHECK(dst.cols() == src.cols(), "gather_rows column mismatch");
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto from = src.row(ids[i]);
        std::copy(from.begin(), from.end(), dst.row(i).begin());
    }
}

void scale_rows(Matrix& m, std::span<const float> scale) {
    SCGNN_CHECK(scale.size() == m.rows(), "one scale per row required");
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float s = scale[r];
        for (auto& v : m.row(r)) v *= s;
    }
}

Matrix transpose(const Matrix& m) {
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
    return t;
}

} // namespace scgnn::tensor
