#include "scgnn/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "scgnn/common/parallel.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::tensor {

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
    SCGNN_CHECK(a.cols() == b.rows(), "matmul inner dimensions must agree");
    c.reshape_zero(a.rows(), b.cols());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const float* ad = a.data();
    const float* bd = b.data();
    float* cd = c.data();
    // Row-parallel: each C row is one row-kernel call owned by one chunk,
    // summing B's rows in ascending p with the historical skip of zero
    // entries of A, so the result is bitwise identical at every thread
    // count.
    parallel_for(0, m, grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const float* ai = ad + i * k;
            kern::row(cd + i * n, n, [&](auto&& visit) {
                for (std::size_t p = 0; p < k; ++p)
                    if (ai[p] != 0.0f) visit(ai[p], bd + p * n);
            });
        }
    });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_into(a, b, c);
    return c;
}

namespace {

/// The IB×T tile of C = Aᵀ·B at (i0, j0): the tile stays in local vector
/// accumulators over all k rows, which each add IB contiguous floats of
/// A times T of B. Each C(i,j) sums A(p,i)·B(p,j) over ascending p,
/// skipping zero A(p,i).
template <std::size_t IB, std::size_t T>
void at_b_tile(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n, std::size_t i0,
               std::size_t j0) {
    using kern::detail::f32x4;
    f32x4 acc[IB][T / 4] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float* ap = a + p * m + i0;
        f32x4 bv[T / 4];
        std::memcpy(bv, b + p * n + j0, sizeof bv);
        for (std::size_t ii = 0; ii < IB; ++ii) {
            if (ap[ii] == 0.0f) continue;
            for (std::size_t q = 0; q < T / 4; ++q)
                acc[ii][q] += ap[ii] * bv[q];
        }
    }
    for (std::size_t ii = 0; ii < IB; ++ii)
        std::memcpy(c + (i0 + ii) * n + j0, acc[ii], sizeof acc[ii]);
}

/// at_b_tile() for an ib×tw edge tile (ib ≤ IB, tw ≤ T), still one pass
/// over A and B per tile. Outputs whose width is not a multiple of T
/// (the 10-class workloads' last layer) run every tile here.
template <std::size_t IB, std::size_t T>
void at_b_edge(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n, std::size_t i0, std::size_t j0,
               std::size_t ib, std::size_t tw) {
    float acc[IB][T] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float* ap = a + p * m + i0;
        const float* bp = b + p * n + j0;
        for (std::size_t ii = 0; ii < ib; ++ii) {
            if (ap[ii] == 0.0f) continue;
            for (std::size_t jj = 0; jj < tw; ++jj)
                acc[ii][jj] += ap[ii] * bp[jj];
        }
    }
    for (std::size_t ii = 0; ii < ib; ++ii)
        for (std::size_t jj = 0; jj < tw; ++jj)
            c[(i0 + ii) * n + j0 + jj] = acc[ii][jj];
}

/// Aᵀ·B over IB×T output tiles, one tile per task.
template <std::size_t IB, std::size_t T>
void at_b_tiles(const Matrix& a, const Matrix& b, Matrix& c) {
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    const std::size_t tiles_j = (n + T - 1) / T;
    const std::size_t tiles = (m + IB - 1) / IB * tiles_j;
    const float* ad = a.data();
    const float* bd = b.data();
    float* cd = c.data();
    parallel_for(0, tiles, grain_for(k * IB * T),
                 [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
            const std::size_t i0 = t / tiles_j * IB, j0 = t % tiles_j * T;
            const std::size_t ib = std::min(IB, m - i0);
            const std::size_t tw = std::min(T, n - j0);
            if (ib == IB && tw == T)
                at_b_tile<IB, T>(ad, bd, cd, k, m, n, i0, j0);
            else
                at_b_edge<IB, T>(ad, bd, cd, k, m, n, i0, j0, ib, tw);
        }
    });
}

} // namespace

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
    SCGNN_CHECK(a.rows() == b.rows(), "matmul_at_b outer dimensions must agree");
    c.reshape_zero(a.cols(), b.cols());
    // The output is small (weight-shaped) and the reduction runs over
    // every graph row, so each tile streams A and B once: 4×8 tiles for
    // narrow outputs, 2×16 otherwise.
    if (b.cols() <= 8)
        at_b_tiles<4, 8>(a, b, c);
    else
        at_b_tiles<2, 16>(a, b, c);
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
    // Pack Bᵀ (k×n) once so every C row is one row-kernel call over the
    // rows of Bᵀ in ascending p. There is no zero-skip: each C(i,j) is
    // the historical dot product Σ_p A(i,p)·B(j,p), 0·inf = NaN included.
    // The pack buffer belongs to the calling thread and keeps its
    // capacity across calls; its pointer is taken here because a pool
    // worker naming the thread_local would see its own, empty, copy.
    thread_local std::vector<float> bt_buf;
    bt_buf.resize(k * n);
    float* bt = bt_buf.data();
    const float* bd = b.data();
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = bd[j * k + p];
    const float* ad = a.data();
    float* cd = c.data();
    parallel_for(0, m, grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const float* ai = ad + i * k;
            kern::row(cd + i * n, n, [&](auto&& visit) {
                for (std::size_t p = 0; p < k; ++p) visit(ai[p], bt + p * n);
            });
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
