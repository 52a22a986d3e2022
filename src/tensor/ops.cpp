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
    // Row-parallel: each C row is one row-kernel call owned by one chunk,
    // summing B's rows in ascending p with the historical skip of zero
    // entries of A, so the result is bitwise identical at every thread
    // count.
    const kern::GemmArgs op{a.data(), b.data(), c.data(), a.cols(), b.cols(),
                            /*skip_zero=*/true};
    parallel_for(0, a.rows(), grain_for(op.k * op.n),
                 [&](std::size_t lo, std::size_t hi) {
        kern::gemm_rows(op, lo, hi);
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
    // The output is small (weight-shaped) and the reduction runs over
    // every graph row, so each output tile, one per task, streams A and B
    // once.
    const kern::AtBArgs op{a.data(), b.data(), c.data(),
                           a.rows(), a.cols(), b.cols()};
    parallel_for(0, op.tiles(),
                 grain_for(op.k * op.tile_rows() * op.tile_cols()),
                 [&](std::size_t lo, std::size_t hi) {
        kern::at_b_tiles(op, lo, hi);
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
    const kern::GemmArgs op{a.data(), bt, c.data(), k, n, /*skip_zero=*/false};
    parallel_for(0, m, grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        kern::gemm_rows(op, lo, hi);
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

Matrix transpose(const Matrix& m) {
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
    return t;
}

} // namespace scgnn::tensor
