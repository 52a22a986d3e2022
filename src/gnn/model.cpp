#include "scgnn/gnn/model.hpp"

#include <algorithm>

#include "scgnn/common/parallel.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::gnn {
namespace {

using tensor::Matrix;

/// z += broadcast of the (1 × cols) bias row, row-parallel.
void add_bias(Matrix& z, const Matrix& bias) {
    SCGNN_ASSERT(bias.rows() == 1 && bias.cols() == z.cols(),
                 "bias shape mismatch");
    const auto b = bias.row(0);
    parallel_for(0, z.rows(), grain_for(z.cols()),
                 [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            auto zr = z.row(r);
            for (std::size_t c = 0; c < zr.size(); ++c) zr[c] += b[c];
        }
    });
}

/// Column sums into a reused (1 × cols) matrix — the bias gradient. Each
/// task owns a slice of at least 16 columns (one cache line) and adds
/// its rows in ascending order, the order of a serial pass.
void col_sums_into(const Matrix& m, Matrix& s) {
    s.reshape_zero(1, m.cols());
    auto sr = s.row(0);
    parallel_for(0, m.cols(), std::max<std::size_t>(16, grain_for(m.rows())),
                 [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const auto mr = m.row(r);
            for (std::size_t c = lo; c < hi; ++c) sr[c] += mr[c];
        }
    });
}

} // namespace

GnnModel::GnnModel(const GnnConfig& config)
    : cfg_(config), dropout_rng_(config.seed ^ 0xd40d007ULL) {
    SCGNN_CHECK(cfg_.in_dim > 0 && cfg_.hidden_dim > 0 && cfg_.out_dim > 0,
                "all model dimensions must be positive");
    SCGNN_CHECK(cfg_.num_layers >= 1, "need at least one layer");
    SCGNN_CHECK(cfg_.dropout >= 0.0f && cfg_.dropout < 1.0f,
                "dropout must be in [0, 1)");
    Rng rng(cfg_.seed);
    layers_.resize(cfg_.num_layers);
    for (std::uint32_t i = 0; i < cfg_.num_layers; ++i) {
        const std::uint32_t fan_in = i == 0 ? cfg_.in_dim : cfg_.hidden_dim;
        const std::uint32_t fan_out =
            i + 1 == cfg_.num_layers ? cfg_.out_dim : cfg_.hidden_dim;
        Layer& l = layers_[i];
        l.w = Matrix::glorot(fan_in, fan_out, rng);
        l.b = Matrix(1, fan_out);
        l.gw = Matrix(fan_in, fan_out);
        l.gb = Matrix(1, fan_out);
        if (cfg_.kind == LayerKind::kSage) {
            l.w_self = Matrix::glorot(fan_in, fan_out, rng);
            l.gw_self = Matrix(fan_in, fan_out);
        }
    }
    h_.resize(cfg_.num_layers);
    a_.resize(cfg_.num_layers);
    z_.resize(cfg_.num_layers);
    mask_.resize(cfg_.num_layers);
    // layers_ never resizes after this point, so the parameter/gradient
    // views stay valid for the model's lifetime.
    for (Layer& l : layers_) {
        params_.push_back(&l.w);
        grads_.push_back(&l.gw);
        if (cfg_.kind == LayerKind::kSage) {
            params_.push_back(&l.w_self);
            grads_.push_back(&l.gw_self);
        }
        params_.push_back(&l.b);
        grads_.push_back(&l.gb);
    }
}

const Matrix& GnnModel::forward_ref(const Matrix& x, Aggregator& agg) {
    SCGNN_CHECK(x.cols() == cfg_.in_dim, "feature width must match in_dim");
    for (std::uint32_t i = 0; i < cfg_.num_layers; ++i) {
        // Layer input: the features for layer 0, the previous layer's
        // activation (written by relu_into below) otherwise. Copy-assign
        // and the *_into kernels reuse the cached matrices' capacity, so
        // after the first pass no step here allocates.
        if (i == 0) h_[0] = x;
        agg.forward_into(h_[i], static_cast<int>(i), a_[i]);
        if (cfg_.kind == LayerKind::kGin) {
            // a becomes the GIN combine (1+ε)·h + A·h; the weight applies
            // to the combined signal, so the cached a_ feeds gw directly.
            tensor::axpy(1.0f + cfg_.gin_eps, h_[i], a_[i]);
        }
        tensor::matmul_into(a_[i], layers_[i].w, z_[i]);
        if (cfg_.kind == LayerKind::kSage) {
            tensor::matmul_into(h_[i], layers_[i].w_self, gtmp_);
            z_[i] += gtmp_;
        }
        add_bias(z_[i], layers_[i].b);
        if (i + 1 < cfg_.num_layers) {
            tensor::relu_into(z_[i], h_[i + 1]);
            if (training_ && cfg_.dropout > 0.0f) {
                // Inverted dropout: surviving units are scaled by 1/(1-p)
                // so evaluation needs no rescaling.
                Matrix& cur = h_[i + 1];
                mask_[i].reshape_zero(cur.rows(), cur.cols());
                const float keep_scale = 1.0f / (1.0f - cfg_.dropout);
                auto mf = mask_[i].flat();
                auto cf = cur.flat();
                for (std::size_t j = 0; j < mf.size(); ++j) {
                    mf[j] = dropout_rng_.bernoulli(cfg_.dropout) ? 0.0f
                                                                 : keep_scale;
                    cf[j] *= mf[j];
                }
            } else {
                mask_[i].reshape_zero(0, 0);  // inactive this pass
            }
        }
    }
    have_cache_ = true;
    return z_.back();
}

Matrix GnnModel::forward(const Matrix& x, Aggregator& agg) {
    return forward_ref(x, agg);
}

void GnnModel::backward(const Matrix& dlogits, Aggregator& agg) {
    SCGNN_CHECK(have_cache_, "backward() requires a preceding forward()");
    SCGNN_CHECK(dlogits.rows() == z_.back().rows() &&
                    dlogits.cols() == cfg_.out_dim,
                "dlogits shape mismatch");

    dz_ = dlogits;
    for (std::uint32_t i = cfg_.num_layers; i-- > 0;) {
        Layer& l = layers_[i];
        // Gradient terms land in gtmp_/btmp_ first and accumulate with a
        // single +=, exactly the temp-then-add rounding of the historical
        // `gw += matmul_at_b(...)` expressions.
        tensor::matmul_at_b_into(a_[i], dz_, gtmp_);
        l.gw += gtmp_;
        col_sums_into(dz_, btmp_);
        l.gb += btmp_;
        if (cfg_.kind == LayerKind::kSage) {
            tensor::matmul_at_b_into(h_[i], dz_, gtmp_);
            l.gw_self += gtmp_;
        }
        if (i == 0) break;  // no trainable ancestors below the features
        tensor::matmul_a_bt_into(dz_, l.w, dcomb_);
        agg.backward_into(dcomb_, static_cast<int>(i), dh_);
        if (cfg_.kind == LayerKind::kSage) {
            tensor::matmul_a_bt_into(dz_, l.w_self, gtmp_);
            dh_ += gtmp_;
        } else if (cfg_.kind == LayerKind::kGin) {
            tensor::axpy(1.0f + cfg_.gin_eps, dcomb_, dh_);
        }
        if (!mask_[i - 1].empty()) {
            auto df = dh_.flat();
            const auto mf = mask_[i - 1].flat();
            for (std::size_t j = 0; j < df.size(); ++j) df[j] *= mf[j];
        }
        tensor::relu_backward_into(dh_, z_[i - 1], dz_);
    }
}

const std::vector<Matrix*>& GnnModel::parameters() { return params_; }

const std::vector<Matrix*>& GnnModel::gradients() { return grads_; }

void GnnModel::zero_grad() {
    for (Matrix* g : gradients()) g->zero();
}

} // namespace scgnn::gnn
