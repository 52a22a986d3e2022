#include "scgnn/gnn/optimizer.hpp"

#include <cmath>

#include "scgnn/common/error.hpp"

namespace scgnn::gnn {

Adam::Adam(const std::vector<tensor::Matrix*>& params, AdamConfig config)
    : cfg_(config) {
    SCGNN_CHECK(cfg_.lr > 0.0f, "learning rate must be positive");
    SCGNN_CHECK(cfg_.beta1 >= 0.0f && cfg_.beta1 < 1.0f, "beta1 out of range");
    SCGNN_CHECK(cfg_.beta2 >= 0.0f && cfg_.beta2 < 1.0f, "beta2 out of range");
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const tensor::Matrix* p : params) {
        SCGNN_CHECK(p != nullptr, "null parameter");
        m_.emplace_back(p->rows(), p->cols());
        v_.emplace_back(p->rows(), p->cols());
    }
}

void Adam::step(const std::vector<tensor::Matrix*>& params,
                const std::vector<tensor::Matrix*>& grads) {
    SCGNN_CHECK(params.size() == m_.size(),
                "parameter list changed since construction");
    SCGNN_CHECK(grads.size() == params.size(),
                "one gradient per parameter required");
    ++t_;
    const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
    for (std::size_t i = 0; i < params.size(); ++i) {
        tensor::Matrix& p = *params[i];
        const tensor::Matrix& g = *grads[i];
        SCGNN_CHECK(p.rows() == m_[i].rows() && p.cols() == m_[i].cols(),
                    "parameter shape changed since construction");
        SCGNN_CHECK(g.rows() == p.rows() && g.cols() == p.cols(),
                    "gradient shape mismatch");
        auto pf = p.flat();
        auto gf = g.flat();
        auto mf = m_[i].flat();
        auto vf = v_[i].flat();
        for (std::size_t j = 0; j < pf.size(); ++j) {
            mf[j] = cfg_.beta1 * mf[j] + (1.0f - cfg_.beta1) * gf[j];
            vf[j] = cfg_.beta2 * vf[j] + (1.0f - cfg_.beta2) * gf[j] * gf[j];
            const auto mhat = static_cast<double>(mf[j]) / bc1;
            const auto vhat = static_cast<double>(vf[j]) / bc2;
            double update = mhat / (std::sqrt(vhat) + cfg_.eps);
            if (cfg_.weight_decay > 0.0f)
                update += static_cast<double>(cfg_.weight_decay) * pf[j];
            pf[j] -= static_cast<float>(cfg_.lr * update);
        }
    }
}

} // namespace scgnn::gnn
