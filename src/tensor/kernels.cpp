#include "scgnn/tensor/kernels.hpp"

namespace scgnn::tensor::kern {

void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
    for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

double sq_dist(const float* a, const float* b, std::size_t n) noexcept {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        acc += d * d;
    }
    return acc;
}

} // namespace scgnn::tensor::kern
