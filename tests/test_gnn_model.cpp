// Unit tests for the GNN stack: normalised adjacency, model forward shapes,
// full finite-difference gradient checks for both architectures, and Adam.
#include <gtest/gtest.h>

#include <cmath>

#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/gnn/model.hpp"
#include "scgnn/gnn/optimizer.hpp"
#include "scgnn/gnn/trainer.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::gnn {
namespace {

using graph::Edge;
using graph::Graph;
using tensor::Matrix;

Graph triangle_plus() {
    // Triangle 0-1-2 with a pendant 3.
    return Graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

TEST(Adjacency, SymmetricNormalisation) {
    const auto a = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    EXPECT_EQ(a.rows(), 4u);
    // deg+1: node0=3, node1=3, node2=4, node3=2
    EXPECT_NEAR(a.coeff(0, 0), 1.0 / 3.0, 1e-6);
    EXPECT_NEAR(a.coeff(0, 1), 1.0 / std::sqrt(9.0), 1e-6);
    EXPECT_NEAR(a.coeff(2, 3), 1.0 / std::sqrt(8.0), 1e-6);
    // Symmetric: Â == Âᵀ.
    EXPECT_NEAR(a.coeff(3, 2), a.coeff(2, 3), 1e-7);
}

TEST(Adjacency, RowMeanRowsSumToOne) {
    const auto a = normalized_adjacency(triangle_plus(), AdjNorm::kRowMean);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        double sum = 0.0;
        for (float v : a.row_vals(r)) sum += v;
        EXPECT_NEAR(sum, 1.0, 1e-6);
    }
}

TEST(Model, ForwardShapes) {
    GnnConfig cfg{.in_dim = 5, .hidden_dim = 7, .out_dim = 3, .seed = 1};
    GnnModel model(cfg);
    const auto adj = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    Rng rng(2);
    const Matrix x = Matrix::randn(4, 5, rng);
    const Matrix logits = model.forward(x, agg);
    EXPECT_EQ(logits.rows(), 4u);
    EXPECT_EQ(logits.cols(), 3u);
}

TEST(Model, ForwardIsDeterministic) {
    GnnConfig cfg{.in_dim = 4, .hidden_dim = 6, .out_dim = 2, .seed = 9};
    GnnModel m1(cfg), m2(cfg);
    const auto adj = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    Rng rng(3);
    const Matrix x = Matrix::randn(4, 4, rng);
    EXPECT_TRUE(m1.forward(x, agg) == m2.forward(x, agg));
}

TEST(Model, BackwardRequiresForward) {
    GnnConfig cfg{.in_dim = 2, .hidden_dim = 2, .out_dim = 2, .seed = 1};
    GnnModel model(cfg);
    const auto adj = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    EXPECT_THROW(model.backward(Matrix(4, 2), agg), Error);
}

TEST(Model, ParameterAndGradientListsMatch) {
    GnnConfig gcn{.in_dim = 3, .hidden_dim = 4, .out_dim = 2,
                  .kind = LayerKind::kGcn, .seed = 1};
    GnnModel m(gcn);
    EXPECT_EQ(m.parameters().size(), 4u);
    EXPECT_EQ(m.gradients().size(), 4u);
    GnnConfig sage = gcn;
    sage.kind = LayerKind::kSage;
    GnnModel s(sage);
    EXPECT_EQ(s.parameters().size(), 6u);
    for (std::size_t i = 0; i < s.parameters().size(); ++i) {
        EXPECT_EQ(s.parameters()[i]->rows(), s.gradients()[i]->rows());
        EXPECT_EQ(s.parameters()[i]->cols(), s.gradients()[i]->cols());
    }
}

class GradientCheck : public ::testing::TestWithParam<LayerKind> {};

TEST_P(GradientCheck, AnalyticMatchesFiniteDifference) {
    const GnnConfig cfg{.in_dim = 3, .hidden_dim = 5, .out_dim = 3,
                        .kind = GetParam(), .seed = 4};
    GnnModel model(cfg);
    const Graph g = triangle_plus();
    // Row-mean norm exercises the asymmetric backward path too.
    const auto adj = normalized_adjacency(g, AdjNorm::kRowMean);
    SpmmAggregator agg(adj);
    Rng rng(5);
    const Matrix x = Matrix::randn(4, 3, rng);
    const std::vector<std::int32_t> labels{0, 1, 2, 1};
    const std::vector<std::uint32_t> mask{0, 1, 3};

    std::vector<double> terms;
    auto loss_fn = [&]() {
        const Matrix logits = model.forward(x, agg);
        return tensor::softmax_cross_entropy(logits, labels, mask, terms);
    };

    model.zero_grad();
    const Matrix logits = model.forward(x, agg);
    const Matrix dlogits =
        tensor::softmax_cross_entropy_grad(logits, labels, mask);
    model.backward(dlogits, agg);

    const auto params = model.parameters();
    const auto grads = model.gradients();
    const float eps = 1e-2f;
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
        Matrix& p = *params[pi];
        const Matrix& grad = *grads[pi];
        // Probe a handful of coordinates per tensor.
        for (std::size_t idx = 0; idx < p.size(); idx += 1 + p.size() / 7) {
            auto flat = p.flat();
            const float orig = flat[idx];
            auto fd_at = [&](float step) {
                flat[idx] = orig + step;
                const double lp = loss_fn();
                flat[idx] = orig - step;
                const double lm = loss_fn();
                flat[idx] = orig;
                return (lp - lm) / (2.0 * step);
            };
            const double fd = fd_at(eps);
            const double fd_small = fd_at(eps / 4.0f);
            // A ReLU kink inside the probe interval makes the FD estimate
            // itself wrong; detect it by step-size instability and skip.
            if (std::abs(fd - fd_small) > 1e-3) continue;
            EXPECT_NEAR(grad.flat()[idx], fd, 5e-3)
                << "param " << pi << " idx " << idx;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GradientCheck,
                         ::testing::Values(LayerKind::kGcn, LayerKind::kSage,
                                           LayerKind::kGin),
                         [](const auto& param_info) {
                             switch (param_info.param) {
                                 case LayerKind::kGcn: return "gcn";
                                 case LayerKind::kSage: return "sage";
                                 default: return "gin";
                             }
                         });

TEST(Adjacency, SumNormIsRawAdjacency) {
    const auto a = normalized_adjacency(triangle_plus(), AdjNorm::kSum);
    EXPECT_EQ(a.coeff(0, 0), 0.0f);  // no self-loops
    EXPECT_EQ(a.coeff(0, 1), 1.0f);
    EXPECT_EQ(a.coeff(2, 3), 1.0f);
    EXPECT_EQ(a.nnz(), 8u);  // 2 × 4 undirected edges
}

TEST(Model, GinForwardMatchesManualFormula) {
    GnnConfig cfg{.in_dim = 3, .hidden_dim = 4, .out_dim = 2,
                  .num_layers = 1, .kind = LayerKind::kGin,
                  .gin_eps = 0.5f, .seed = 4};
    GnnModel model(cfg);
    const Graph g = triangle_plus();
    const auto adj = normalized_adjacency(g, AdjNorm::kSum);
    SpmmAggregator agg(adj);
    Rng rng(5);
    const Matrix x = Matrix::randn(4, 3, rng);
    const Matrix logits = model.forward(x, agg);

    // Manual: ((1+ε)X + A·X)·W + b.
    Matrix combined = tensor::spmm(adj, x);
    tensor::axpy(1.5f, x, combined);
    Matrix expect = tensor::matmul(combined, *model.parameters()[0]);
    const auto b = model.parameters()[1]->row(0);
    for (std::size_t r = 0; r < expect.rows(); ++r)
        for (std::size_t c = 0; c < expect.cols(); ++c) expect(r, c) += b[c];
    EXPECT_LT(tensor::max_abs_diff(logits, expect), 1e-5f);
}

TEST(Model, ThreeLayerGradientCheck) {
    const GnnConfig cfg{.in_dim = 3, .hidden_dim = 4, .out_dim = 2,
                        .num_layers = 3, .kind = LayerKind::kGcn, .seed = 8};
    GnnModel model(cfg);
    EXPECT_EQ(model.num_aggregations(), 3);
    EXPECT_EQ(model.parameters().size(), 6u);  // (w, b) per layer
    const Graph g = triangle_plus();
    const auto adj = normalized_adjacency(g, AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    Rng rng(9);
    const Matrix x = Matrix::randn(4, 3, rng);
    const std::vector<std::int32_t> labels{0, 1, 0, 1};
    const std::vector<std::uint32_t> mask{0, 1, 2, 3};

    model.zero_grad();
    const Matrix logits = model.forward(x, agg);
    model.backward(tensor::softmax_cross_entropy_grad(logits, labels, mask),
                   agg);
    const auto params = model.parameters();
    const auto grads = model.gradients();
    std::vector<double> terms;
    const float eps = 1e-2f;
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
        auto flat = params[pi]->flat();
        const std::size_t idx = flat.size() / 2;
        const float orig = flat[idx];
        auto fd_at = [&](float step) {
            flat[idx] = orig + step;
            const double lp = tensor::softmax_cross_entropy(
                model.forward(x, agg), labels, mask, terms);
            flat[idx] = orig - step;
            const double lm = tensor::softmax_cross_entropy(
                model.forward(x, agg), labels, mask, terms);
            flat[idx] = orig;
            return (lp - lm) / (2.0 * step);
        };
        const double fd = fd_at(eps);
        if (std::abs(fd - fd_at(eps / 4.0f)) > 1e-3) continue;  // ReLU kink
        EXPECT_NEAR(grads[pi]->flat()[idx], fd, 5e-3) << "param " << pi;
    }
}

TEST(Model, SingleLayerDegeneratesToLinearGcn) {
    const GnnConfig cfg{.in_dim = 3, .hidden_dim = 9, .out_dim = 2,
                        .num_layers = 1, .seed = 3};
    GnnModel model(cfg);
    EXPECT_EQ(model.num_aggregations(), 1);
    EXPECT_EQ(model.parameters().size(), 2u);
    const auto adj = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    Rng rng(4);
    const Matrix x = Matrix::randn(4, 3, rng);
    const Matrix logits = model.forward(x, agg);
    // One layer: logits = (ÂX)W + b, no ReLU anywhere.
    const Matrix ax = tensor::spmm(adj, x);
    Matrix expect = tensor::matmul(ax, *model.parameters()[0]);
    const auto b = model.parameters()[1]->row(0);
    for (std::size_t r = 0; r < expect.rows(); ++r)
        for (std::size_t c = 0; c < expect.cols(); ++c)
            expect(r, c) += b[c];
    EXPECT_LT(tensor::max_abs_diff(logits, expect), 1e-5f);
}

TEST(Model, ValidatesLayerCount) {
    GnnConfig cfg{.in_dim = 2, .hidden_dim = 2, .out_dim = 2, .num_layers = 0};
    EXPECT_THROW(GnnModel{cfg}, Error);
}

TEST(Model, ZeroGradClearsAccumulation) {
    GnnConfig cfg{.in_dim = 2, .hidden_dim = 3, .out_dim = 2, .seed = 6};
    GnnModel model(cfg);
    const auto adj = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    Rng rng(7);
    const Matrix x = Matrix::randn(4, 2, rng);
    const std::vector<std::int32_t> labels{0, 1, 0, 1};
    const std::vector<std::uint32_t> mask{0, 1, 2, 3};
    const Matrix logits = model.forward(x, agg);
    const Matrix d = tensor::softmax_cross_entropy_grad(logits, labels, mask);
    model.backward(d, agg);
    const float norm1 = tensor::frobenius_norm(*model.gradients()[0]);
    EXPECT_GT(norm1, 0.0f);
    model.zero_grad();
    for (auto* gm : model.gradients())
        EXPECT_EQ(tensor::frobenius_norm(*gm), 0.0f);
}

TEST(Model, ValidatesDimensions) {
    EXPECT_THROW(GnnModel(GnnConfig{.in_dim = 0}), Error);
    GnnConfig cfg{.in_dim = 3, .hidden_dim = 2, .out_dim = 2, .seed = 1};
    GnnModel model(cfg);
    const auto adj = normalized_adjacency(triangle_plus(), AdjNorm::kSymmetric);
    SpmmAggregator agg(adj);
    EXPECT_THROW((void)model.forward(Matrix(4, 5), agg), Error);
}

TEST(Adam, ConvergesOnQuadratic) {
    // Minimise ||p - target||² with gradients 2(p - target).
    Matrix p(2, 2, 5.0f);
    const Matrix target(2, 2, 1.0f);
    Adam opt({&p}, AdamConfig{.lr = 0.1f});
    for (int i = 0; i < 400; ++i) {
        Matrix grad = p;
        grad -= target;
        grad *= 2.0f;
        opt.step({&p}, {&grad});
    }
    EXPECT_LT(tensor::max_abs_diff(p, target), 0.05f);
    EXPECT_EQ(opt.steps(), 400u);
}

TEST(Adam, WeightDecayShrinksParameters) {
    Matrix p(1, 1, 10.0f);
    Adam opt({&p}, AdamConfig{.lr = 0.1f, .weight_decay = 0.1f});
    Matrix zero_grad(1, 1);
    for (int i = 0; i < 100; ++i) opt.step({&p}, {&zero_grad});
    EXPECT_LT(std::abs(p(0, 0)), 10.0f);
}

TEST(Adam, ValidatesConfigAndShapes) {
    Matrix p(1, 1);
    EXPECT_THROW(Adam({&p}, AdamConfig{.lr = 0.0f}), Error);
    EXPECT_THROW(Adam({&p}, AdamConfig{.beta1 = 1.0f}), Error);
    Adam opt({&p});
    Matrix wrong(2, 1);
    EXPECT_THROW(opt.step({&p}, {&wrong}), Error);
    EXPECT_THROW(opt.step({&p}, {}), Error);
}

} // namespace
} // namespace scgnn::gnn
