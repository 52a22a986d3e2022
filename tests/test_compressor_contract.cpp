// Contract tests for the BoundaryCompressor interface: one battery that
// every implementation (vanilla, the three baselines, SC-GNN, and a
// composition) must pass. This is the API any new traffic-reduction
// method plugs into, so the contract is pinned explicitly:
//   * reconstruction has the source's shape;
//   * wire bytes never exceed the vanilla per-edge volume;
//   * repeated calls within an epoch are deterministic;
//   * zero input produces zero reconstruction and gradients;
//   * backward output has the gradient's shape;
//   * the reconstruction error is bounded relative to the input scale;
//   * the linear methods' backward is the adjoint of their forward.
// The request half (forward_subset / backward_subset, the sampled
// trainer's path) is held to the same battery, priced once per shipped
// row; delay, which has no request path, must throw there.
#include <gtest/gtest.h>

#include "scgnn/core/framework.hpp"
#include "scgnn/dist/error_feedback.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/tensor/ops.hpp"

namespace scgnn::core {
namespace {

using dist::DistContext;
using tensor::Matrix;

struct ContractCase {
    std::string name;
    std::function<std::unique_ptr<dist::BoundaryCompressor>()> make;
    /// Error-feedback wrapper in the stack: its resync rule may deliver
    /// corrective rows on top of the inner stage's wire volume.
    bool ef = false;
};

// Every case goes through dist::make_compressor — the same construction
// path the benches and CLI use — so the contract also covers the factory.
dist::CompressorOptions contract_options() {
    dist::CompressorOptions opts;
    opts.sampling = {.rate = 0.5, .seed = 3};
    opts.quant = {.bits = 8};
    opts.delay = {.period = 2};
    opts.semantic.grouping.kmeans_k = 6;
    return opts;
}

// {gtest-safe label, factory name} — "+" is not a valid test name char.
using CaseName = std::pair<const char*, const char*>;

std::vector<ContractCase> make_cases(std::initializer_list<CaseName> names) {
    std::vector<ContractCase> out;
    for (const auto& [label, factory_name] : names) {
        out.push_back({label,
                       [factory_name] {
                           return dist::make_compressor(factory_name,
                                                        contract_options());
                       },
                       std::string_view(factory_name).substr(0, 3) == "ef+"});
    }
    return out;
}

/// Every stack with a request path (all but delay).
std::vector<ContractCase> request_cases() {
    return make_cases({{"vanilla", "vanilla"},
                       {"sampling", "sampling"},
                       {"quant", "quant"},
                       {"semantic", "ours"},
                       {"composed", "ours+quant"},
                       {"ef_semantic", "ef+ours"},
                       {"ef_stack3", "ef+ours+quant"}});
}

std::vector<ContractCase> cases() {
    std::vector<ContractCase> out = request_cases();
    out.push_back(make_cases({{"delay", "delay"}})[0]);
    return out;
}

class CompressorContract : public ::testing::TestWithParam<ContractCase> {
protected:
    CompressorContract()
        : data_(graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7)),
          parts_(partition::make_partitioning(
              partition::PartitionAlgo::kNodeCut, data_.graph, 2, 5)),
          ctx_(data_, parts_, gnn::AdjNorm::kSymmetric) {}

    graph::Dataset data_;
    partition::Partitioning parts_;
    DistContext ctx_;
};

TEST_P(CompressorContract, ShapesAndVolumeBound) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(1);
    for (std::size_t pi = 0; pi < ctx_.plans().size(); ++pi) {
        const auto& plan = ctx_.plans()[pi];
        const Matrix src = Matrix::randn(plan.num_rows(), 8, rng);
        // An EF wrap may resync up to every boundary row verbatim on top
        // of the inner stage's volume; everything else stays under the
        // vanilla per-edge bound alone.
        const std::uint64_t allowance =
            GetParam().ef ? plan.num_rows() * 8 * sizeof(float) : 0;
        Matrix out;
        const auto bytes = comp->forward_rows(ctx_, pi, 0, src, out);
        EXPECT_EQ(out.rows(), src.rows());
        EXPECT_EQ(out.cols(), src.cols());
        EXPECT_LE(bytes, plan.num_edges() * 8 * sizeof(float) + allowance + 16)
            << GetParam().name << " plan " << pi;

        Matrix grad_out;
        const auto bwd_bytes =
            comp->backward_rows(ctx_, pi, 1, src, grad_out);
        EXPECT_EQ(grad_out.rows(), src.rows());
        EXPECT_EQ(grad_out.cols(), src.cols());
        EXPECT_LE(bwd_bytes,
                  plan.num_edges() * 8 * sizeof(float) + allowance + 16);
    }
}

TEST_P(CompressorContract, DeterministicWithinEpoch) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(2);
    const Matrix src = Matrix::randn(ctx_.plans()[0].num_rows(), 4, rng);
    Matrix a, b;
    (void)comp->forward_rows(ctx_, 0, 0, src, a);
    // Delay caches the first transmission; re-ask within the same epoch —
    // the reconstruction the receiver would aggregate must be stable.
    (void)comp->forward_rows(ctx_, 0, 0, src, b);
    EXPECT_TRUE(a == b) << GetParam().name;
}

TEST_P(CompressorContract, ZeroInputZeroOutput) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    const Matrix zeros(ctx_.plans()[0].num_rows(), 4);
    Matrix out;
    (void)comp->forward_rows(ctx_, 0, 0, zeros, out);
    EXPECT_LE(tensor::frobenius_norm(out), 1e-5f) << GetParam().name;
    Matrix grad_out;
    (void)comp->backward_rows(ctx_, 0, 1, zeros, grad_out);
    EXPECT_LE(tensor::frobenius_norm(grad_out), 1e-5f) << GetParam().name;
}

TEST_P(CompressorContract, ReconstructionBoundedByInputScale) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(3);
    const Matrix src = Matrix::randn(ctx_.plans()[0].num_rows(), 4, rng);
    Matrix out;
    (void)comp->forward_rows(ctx_, 0, 0, src, out);
    float in_peak = 0.0f, out_peak = 0.0f;
    for (float v : src.flat()) in_peak = std::max(in_peak, std::abs(v));
    for (float v : out.flat()) out_peak = std::max(out_peak, std::abs(v));
    // Sampling rescales by 1/rate (2x here); nothing should blow up beyond
    // a small constant of the input peak.
    EXPECT_LE(out_peak, 4.0f * in_peak) << GetParam().name;
}

/// The request-path battery, over every stack that has one.
class RequestContract : public CompressorContract {};
/// The adjoint identity, over the linear methods.
class AdjointContract : public CompressorContract {};

/// Every other row of the plan: a request that is neither empty nor the
/// whole plan.
std::vector<std::uint32_t> every_other_row(const dist::PairPlan& plan) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < plan.num_rows(); r += 2) rows.push_back(r);
    return rows;
}

double inner_product(const Matrix& a, const Matrix& b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        sum += static_cast<double>(a.data()[i]) * b.data()[i];
    return sum;
}

TEST_P(AdjointContract, IdentityOnBothPaths) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(4);
    for (std::size_t pi = 0; pi < ctx_.plans().size(); ++pi) {
        const std::vector<std::uint32_t> requested =
            every_other_row(ctx_.plans()[pi]);
        for (const dist::ExchangeRows& rows :
             {dist::ExchangeRows::all(ctx_, pi),
              dist::ExchangeRows::request(ctx_, pi, requested)}) {
            const Matrix x = Matrix::randn(rows.size(), 6, rng);
            const Matrix y = Matrix::randn(rows.size(), 6, rng);
            Matrix fx, bty;
            (void)comp->exchange(ctx_, pi, 0, false, rows, x, fx);
            (void)comp->exchange(ctx_, pi, 0, true, rows, y, bty);
            // ⟨fwd(x), y⟩ = ⟨x, bwd(y)⟩ up to float summation order.
            const double lhs = inner_product(fx, y);
            const double rhs = inner_product(x, bty);
            EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)))
                << GetParam().name << " plan " << pi
                << (rows.is_request() ? " request" : " full");
        }
    }
}

// ------------------------------------------------------ the request half

TEST_P(RequestContract, ShapesAndVolumeBound) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(6);
    for (std::size_t pi = 0; pi < ctx_.plans().size(); ++pi) {
        const std::vector<std::uint32_t> rows =
            every_other_row(ctx_.plans()[pi]);
        const Matrix src = Matrix::randn(rows.size(), 8, rng);
        Matrix out, grad_out;
        // Each requested row ships at most once; an EF wrap may add one
        // resync row per requested row.
        const std::uint64_t bound = rows.size() * 8 * sizeof(float);
        const std::uint64_t allowance = GetParam().ef ? bound : 0;
        const auto bytes = comp->forward_subset(ctx_, pi, 0, rows, src, out);
        EXPECT_EQ(out.rows(), rows.size());
        EXPECT_EQ(out.cols(), src.cols());
        EXPECT_LE(bytes, bound + allowance + 16)
            << GetParam().name << " plan " << pi;
        const auto bwd_bytes =
            comp->backward_subset(ctx_, pi, 1, rows, src, grad_out);
        EXPECT_EQ(grad_out.rows(), rows.size());
        EXPECT_EQ(grad_out.cols(), src.cols());
        EXPECT_LE(bwd_bytes, bound + allowance + 16)
            << GetParam().name << " plan " << pi;
    }
}

TEST_P(RequestContract, AllRowsArePricedPerRowNotPerEdge) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(7);
    // The plan with the most cross edges per row separates the two
    // pricing models most sharply.
    std::size_t pi = 0;
    for (std::size_t p = 1; p < ctx_.plans().size(); ++p)
        if (ctx_.plans()[p].num_edges() * ctx_.plans()[pi].num_rows() >
            ctx_.plans()[pi].num_edges() * ctx_.plans()[p].num_rows())
            pi = p;
    const dist::PairPlan& plan = ctx_.plans()[pi];
    ASSERT_GT(plan.num_edges(), plan.num_rows());
    std::vector<std::uint32_t> all(plan.num_rows());
    for (std::uint32_t r = 0; r < plan.num_rows(); ++r) all[r] = r;
    const Matrix src = Matrix::randn(plan.num_rows(), 8, rng);
    Matrix out;
    const std::uint64_t per_row = plan.num_rows() * 8 * sizeof(float);
    const std::uint64_t allowance = GetParam().ef ? per_row : 0;
    const auto bytes = comp->forward_subset(ctx_, pi, 0, all, src, out);
    EXPECT_LE(bytes, per_row + allowance + 16) << GetParam().name;
    if (GetParam().name == "vanilla") {
        EXPECT_EQ(bytes, per_row);
        EXPECT_EQ(comp->forward_rows(ctx_, pi, 0, src, out),
                  plan.num_edges() * 8 * sizeof(float));
    }
}

TEST_P(RequestContract, DeterministicWithinEpoch) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    Rng rng(8);
    const std::vector<std::uint32_t> rows = every_other_row(ctx_.plans()[0]);
    const Matrix src = Matrix::randn(rows.size(), 4, rng);
    Matrix a, b, ga, gb;
    const auto bytes_a = comp->forward_subset(ctx_, 0, 0, rows, src, a);
    const auto bytes_b = comp->forward_subset(ctx_, 0, 0, rows, src, b);
    EXPECT_TRUE(a == b) << GetParam().name;
    EXPECT_EQ(bytes_a, bytes_b) << GetParam().name;
    (void)comp->backward_subset(ctx_, 0, 1, rows, src, ga);
    (void)comp->backward_subset(ctx_, 0, 1, rows, src, gb);
    EXPECT_TRUE(ga == gb) << GetParam().name;
}

TEST_P(RequestContract, ZeroInputZeroOutput) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    const std::vector<std::uint32_t> rows = every_other_row(ctx_.plans()[0]);
    const Matrix zeros(rows.size(), 4);
    Matrix out, grad_out;
    (void)comp->forward_subset(ctx_, 0, 0, rows, zeros, out);
    EXPECT_LE(tensor::frobenius_norm(out), 1e-5f) << GetParam().name;
    (void)comp->backward_subset(ctx_, 0, 1, rows, zeros, grad_out);
    EXPECT_LE(tensor::frobenius_norm(grad_out), 1e-5f) << GetParam().name;
}

TEST_P(RequestContract, RowsMustAscendAndStayInRange) {
    auto comp = GetParam().make();
    comp->setup(ctx_);
    comp->begin_epoch(0);
    const std::uint32_t n = ctx_.plans()[0].num_rows();
    ASSERT_GE(n, 2u);
    const Matrix src(2, 4);
    Matrix out;
    const std::vector<std::uint32_t> descending = {1, 0};
    const std::vector<std::uint32_t> out_of_range = {0, n};
    EXPECT_THROW((void)comp->forward_subset(ctx_, 0, 0, descending, src, out),
                 Error);
    EXPECT_THROW(
        (void)comp->forward_subset(ctx_, 0, 0, out_of_range, src, out), Error);
}

TEST_P(CompressorContract, NameIsNonEmpty) {
    EXPECT_FALSE(GetParam().make()->name().empty());
}

const auto case_label = [](const auto& param_info) {
    return param_info.param.name;
};
INSTANTIATE_TEST_SUITE_P(All, CompressorContract, ::testing::ValuesIn(cases()),
                         case_label);
INSTANTIATE_TEST_SUITE_P(All, RequestContract,
                         ::testing::ValuesIn(request_cases()), case_label);
INSTANTIATE_TEST_SUITE_P(Linear, AdjointContract,
                         ::testing::ValuesIn(make_cases(
                             {{"vanilla", "vanilla"},
                              {"sampling", "sampling"},
                              {"semantic", "ours"}})),
                         case_label);

// Delay replays a plan's cached full block and has no request path: both
// request methods throw instead of shipping rows under its name.
TEST(CompressorContract, DelayRequestPathThrows) {
    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, data.graph, 2, 5);
    const DistContext ctx(data, parts, gnn::AdjNorm::kSymmetric);
    auto delay = dist::make_compressor("delay", contract_options());
    delay->setup(ctx);
    delay->begin_epoch(0);
    const std::vector<std::uint32_t> rows = {0};
    const Matrix src(1, 4);
    Matrix out;
    EXPECT_THROW((void)delay->forward_subset(ctx, 0, 0, rows, src, out), Error);
    EXPECT_THROW((void)delay->backward_subset(ctx, 0, 1, rows, src, out),
                 Error);
}

// The EF wrapper's wire charge must decompose exactly: inner-stage bytes
// for the same payload, plus f·4 bytes for every resync row it delivered.
// At epoch 0 the residual store is all-zero, so the payload the wrapper
// hands its inner stage is bitwise the raw source — running the bare
// inner stack on the same input pins the first term independently.
TEST(CompressorContract, EfWireBytesAreInnerPlusResyncRows) {
    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 7);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, data.graph, 2, 5);
    const DistContext ctx(data, parts, gnn::AdjNorm::kSymmetric);

    auto inner = dist::make_compressor("ours+quant", contract_options());
    auto wrapped = dist::make_compressor("ef+ours+quant", contract_options());
    auto* ef = dynamic_cast<dist::ErrorFeedbackCompressor*>(wrapped.get());
    ASSERT_NE(ef, nullptr);
    inner->setup(ctx);
    wrapped->setup(ctx);
    inner->begin_epoch(0);
    wrapped->begin_epoch(0);

    Rng rng(11);
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
        const Matrix src = Matrix::randn(ctx.plans()[pi].num_rows(), 8, rng);
        Matrix a, b;
        const std::uint64_t before = ef->recovered_bytes();
        const auto inner_bytes = inner->forward_rows(ctx, pi, 0, src, a);
        const auto ef_bytes = wrapped->forward_rows(ctx, pi, 0, src, b);
        EXPECT_EQ(ef_bytes, inner_bytes + (ef->recovered_bytes() - before))
            << "plan " << pi;
    }
}

// ------------------------------------------------------- factory contract

TEST(CompressorFactory, EveryAdvertisedNameConstructs) {
    for (const std::string& name : dist::compressor_names()) {
        const auto comp = dist::make_compressor(name);
        ASSERT_NE(comp, nullptr) << name;
        EXPECT_FALSE(comp->name().empty()) << name;
    }
}

TEST(CompressorFactory, UnknownNameThrowsWithNameList) {
    try {
        (void)dist::make_compressor("topk");
        FAIL() << "expected Error for unknown compressor name";
    } catch (const Error& e) {
        // The message should both echo the bad name and list the options.
        EXPECT_NE(std::string(e.what()).find("topk"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("vanilla"), std::string::npos);
    }
    EXPECT_THROW((void)dist::make_compressor(""), Error);
    EXPECT_THROW((void)dist::make_compressor("ours+"), Error);
}

TEST(CompressorFactory, ComposedNameBuildsStagesInOrder) {
    const auto comp = dist::make_compressor("ours+quant", contract_options());
    ASSERT_NE(dynamic_cast<ComposedCompressor*>(comp.get()), nullptr);
    // ComposedCompressor::name() joins its stages with '+' in stage order.
    EXPECT_EQ(comp->name(), "ours+quant");
}

TEST(CompressorFactory, EfPrefixWrapsTheInnerStack) {
    const auto comp =
        dist::make_compressor("ef+ours+quant", contract_options());
    auto* ef = dynamic_cast<dist::ErrorFeedbackCompressor*>(comp.get());
    ASSERT_NE(ef, nullptr);
    // name() reports the full stack, wrapper first.
    EXPECT_EQ(comp->name(), "ef+ours+quant");
}

TEST(CompressorFactory, OptionsReachTheCompressor) {
    dist::CompressorOptions opts;
    opts.delay = {.period = 4};
    const auto delay = dist::make_compressor("delay", opts);
    ASSERT_NE(dynamic_cast<baselines::DelayCompressor*>(delay.get()), nullptr);
    opts.semantic.grouping.kmeans_k = 6;
    const auto ours = dist::make_compressor("ours", opts);
    ASSERT_NE(dynamic_cast<SemanticCompressor*>(ours.get()), nullptr);
    EXPECT_EQ(ours->name(), "ours");
}

TEST(CompressorFactory, MethodEnumRoundTripsThroughKeys) {
    for (const Method m : all_methods()) {
        Method back{};
        ASSERT_TRUE(parse_method(method_key(m), back)) << method_key(m);
        EXPECT_EQ(back, m);
    }
    Method out{};
    EXPECT_FALSE(parse_method("semantic", out));  // the key is "ours"
}

} // namespace
} // namespace scgnn::core
