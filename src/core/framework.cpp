#include "scgnn/core/framework.hpp"

#include "scgnn/dist/factory.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace scgnn::core {

const char* to_string(Method m) noexcept {
    switch (m) {
        case Method::kVanilla: return "Vanilla.";
        case Method::kSampling: return "Samp.";
        case Method::kQuant: return "Quant.";
        case Method::kDelay: return "Delay.";
        case Method::kSemantic: return "Ours";
    }
    return "?";
}

const char* method_key(Method m) noexcept {
    switch (m) {
        case Method::kVanilla: return "vanilla";
        case Method::kSampling: return "sampling";
        case Method::kQuant: return "quant";
        case Method::kDelay: return "delay";
        case Method::kSemantic: return "ours";
    }
    return "?";
}

bool parse_method(const std::string& key, Method& out) noexcept {
    for (const Method m : {Method::kVanilla, Method::kSampling, Method::kQuant,
                           Method::kDelay, Method::kSemantic}) {
        if (key == method_key(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

std::unique_ptr<dist::BoundaryCompressor> make_compressor(
    const MethodConfig& cfg) {
    return dist::make_compressor(
        cfg.name.empty() ? method_key(cfg.method) : cfg.name, cfg);
}

// ------------------------------------------------------- ComposedCompressor

ComposedCompressor::ComposedCompressor(
    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages)
    : stages_(std::move(stages)) {
    SCGNN_CHECK(!stages_.empty(), "composition needs at least one stage");
    for (const auto& s : stages_)
        SCGNN_CHECK(s != nullptr, "null stage in composition");
}

std::string ComposedCompressor::name() const {
    std::string n = stages_[0]->name();
    for (std::size_t i = 1; i < stages_.size(); ++i) {
        n += '+';
        n += stages_[i]->name();
    }
    return n;
}

void ComposedCompressor::setup(const dist::DistContext& ctx) {
    for (auto& s : stages_) s->setup(ctx);
}

void ComposedCompressor::begin_epoch(std::uint64_t epoch) {
    for (auto& s : stages_) s->begin_epoch(epoch);
}

void ComposedCompressor::apply_rate(double fidelity) {
    for (auto& s : stages_) s->apply_rate(fidelity);
}

std::uint64_t ComposedCompressor::state_bytes(std::uint32_t part) const {
    std::uint64_t bytes = 0;
    for (const auto& s : stages_) bytes += s->state_bytes(part);
    return bytes;
}

std::uint64_t ComposedCompressor::chain(const dist::DistContext& ctx,
                                        std::size_t plan_idx, int layer,
                                        bool backward,
                                        const dist::ExchangeRows& rows,
                                        const tensor::Matrix& in,
                                        tensor::Matrix& out) {
    const double vanilla_bytes =
        static_cast<double>(rows.verbatim_rows()) * in.cols() * sizeof(float);
    // Backward runs the adjoint order: last forward stage first. Each
    // stage reads the previous one's output; the last writes `out`.
    const std::size_t n = stages_.size();
    stage_bytes_.assign(n, 0.0);
    const tensor::Matrix* cur = &in;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = backward ? n - 1 - k : k;
        tensor::Matrix& next = k + 1 == n ? out : buf_[k % 2];
        stage_bytes_[i] = static_cast<double>(stages_[i]->exchange(
            ctx, plan_idx, layer, backward, rows, *cur, next));
        cur = &next;
    }
    // Stage 0 owns the wire representation (base volume); later stages
    // contribute the ratio of their bytes to the vanilla volume.
    double bytes = stage_bytes_[0];
    for (std::size_t i = 1; i < n; ++i)
        if (vanilla_bytes > 0.0) bytes *= stage_bytes_[i] / vanilla_bytes;
    return static_cast<std::uint64_t>(bytes);
}

// ----------------------------------------------------------------- Pipeline

namespace detail {

namespace {

/// Read grouping figures off a (live or reference) semantic compressor.
void read_grouping_stats(PipelineResult& res, const dist::DistContext& ctx,
                         const SemanticCompressor& sem) {
    res.wire_rows = sem.total_wire_rows();
    std::uint64_t edges_in_groups = 0;
    std::uint32_t groups = 0;
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
        const Grouping& g = sem.grouping(pi);
        groups += static_cast<std::uint32_t>(g.groups.size());
        edges_in_groups += g.grouped_edges();
    }
    res.num_groups = groups;
    res.mean_group_size =
        groups == 0 ? 0.0 : static_cast<double>(edges_in_groups) / groups;
}

} // namespace

void fill_semantic_stats(PipelineResult& res, const dist::DistContext& ctx,
                         const MethodConfig& method,
                         const dist::BoundaryCompressor* comp) {
    res.cross_edges = ctx.total_cross_edges();
    // Static semantic statistics of this partitioning (cheap to recompute
    // when the training method was a baseline).
    if (method.plain_semantic() && comp != nullptr) {
        const auto* sem = dynamic_cast<const SemanticCompressor*>(comp);
        SCGNN_ASSERT(sem != nullptr,
                     "semantic method without SemanticCompressor");
        read_grouping_stats(res, ctx, *sem);
    } else {
        SemanticCompressor sem(method.semantic);
        sem.setup(ctx);
        read_grouping_stats(res, ctx, sem);
    }
    res.compression_ratio =
        res.wire_rows == 0
            ? 1.0
            : static_cast<double>(res.cross_edges) /
                  static_cast<double>(res.wire_rows);
}

} // namespace detail

PipelineResult run_pipeline(const graph::Dataset& data,
                            const PipelineConfig& cfg) {
    // The pipeline is the train-mode scenario, so the CLI and this entry
    // point run one body.
    runtime::ScenarioConfig scn;
    scn.pipeline = cfg;
    return runtime::Scenario::build(std::move(scn)).run(data).pipeline;
}

} // namespace scgnn::core
