// The paper-reproduction bench: every table and figure of the evaluation
// (Tables 1-2, Figs. 1(b), 2, 4, 6, 9-12), the ablations, setup
// amortisation, overlap pricing and fault resilience, and the system
// sweeps the paper's tables leave out (weight-sync collectives, rate
// schedules, elastic churn, serving, thread scaling), each an entry of one
// figure table (`--figure <id>[,<id>...]`, default all). Stdout: markdown
// tables, then `claim <id>: holds|FAILS — <text>` per headline claim of the
// paper and `gate <id>: ...` per system gate. --json: one
// google-benchmark row per (figure, dataset, series, metric), e.g.
// `fig9/reddit-sim/ours/volume_fraction`, whose `real_time` is the wall
// time (ns) of the run behind it; `value` holds a figure that is bitwise
// equal at any thread count (MB from bytes, modelled comm ms, accuracy,
// counts, ratios) and `measured` a host-measured one (epoch and compute
// ms, shares, setup, the overlap makespan, run walls). `claim/<id>` rows
// hold 1 (holds) or 0, for claims and gates alike. No claim rests on
// epoch time, which is wall time ÷ P and so host-dependent. Exit code: 1
// if any gate fails (after printing and writing the JSON), 2 on bad
// flags, else 0; a failing paper claim never changes it.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <string_view>
#include <thread>
#include <tuple>
#include <variant>

#include "bench_util.hpp"

#include "scgnn/common/stats.hpp"
#include "scgnn/common/timer.hpp"
#include "scgnn/comm/collective.hpp"
#include "scgnn/core/analysis.hpp"
#include "scgnn/core/elbow.hpp"
#include "scgnn/core/grouping.hpp"
#include "scgnn/core/kmeans.hpp"
#include "scgnn/core/semantic_aggregate.hpp"
#include "scgnn/dist/rate_control.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/obs/json.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/tensor/ops.hpp"

namespace {

using namespace scgnn;
using core::Method;
using graph::Dataset;
using graph::DatasetPreset;
using partition::PartitionAlgo;

// ---- rows, tables and the run state -------------------------------------

/// One output row: a modelled `value` or a host-`measured` figure, with
/// the wall time of the run that produced it.
struct Row {
    std::string name;
    double real_ns;
    bool modelled;
    double figure;
};

/// The rows of one run, named `<prefix>/<metric>`, sharing its wall time.
class Rows {
public:
    Rows(std::vector<Row>& out, std::string prefix, double wall_ns)
        : out_(&out), prefix_(std::move(prefix)), wall_ns_(wall_ns) {}
    /// A deterministic figure, diffed exactly against the snapshot.
    const Rows& value(std::string_view metric, double v) const {
        return add(metric, true, v);
    }
    /// A host-measured figure, recorded but never diffed.
    const Rows& measured(std::string_view metric, double v) const {
        return add(metric, false, v);
    }

private:
    const Rows& add(std::string_view metric, bool modelled, double v) const {
        out_->push_back({prefix_ + "/" + std::string(metric), wall_ns_,
                         modelled, v});
        return *this;
    }
    std::vector<Row>* out_;
    std::string prefix_;
    double wall_ns_;
};

/// How a numeric column prints: a count, a percentage, a ratio with an
/// "x" suffix, or a number at the column's precision.
enum class Fmt : std::uint8_t { kCount, kPct, kX, kNum };

/// A table column. Its numeric cells are recorded as `metric` (none:
/// shown only, e.g. because train() records the figure already);
/// `measured` marks a host-dependent figure.
struct Col {
    const char* header;
    const char* metric = nullptr;
    Fmt fmt = Fmt::kNum;
    int prec = 2;
    bool measured = false;
};

/// A table cell: text, or a figure that its column formats and records.
/// A NaN figure prints "-" and records nothing.
using Cell = std::variant<std::string, double>;

/// A markdown table whose numeric cells are also recorded as rows.
class Sheet {
public:
    explicit Sheet(std::vector<Col> cols)
        : cols_(std::move(cols)), table_(headers(cols_)) {}

    void row(const Rows& rows, const std::vector<Cell>& cells) {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < cols_.size(); ++i) {
            const Col& c = cols_[i];
            const auto* text = std::get_if<std::string>(&cells[i]);
            const double v = text ? 0.0 : std::get<double>(cells[i]);
            if (text || std::isnan(v)) {
                out.push_back(text ? *text : "-");
                continue;
            }
            if (c.metric && c.measured) rows.measured(c.metric, v);
            if (c.metric && !c.measured) rows.value(c.metric, v);
            switch (c.fmt) {
                case Fmt::kCount:
                    out.push_back(Table::num(static_cast<std::uint64_t>(v)));
                    break;
                case Fmt::kPct: out.push_back(Table::pct(v)); break;
                case Fmt::kX: out.push_back(Table::num(v, c.prec) + "x"); break;
                case Fmt::kNum: out.push_back(Table::num(v, c.prec)); break;
            }
        }
        table_.add_row(std::move(out));
    }
    [[nodiscard]] std::string str() const { return table_.str(); }

private:
    static std::vector<std::string> headers(const std::vector<Col>& cols) {
        std::vector<std::string> h;
        for (const Col& c : cols) h.emplace_back(c.header);
        return h;
    }
    std::vector<Col> cols_;
    Table table_;
};

/// A timed training run and the rows it recorded.
struct Trained {
    dist::DistTrainResult r;
    Rows rows;
};

double ns_since(const WallTimer& t) { return t.seconds() * 1e9; }

/// True when `v` strictly falls along the sequence (a NaN never does).
bool strictly_falling(const std::vector<double>& v) {
    for (std::size_t i = 1; i < v.size(); ++i)
        if (!(v[i] < v[i - 1])) return false;
    return true;
}

/// Method config with the paper's semantic defaults (k=20); the
/// baselines keep their library defaults until a figure sets them.
core::MethodConfig method_cfg(Method method) {
    core::MethodConfig m;
    m.method = method;
    m.semantic = benchutil::semantic_cfg();
    return m;
}

/// A grouping config at k groups and `seed`, other knobs at defaults.
core::GroupingConfig grouping_cfg(std::uint32_t k, std::uint64_t seed) {
    core::GroupingConfig gc;
    gc.kmeans_k = k;
    gc.seed = seed;
    return gc;
}

/// The M2M sources of a DBG: the pool the grouping stage clusters.
std::vector<std::uint32_t> m2m_pool(const graph::Dbg& dbg) {
    const auto cls = core::classify_sources(dbg);
    std::vector<std::uint32_t> pool;
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == graph::ConnectionType::kM2M) pool.push_back(u);
    return pool;
}

/// The k-means elbow sweep k = 2, 4, …, min(32, |pool|).
core::ElbowResult elbow(const graph::Dbg& dbg,
                        const std::vector<std::uint32_t>& pool,
                        std::uint64_t seed) {
    core::ElbowConfig ec;
    ec.k_min = 2;
    ec.k_max = std::min<std::uint32_t>(
        32, static_cast<std::uint32_t>(pool.size()));
    ec.k_step = 2;
    ec.kmeans.seed = seed;
    return core::find_eep_dbg(dbg, pool, ec);
}

/// The DBG's source rows as real node features: the transported
/// embeddings of the approximation-error ablations. They carry the
/// community structure a good grouping preserves; random vectors would
/// make every grouping look alike.
tensor::Matrix source_features(const Dataset& d, const graph::Dbg& dbg) {
    tensor::Matrix h(dbg.num_src(), d.features.cols());
    for (std::uint32_t i = 0; i < dbg.num_src(); ++i) {
        const auto src = d.features.row(dbg.src_nodes[i]);
        std::copy(src.begin(), src.end(), h.row(i).begin());
    }
    return h;
}

/// State of one run: options, cached datasets, rows and claims.
class Paper {
public:
    explicit Paper(benchutil::Options o) : opt(std::move(o)) {}

    const benchutil::Options opt;
    [[nodiscard]] std::uint32_t epochs() const {
        return opt.scn.pipeline.train.epochs;
    }
    std::string figure;     ///< id of the running figure
    WallTimer figure_time;  ///< restarted as each figure starts
    std::vector<Row> rows;
    std::vector<std::string> claims;  ///< printed after every figure
    std::vector<std::string> failed_gates;

    /// The preset at the run's scale and seed, built once.
    const Dataset& dataset(DatasetPreset preset) {
        return dataset(preset, opt.scale, opt.seed);
    }
    /// The preset at a figure's own fixed scale and seed, built once.
    const Dataset& dataset(DatasetPreset preset, double scale,
                           std::uint64_t seed) {
        const auto key = std::tuple{preset, scale, seed};
        auto it = datasets_.find(key);
        if (it == datasets_.end())
            it = datasets_
                     .emplace(key, graph::make_dataset(preset, scale, seed))
                     .first;
        return it->second;
    }
    /// Every preset, in all_presets() order.
    std::vector<std::reference_wrapper<const Dataset>> datasets() {
        std::vector<std::reference_wrapper<const Dataset>> all;
        for (DatasetPreset preset : graph::all_presets())
            all.emplace_back(dataset(preset));
        return all;
    }
    [[nodiscard]] partition::Partitioning partition(
        const graph::Graph& g, std::uint32_t parts,
        PartitionAlgo algo = PartitionAlgo::kNodeCut) const {
        return partition::make_partitioning(algo, g, parts, opt.seed);
    }
    /// The shared train config at `epochs`, per-epoch records off.
    [[nodiscard]] dist::DistTrainConfig train_cfg(std::uint32_t epochs) const {
        dist::DistTrainConfig cfg = opt.scn.pipeline.train;
        cfg.epochs = epochs;
        cfg.record_epochs = false;
        return cfg;
    }
    /// Rows of one run, named `<figure>/<dataset>/<series>/<metric>`.
    Rows series(const std::string& dataset, const std::string& name,
                double wall_ns) {
        return {rows, figure + "/" + dataset + "/" + name, wall_ns};
    }
    /// Record a headline claim's verdict as the row `claim/<id>` (value
    /// 1 if it holds), timed by its figure so far.
    void claim(const char* id, const char* text, bool holds) {
        verdict("claim", id, text, holds);
    }
    /// Record a system gate like a claim; a failing one also makes the
    /// run exit 1 once everything is printed and written.
    void gate(const char* id, const char* text, bool holds) {
        verdict("gate", id, text, holds);
        if (!holds) failed_gates.emplace_back(id);
    }

    /// Train once; record comm_mb, comm_ms and test_acc (modelled) and
    /// epoch_ms (measured) under `<figure>/<dataset>/<name>`.
    Trained train(const std::string& name, const Dataset& d,
                  const partition::Partitioning& parts,
                  const dist::DistTrainConfig& cfg,
                  dist::BoundaryCompressor& comp) {
        const WallTimer t;
        dist::DistTrainResult r = runtime::Scenario::for_training(cfg).train(
            d, parts, benchutil::model_for(opt, d), comp);
        Rows out = series(d.name, name, ns_since(t));
        out.value("comm_mb", r.mean_comm_mb)
            .value("comm_ms", r.mean_comm_ms)
            .value("test_acc", r.test_accuracy)
            .measured("epoch_ms", r.mean_epoch_ms);
        return {std::move(r), std::move(out)};
    }
    Trained train(const std::string& name, const Dataset& d,
                  const partition::Partitioning& parts,
                  const dist::DistTrainConfig& cfg,
                  const core::MethodConfig& m) {
        return train(name, d, parts, cfg, *core::make_compressor(m));
    }

private:
    void verdict(const char* kind, const char* id, const char* text,
                 bool holds) {
        rows.push_back({std::string("claim/") + id, ns_since(figure_time),
                        true, holds ? 1.0 : 0.0});
        claims.push_back(std::string(kind) + " " + id + ": " +
                         (holds ? "holds" : "FAILS") + " — " + text);
    }

    std::map<std::tuple<DatasetPreset, double, std::uint64_t>, Dataset>
        datasets_;
};

// ---- figures -------------------------------------------------------------

void fig1b(Paper& p) {
    std::printf("== Fig. 1(b): epoch-time breakdown, comm vs compute "
                "(4 partitions, node-cut) ==\n");
    Sheet table({{"dataset"}, {"method"}, {"epoch ms", nullptr, Fmt::kNum, 1},
                 {"comm share", "comm_share", Fmt::kPct, 2, true},
                 {"compute share", "compute_share", Fmt::kPct, 2, true}});
    for (const Dataset& d : p.datasets()) {
        const auto parts = p.partition(d.graph, 4);
        const auto cfg = p.train_cfg(std::max(5u, p.epochs() / 3));
        for (Method method :
             {Method::kVanilla, Method::kSampling, Method::kSemantic}) {
            core::MethodConfig m = method_cfg(method);
            m.sampling.rate = 0.1;
            const Trained t =
                p.train(core::method_key(method), d, parts, cfg, m);
            table.row(t.rows, {d.name, core::to_string(method),
                               t.r.mean_epoch_ms,
                               t.r.mean_comm_ms / t.r.mean_epoch_ms,
                               t.r.mean_compute_ms / t.r.mean_epoch_ms});
        }
    }
    std::printf("\n%s\n", table.str().c_str());
}

// The sparse preset is where per-edge decaying visibly costs accuracy.
void fig2b(Paper& p) {
    const Dataset& d = p.dataset(DatasetPreset::kPubMedSim);
    benchutil::print_dataset(d);
    const auto parts = p.partition(d.graph, 4);
    const auto cfg = p.train_cfg(p.epochs());
    const double vanilla_mb =
        p.train("vanilla", d, parts, cfg, method_cfg(Method::kVanilla))
            .r.mean_comm_mb;

    std::printf("== Fig. 2(b): volume/accuracy Pareto of per-edge decaying "
                "methods (pubmed-sim, 4 partitions) ==\n");
    Sheet table({{"method"}, {"knob"},
                 {"volume fraction", "volume_fraction", Fmt::kPct},
                 {"test acc", nullptr, Fmt::kPct}});
    auto point = [&](const std::string& knob, const core::MethodConfig& m) {
        const std::string key = core::method_key(m.method);
        const Trained t = p.train(key + "@" + knob, d, parts, cfg, m);
        table.row(t.rows, {core::to_string(m.method), knob,
                           t.r.mean_comm_mb / vanilla_mb, t.r.test_accuracy});
    };
    core::MethodConfig m = method_cfg(Method::kSampling);
    for (double rate : {0.5, 0.2, 0.1, 0.05, 0.02}) {
        m.sampling.rate = rate;
        point("rate=" + Table::num(rate, 2), m);
    }
    m.method = Method::kQuant;
    for (int bits : {16, 8, 4}) {
        m.quant.bits = bits;
        point("bits=" + std::to_string(bits), m);
    }
    m.method = Method::kDelay;
    for (std::uint32_t tau : {2u, 4u, 8u, 16u, 32u}) {
        m.delay.period = tau;
        point("tau=" + std::to_string(tau), m);
    }
    point("k=20", method_cfg(Method::kSemantic));
    std::printf("\n%s\n", table.str().c_str());
}

void fig2d(Paper& p) {
    std::printf("== Fig. 2(d): connection-type mix of cross-partition edges "
                "(node-cut, 4 partitions) ==\n");
    Sheet table({{"dataset"}, {"cross edges", "cross_edges", Fmt::kCount},
                 {"O2O", "o2o", Fmt::kPct}, {"O2M", "o2m", Fmt::kPct},
                 {"M2O", "m2o", Fmt::kPct}, {"M2M", "m2m", Fmt::kPct},
                 {"M2M-family", "m2m_family", Fmt::kPct}});
    using CT = graph::ConnectionType;
    std::map<double, double, std::greater<>> share_by_degree;
    for (const Dataset& d : p.datasets()) {
        benchutil::print_dataset(d);
        const WallTimer t;
        const graph::ConnectionMix mix = graph::connection_mix(
            d.graph, p.partition(d.graph, 4).part_of, 4);
        const double family = mix.fraction(CT::kO2M) +
                              mix.fraction(CT::kM2O) + mix.fraction(CT::kM2M);
        share_by_degree[d.graph.average_degree()] = family;
        const Rows rows = p.series(d.name, "mix", ns_since(t));
        rows.value("avg_degree", d.graph.average_degree());
        table.row(rows, {d.name, double(mix.total()), mix.fraction(CT::kO2O),
                         mix.fraction(CT::kO2M), mix.fraction(CT::kM2O),
                         mix.fraction(CT::kM2M), family});
    }
    std::printf("\n%s\n", table.str().c_str());
    std::vector<double> shares;
    for (const auto& [degree, share] : share_by_degree) shares.push_back(share);
    p.claim("fig2d_m2m_orders_by_degree",
            "the M2M-family share falls with average degree across the "
            "presets",
            strictly_falling(shares));
}

void fig4a(Paper& p) {
    std::printf("== Fig. 4(a): window-sliding similarity (64-bit rows, "
                "16-bit window) ==\n");
    const std::uint32_t width = 64, window = 16;
    std::vector<std::uint32_t> fixed;
    for (std::uint32_t i = 24; i < 24 + window; ++i) fixed.push_back(i);
    Sheet slide({{"offset", nullptr, Fmt::kCount},
                 {"overlap", "overlap", Fmt::kCount},
                 {"jaccard", "jaccard", Fmt::kNum, 4},
                 {"semantic", "semantic", Fmt::kNum, 4},
                 {"semantic/jaccard", "ratio"}});
    std::vector<std::pair<double, double>> ratios;  // (overlap, ratio)
    for (std::uint32_t off = 0; off + window <= width; off += 4) {
        const WallTimer t;
        std::vector<std::uint32_t> sliding;
        for (std::uint32_t i = off; i < off + window; ++i)
            sliding.push_back(i);
        const double j = core::jaccard_similarity(fixed, sliding);
        const double s = core::semantic_similarity(fixed, sliding);
        const double overlap =
            double(core::intersection_size(fixed, sliding));
        if (j > 0) ratios.emplace_back(overlap, s / j);
        slide.row(p.series("window", "off=" + std::to_string(off),
                           ns_since(t)),
                  {double(off), overlap, j, s, j > 0 ? s / j : NAN});
    }
    std::printf("%s\n", slide.str().c_str());
    bool rises = ratios.size() >= 2;
    for (const auto& [overlap_a, ratio_a] : ratios)
        for (const auto& [overlap_b, ratio_b] : ratios)
            if (overlap_a < overlap_b && !(ratio_a < ratio_b)) rises = false;
    p.claim("fig4a_ratio_rises_with_overlap",
            "the semantic/Jaccard ratio strictly rises with window overlap",
            rises);
}

void fig4b(Paper& p) {
    std::printf("== Fig. 4(b): group-number traversal (k-means inertia, "
                "node-cut, partition pair 0->1) ==\n");
    for (const Dataset& d : p.datasets()) {
        const WallTimer t;
        const graph::Dbg dbg = graph::extract_dbg(
            d.graph, p.partition(d.graph, 4).part_of, 0, 1);
        if (dbg.num_edges() == 0) continue;
        const auto pool = m2m_pool(dbg);
        if (pool.size() < 4) continue;
        const core::ElbowResult e = elbow(dbg, pool, p.opt.seed);
        const double wall = ns_since(t);
        p.series(d.name, "eep", wall)
            .value("pool", double(pool.size()))
            .value("k", e.best_k);

        std::printf("%s (M2M pool %zu sources):\n", d.name.c_str(),
                    pool.size());
        Sheet curve({{"k", nullptr, Fmt::kCount},
                     {"inertia", "inertia", Fmt::kNum, 1},
                     {"curvature", "curvature", Fmt::kNum, 3}, {"EEP"}});
        for (std::size_t i = 0; i < e.ks.size(); ++i)
            curve.row(p.series(d.name, "k=" + std::to_string(e.ks[i]), wall),
                      {double(e.ks[i]), e.inertia[i], e.curvature[i],
                       e.ks[i] == e.best_k ? "<== EEP" : ""});
        std::printf("%s\n", curve.str().c_str());
    }
}

// Cohesion: within- over between-group semantic similarity.
void fig6(Paper& p) {
    std::printf("== Fig. 6: grouping quality (node-cut, 4 partitions, "
                "pair 0->1, k=20) ==\n");
    Sheet table({{"dataset"}, {"pool", "pool", Fmt::kCount},
                 {"jaccard cohesion"}, {"semantic cohesion"},
                 {"semantic wins"}});
    // Zero inter-group similarity (perfectly separated pools) makes the
    // cohesion ratio explode; clamp it for display.
    auto fmt_cohesion = [](double c) {
        return c > 9999.0 ? std::string(">9999") : Table::num(c, 2);
    };
    bool semantic_wins = true;
    for (const Dataset& d : p.datasets()) {
        const WallTimer t;
        const graph::Dbg dbg = graph::extract_dbg(
            d.graph, p.partition(d.graph, 4).part_of, 0, 1);
        const auto pool = m2m_pool(dbg);
        if (pool.size() < 8) {
            table.row(p.series(d.name, "grouping", ns_since(t)),
                      {d.name, double(pool.size()), "-", "-",
                       "pool too small"});
            continue;
        }
        const auto k = std::min<std::uint32_t>(
            20, static_cast<std::uint32_t>(pool.size() / 2));
        auto cohesion = [&](core::SimilarityKind kind) {
            core::GroupingConfig gc = grouping_cfg(k, p.opt.seed);
            gc.kind = kind;
            return core::evaluate_grouping(dbg, core::build_grouping(dbg, gc))
                .cohesion_ratio;
        };
        const double coh_j = cohesion(core::SimilarityKind::kJaccard);
        const double coh_s = cohesion(core::SimilarityKind::kSemantic);
        semantic_wins = semantic_wins && coh_s > coh_j;
        const Rows rows = p.series(d.name, "grouping", ns_since(t));
        rows.value("jaccard_cohesion", coh_j)
            .value("semantic_cohesion", coh_s);
        table.row(rows, {d.name, double(pool.size()), fmt_cohesion(coh_j),
                         fmt_cohesion(coh_s), coh_s > coh_j ? "yes" : "no"});
    }
    std::printf("\n%s\n", table.str().c_str());
    p.claim("fig6_semantic_more_cohesive",
            "semantic grouping is more cohesive than Jaccard on every "
            "preset with an M2M pool of at least 8 sources",
            semantic_wins);
}

// Baselines at their paper-typical points: rate 0.1, 8-bit, τ=4.
void fig9(Paper& p) {
    std::printf("== Fig. 9: normalised per-epoch traffic (4 partitions, "
                "node-cut) ==\n");
    Table table({"dataset", "vanilla MB", "samp.", "quant.", "delay", "ours",
                 "ours ratio"});
    const WallTimer fig_t;
    double ours_gain_sum = 0.0, reddit_fraction = 1.0;
    for (const Dataset& d : p.datasets()) {
        benchutil::print_dataset(d);
        const auto parts = p.partition(d.graph, 4);
        // Volume needs few epochs.
        const auto cfg = p.train_cfg(std::max(4u, p.epochs() / 4));
        core::MethodConfig m = method_cfg(Method::kVanilla);
        m.sampling.rate = 0.1;
        m.quant.bits = 8;
        m.delay.period = 4;
        const double vanilla =
            p.train("vanilla", d, parts, cfg, m).r.mean_comm_mb;
        auto volume = [&](Method method) {
            m.method = method;
            const Trained t =
                p.train(core::method_key(method), d, parts, cfg, m);
            t.rows.value("volume_fraction", t.r.mean_comm_mb / vanilla);
            return t.r.mean_comm_mb;
        };
        const double samp = volume(Method::kSampling);
        const double quant = volume(Method::kQuant);
        const double delay = volume(Method::kDelay);
        const double ours = volume(Method::kSemantic);
        table.add_row({d.name, Table::num(vanilla, 2),
                       Table::pct(samp / vanilla), Table::pct(quant / vanilla),
                       Table::pct(delay / vanilla), Table::pct(ours / vanilla),
                       Table::num(vanilla / ours, 1) + "x"});
        ours_gain_sum += std::min({samp, quant, delay}) / ours;
        if (d.name == "reddit-sim") reddit_fraction = ours / vanilla;
    }
    const double advantage =
        ours_gain_sum / static_cast<double>(graph::all_presets().size());
    p.series("all", "ours", ns_since(fig_t))
        .value("advantage_over_best_baseline", advantage);
    std::printf("\n%s\n", table.str().c_str());
    std::printf("mean compression advantage over the best baseline: %.1fx "
                "(paper: 40.8x over SOTA on average; Reddit compressed to "
                "0.72%% of baselines)\n",
                advantage);
    p.claim("fig9_reddit_under_1pct",
            "SC-GNN sends at most 1% of vanilla's volume on reddit-sim",
            reddit_fraction <= 0.01);
}

void fig10(Paper& p) {
    std::printf("== Fig. 10: semantic group sizes (node-cut, 4 partitions, "
                "k=20) ==\n");
    Sheet table({{"dataset"}, {"groups", "count", Fmt::kCount},
                 {"mean size", "mean_size", Fmt::kNum, 1},
                 {"p50", "p50", Fmt::kNum, 1}, {"p90", "p90", Fmt::kNum, 1},
                 {"max", "max", Fmt::kNum, 0},
                 {"grouped edges", "grouped_edges", Fmt::kCount}});
    for (const Dataset& d : p.datasets()) {
        benchutil::print_dataset(d);
        const WallTimer t;
        std::vector<double> sizes;
        for (const graph::Dbg& dbg : graph::extract_all_dbgs(
                 d.graph, p.partition(d.graph, 4).part_of, 4))
            for (const auto& grp :
                 core::build_grouping(dbg, grouping_cfg(20, p.opt.seed))
                     .groups)
                sizes.push_back(static_cast<double>(grp.edges));
        if (sizes.empty()) continue;
        RunningStat stat;
        for (double s : sizes) stat.add(s);
        table.row(p.series(d.name, "groups", ns_since(t)),
                  {d.name, double(sizes.size()), stat.mean(),
                   percentile(sizes, 0.5), percentile(sizes, 0.9),
                   stat.max(),
                   std::accumulate(sizes.begin(), sizes.end(), 0.0)});

        // ASCII distribution (log-ish bins via clamped linear histogram).
        Histogram h(0.0, stat.max() + 1.0, 12);
        for (double s : sizes) h.add(s);
        std::printf("%s group-size distribution:\n%s\n", d.name.c_str(),
                    h.ascii(36).c_str());
    }
    std::printf("%s\n", table.str().c_str());
}

void fig11(Paper& p) {
    std::printf("== Fig. 11: differential optimisation (node-cut, 4 "
                "partitions, k=20) ==\n");
    const std::tuple<const char*, const char*, core::DropMask> variants[] = {
        {"full", "full", {}},
        {"w/o O2O", "no-o2o", {.o2o = true}},
        {"w/o O2M", "no-o2m", {.o2m = true}},
        {"w/o M2O", "no-m2o", {.m2o = true}},
        {"w/o M2M", "no-m2m", {.m2m = true}},
    };
    bool cheap = true;
    for (const Dataset& d : p.datasets()) {
        benchutil::print_dataset(d);
        const auto parts = p.partition(d.graph, 4);
        const auto cfg = p.train_cfg(p.epochs());
        Sheet table({{"variant"}, {"comm MB", nullptr, Fmt::kNum, 3},
                     {"vs full", "vs_full", Fmt::kPct}, {"test acc"}});
        double full_mb = 0.0, full_acc = 0.0;
        for (const auto& [label, key, drop] : variants) {
            core::MethodConfig m = method_cfg(Method::kSemantic);
            m.semantic.drop = drop;
            const Trained t = p.train(key, d, parts, cfg, m);
            const bool full = std::string_view(key) == "full";
            if (full) {
                full_mb = t.r.mean_comm_mb;
                full_acc = t.r.test_accuracy;
            }
            const double delta = t.r.test_accuracy - full_acc;
            cheap = cheap && delta >= -0.005;
            t.rows.value("acc_delta", delta);
            std::string acc = Table::pct(t.r.test_accuracy);
            if (!full) acc += " (" + Table::num(100.0 * delta, 2) + ")";
            table.row(t.rows, {label, t.r.mean_comm_mb,
                               t.r.mean_comm_mb / full_mb, acc});
        }
        std::printf("%s\n", table.str().c_str());
    }
    p.claim("fig11_single_drop_le_0p5",
            "removing any single connection class costs at most 0.5 pp of "
            "accuracy on every preset",
            cheap);
}

void fig12a(Paper& p) {
    std::printf("== Fig. 12(a): compression ratio vs average degree "
                "(planted-partition sweep + presets) ==\n");
    Sheet table({{"graph"}, {"avg degree", "avg_degree", Fmt::kNum, 1},
                 {"cross edges", "cross_edges", Fmt::kCount},
                 {"wire rows", "wire_rows", Fmt::kCount},
                 {"volume fraction", "volume_fraction", Fmt::kPct},
                 {"ratio", "ratio", Fmt::kX, 1}});
    auto measure = [&](const std::string& label, const std::string& key,
                       const graph::Graph& g) {
        const WallTimer t;
        std::uint64_t edges = 0, wire = 0;
        for (const graph::Dbg& dbg :
             graph::extract_all_dbgs(g, p.partition(g, 4).part_of, 4)) {
            edges += dbg.num_edges();
            wire += core::build_grouping(dbg, grouping_cfg(20, p.opt.seed))
                        .wire_rows(dbg);
        }
        if (edges == 0) return double(NAN);
        const double fraction = static_cast<double>(wire) / edges;
        table.row(p.series(key, "grouping", ns_since(t)),
                  {label, g.average_degree(), double(edges), double(wire),
                   fraction, static_cast<double>(edges) / wire});
        return fraction;
    };
    std::vector<double> sweep;
    for (double deg : {4.0, 10.0, 25.0, 60.0, 120.0}) {
        graph::PlantedPartitionSpec spec;
        spec.nodes = static_cast<std::uint32_t>(2000 * p.opt.scale / 0.35);
        spec.communities = 8;
        spec.avg_degree = deg;
        spec.homophily = 0.8;
        Rng rng(p.opt.seed);
        sweep.push_back(measure("sweep d=" + Table::num(deg, 0),
                                "sweep-d" + Table::num(deg, 0),
                                graph::planted_partition(spec, rng, nullptr)));
    }
    for (const Dataset& d : p.datasets()) measure(d.name, d.name, d.graph);
    std::printf("%s\n", table.str().c_str());
    p.claim("fig12a_fraction_falls_with_degree",
            "the wire volume fraction strictly falls over the d = 4…120 "
            "planted-partition sweep",
            strictly_falling(sweep));
}

void fig12b(Paper& p) {
    std::printf("== Fig. 12(b): compatibility of method combinations "
                "(pubmed-sim, 2 partitions) ==\n");
    const Dataset& d = p.dataset(DatasetPreset::kPubMedSim);
    const auto parts = p.partition(d.graph, 2);
    const auto cfg = p.train_cfg(p.epochs());
    core::MethodConfig m = method_cfg(Method::kVanilla);
    m.sampling.rate = 0.3;
    m.quant.bits = 8;
    m.delay.period = 2;
    const double vanilla_mb =
        p.train("vanilla", d, parts, cfg, m).r.mean_comm_mb;
    Sheet compat({{"combination"},
                  {"volume fraction", "volume_fraction", Fmt::kPct},
                  {"test acc", nullptr, Fmt::kPct}, {"verdict"}});
    const double chance = 1.0 / d.num_classes;
    // "x+y" names build the composed stack directly.
    for (const char* name : {"ours+quant", "ours+delay", "ours+sampling",
                             "quant+delay", "sampling+quant",
                             "sampling+delay"}) {
        m.name = name;
        const Trained t = p.train(name, d, parts, cfg, m);
        const bool converged = t.r.test_accuracy > chance + 0.1;
        t.rows.value("converged", converged ? 1.0 : 0.0);
        compat.row(t.rows, {m.name, t.r.mean_comm_mb / vanilla_mb,
                            t.r.test_accuracy,
                            converged ? "ok" : "fails to converge"});
    }
    std::printf("%s\n", compat.str().c_str());
}

/// A baseline with its knob solved so its per-epoch volume roughly
/// matches SC-GNN's (§5.2); `fraction` is ours / vanilla bytes.
core::MethodConfig equalized(Method method, double fraction) {
    core::MethodConfig m = method_cfg(method);
    // Sampling drops whole boundary rows: rate ≈ fraction, floored so the
    // model still sees some fresh data.
    m.sampling.rate = std::max(0.02, std::min(1.0, fraction));
    // Quant can shrink at most 8× (32 → 4 bits): the nearest width.
    const double bits = 32.0 * fraction;
    m.quant.bits = bits <= 4.0 ? 4 : (bits <= 8.0 ? 8 : 16);
    // Delay transmits every τ-th epoch: τ ≈ 1/fraction, capped.
    m.delay.period = static_cast<std::uint32_t>(
        std::min(64.0, std::max(1.0, 1.0 / std::max(1e-3, fraction))));
    return m;
}

// As in §5.2 the baselines are traffic-equalised to SC-GNN's volume, so
// every compressed method puts the same pressure on the interconnect.
void table1(Paper& p) {
    std::printf("== Table 1: volume / epoch time / accuracy (node-cut) ==\n");
    bool reddit_lowest = true, acc_within = true;
    for (const Dataset& d : p.datasets()) {
        benchutil::print_dataset(d);
        Sheet table({{"method"}, {"P", nullptr, Fmt::kCount}, {"comm MB"},
                     {"epoch ms", nullptr, Fmt::kNum, 1},
                     {"comm ms", nullptr, Fmt::kNum, 1},
                     {"compute ms", "compute_ms", Fmt::kNum, 1, true},
                     {"test acc", nullptr, Fmt::kPct}});
        for (std::uint32_t n : {2u, 4u, 8u}) {
            const auto parts = p.partition(d.graph, n);
            const auto cfg = p.train_cfg(p.epochs());
            std::map<Method, Trained> runs;
            auto run = [&](Method method, const core::MethodConfig& m)
                -> const dist::DistTrainResult& {
                const std::string key = core::method_key(method);
                return runs
                    .emplace(method, p.train(key + "@P=" + std::to_string(n),
                                             d, parts, cfg, m))
                    .first->second.r;
            };
            // Vanilla and ours fix the equalisation target.
            const auto& vanilla =
                run(Method::kVanilla, method_cfg(Method::kVanilla));
            const auto& ours =
                run(Method::kSemantic, method_cfg(Method::kSemantic));
            const double target =
                ours.mean_comm_mb / std::max(1e-9, vanilla.mean_comm_mb);
            for (Method method :
                 {Method::kDelay, Method::kQuant, Method::kSampling})
                run(method, equalized(method, target));
            acc_within = acc_within &&
                         std::abs(ours.test_accuracy - vanilla.test_accuracy) <=
                             0.005;
            for (Method method : {Method::kVanilla, Method::kDelay,
                                  Method::kQuant, Method::kSampling,
                                  Method::kSemantic}) {
                const Trained& t = runs.at(method);
                table.row(t.rows, {core::to_string(method), double(n),
                                   t.r.mean_comm_mb, t.r.mean_epoch_ms,
                                   t.r.mean_comm_ms, t.r.mean_compute_ms,
                                   t.r.test_accuracy});
                if (d.name == "reddit-sim" && method != Method::kSemantic)
                    reddit_lowest =
                        reddit_lowest && ours.mean_comm_mb < t.r.mean_comm_mb;
            }
        }
        std::printf("%s\n", table.str().c_str());
    }
    p.claim("table1_reddit_lowest_mb",
            "SC-GNN has the lowest comm MB of the five methods on reddit-sim "
            "at P = 2, 4, 8",
            reddit_lowest);
    p.claim("table1_acc_within_0p5",
            "SC-GNN's test accuracy is within ±0.5 pp of vanilla in every "
            "configuration",
            acc_within);
}

// Multilevel is our extra row next to the paper's three partitioners.
void table2(Paper& p) {
    std::printf("== Table 2: partition-algorithm compatibility (4 "
                "partitions) ==\n");
    bool node_cut_lowest = true;
    for (const Dataset& d : p.datasets()) {
        benchutil::print_dataset(d);
        Sheet table({{"partition"}, {"vanilla CV MB"},
                     {"SC-GNN CV MB", nullptr, Fmt::kNum, 3},
                     {"ratio vs node-cut", "ratio_vs_node_cut", Fmt::kX},
                     {"test acc", nullptr, Fmt::kPct}});
        double node_cut_mb = 0.0;
        for (PartitionAlgo algo :
             {PartitionAlgo::kNodeCut, PartitionAlgo::kEdgeCut,
              PartitionAlgo::kMultilevel, PartitionAlgo::kRandomCut}) {
            const auto parts = p.partition(d.graph, 4, algo);
            const auto cfg = p.train_cfg(p.epochs());
            const std::string at = partition::to_string(algo);
            const double vanilla_mb =
                p.train("vanilla@" + at, d, parts, cfg,
                        method_cfg(Method::kVanilla))
                    .r.mean_comm_mb;
            const Trained ours = p.train("ours@" + at, d, parts, cfg,
                                         method_cfg(Method::kSemantic));
            const double mb = ours.r.mean_comm_mb;
            if (algo == PartitionAlgo::kNodeCut) node_cut_mb = mb;
            else node_cut_lowest = node_cut_lowest && node_cut_mb < mb;
            table.row(ours.rows, {at, vanilla_mb, mb, mb / node_cut_mb,
                                  ours.r.test_accuracy});
        }
        std::printf("%s\n", table.str().c_str());
    }
    p.claim("table2_nodecut_lowest_ours_mb",
            "node-cut gives the lowest SC-GNN comm MB of the four "
            "partitioners on every preset",
            node_cut_lowest);
}

// The §2.2 cohesion guard (GroupingConfig::min_cohesion) on a cohesive
// (node-cut) and an incoherent (random-cut) partitioning (DESIGN.md §4).
void abl_cohesion(Paper& p) {
    std::printf("== Ablation: cohesion guard threshold (yelp-sim, pair 0->1, "
                "k=20) ==\n");
    const Dataset& d = p.dataset(DatasetPreset::kYelpSim);
    benchutil::print_dataset(d);
    for (PartitionAlgo algo :
         {PartitionAlgo::kNodeCut, PartitionAlgo::kRandomCut}) {
        const graph::Dbg dbg = graph::extract_dbg(
            d.graph, p.partition(d.graph, 4, algo).part_of, 0, 1);
        if (dbg.num_edges() == 0) continue;
        const tensor::Matrix h = source_features(d, dbg);
        const std::string at = partition::to_string(algo);
        std::printf("%s partition:\n", at.c_str());
        Sheet table({{"min_cohesion"}, {"groups", "groups", Fmt::kCount},
                     {"wire rows", "wire_rows", Fmt::kCount},
                     {"compression", "compression", Fmt::kX, 1},
                     {"approx error", "approx_error", Fmt::kNum, 4},
                     {"intra sim", "intra_sim", Fmt::kNum, 3}});
        for (double coh : {0.0, 0.1, 0.25, 0.5}) {
            const WallTimer t;
            core::GroupingConfig gc = grouping_cfg(20, p.opt.seed);
            gc.min_cohesion = coh;
            const core::Grouping g = core::build_grouping(dbg, gc);
            const double error = core::approximation_error(dbg, g, h);
            table.row(p.series(d.name,
                               at + "@min_cohesion=" + Table::num(coh, 2),
                               ns_since(t)),
                      {coh, double(g.groups.size()), double(g.wire_rows(dbg)),
                       g.compression_ratio(dbg), error,
                       core::evaluate_grouping(dbg, g).mean_intra_similarity});
        }
        std::printf("%s\n", table.str().c_str());
    }
}

// §5.4: the compression rate falls 86.8% → 81.6% as k goes 2 → 20 (the
// EEP) for ~0.13% accuracy, and below 75% past it.
void abl_group_k(Paper& p) {
    std::printf("== Ablation: group number k vs compression and accuracy "
                "(node-cut, 4 partitions) ==\n");
    for (DatasetPreset preset :
         {DatasetPreset::kRedditSim, DatasetPreset::kYelpSim}) {
        const Dataset& d = p.dataset(preset);
        benchutil::print_dataset(d);
        const auto parts = p.partition(d.graph, 4);
        const auto cfg = p.train_cfg(p.epochs());

        const WallTimer eep_t;
        const dist::DistContext ctx(d, parts, cfg.norm);
        const dist::PairPlan* biggest = nullptr;
        for (const auto& plan : ctx.plans())
            if (!biggest || plan.num_edges() > biggest->num_edges())
                biggest = &plan;
        std::uint32_t eep = 0;
        if (biggest && m2m_pool(biggest->dbg).size() >= 4)
            eep = elbow(biggest->dbg, m2m_pool(biggest->dbg), p.opt.seed)
                      .best_k;
        p.series(d.name, "largest-plan", ns_since(eep_t)).value("eep", eep);

        const std::uint32_t hidden = p.opt.scn.pipeline.model.hidden_dim;
        const double vanilla_bytes =
            static_cast<double>(ctx.vanilla_exchange_bytes(hidden));
        Sheet table({{"k", nullptr, Fmt::kCount},
                     {"wire rows", "wire_rows", Fmt::kCount},
                     {"volume vs vanilla", "volume_vs_vanilla", Fmt::kPct},
                     {"test acc", nullptr, Fmt::kPct}, {"note"}});
        for (std::uint32_t k : {2u, 5u, 10u, 20u, 40u, 80u}) {
            core::SemanticCompressorConfig sc;
            sc.grouping = grouping_cfg(k, p.opt.seed);
            core::SemanticCompressor comp(sc);
            const Trained t =
                p.train("k=" + std::to_string(k), d, parts, cfg, comp);
            const std::uint64_t wire = comp.total_wire_rows();
            table.row(t.rows,
                      {double(k), double(wire),
                       static_cast<double>(wire * hidden * sizeof(float)) /
                           vanilla_bytes,
                       t.r.test_accuracy,
                       eep != 0 && k <= eep && eep < 2 * k ? "~EEP" : ""});
        }
        std::printf("EEP on the largest plan: k=%u\n%s\n", eep,
                    table.str().c_str());
    }
}

/// The "no similarity" control: the structured grouping with its M2M
/// groups rebuilt from a random split of the M2M pool into k buckets.
core::Grouping random_grouping(const graph::Dbg& dbg, std::uint32_t k,
                               std::uint64_t seed) {
    core::Grouping g = core::build_grouping(dbg, grouping_cfg(k, seed));
    const auto pool = m2m_pool(dbg);
    if (pool.empty()) return g;
    std::erase_if(g.groups, [](const core::SemanticGroup& grp) {
        return grp.origin == graph::ConnectionType::kM2M;
    });
    Rng rng(seed ^ 0xabcdefULL);
    std::vector<std::vector<std::uint32_t>> buckets(std::min<std::uint32_t>(
        k, static_cast<std::uint32_t>(pool.size())));
    for (std::uint32_t u : pool)
        buckets[rng.index(buckets.size())].push_back(u);
    for (auto& members : buckets) {
        if (members.empty()) continue;
        core::SemanticGroup grp;
        grp.origin = graph::ConnectionType::kM2M;
        grp.members = members;
        std::map<std::uint32_t, std::uint32_t> sink_deg;
        for (std::uint32_t u : members) {
            grp.edges += dbg.out_degree(u);
            for (std::uint32_t v : dbg.out_neighbors(u)) ++sink_deg[v];
        }
        const float inv = 1.0f / static_cast<float>(grp.edges);
        for (std::uint32_t u : members)
            grp.out_weights.push_back(
                static_cast<float>(dbg.out_degree(u)) * inv);
        for (const auto& [v, deg] : sink_deg) {
            grp.sinks.push_back(v);
            grp.in_weights.push_back(static_cast<float>(deg) * inv);
        }
        g.groups.push_back(std::move(grp));
    }
    std::fill(g.group_of_row.begin(), g.group_of_row.end(), -1);
    for (std::size_t gi = 0; gi < g.groups.size(); ++gi)
        for (std::uint32_t u : g.groups[gi].members)
            g.group_of_row[u] = static_cast<std::int32_t>(gi);
    return g;
}

// §3.1's similarity measure, scored on one plan without training. The
// wire volumes differ: the random control can build fewer groups.
void abl_similarity(Paper& p) {
    std::printf("== Ablation: similarity measure behind the grouping "
                "(yelp-sim, pair 0->1, k=20) ==\n");
    const Dataset& d = p.dataset(DatasetPreset::kYelpSim);
    benchutil::print_dataset(d);
    const graph::Dbg dbg =
        graph::extract_dbg(d.graph, p.partition(d.graph, 4).part_of, 0, 1);
    const tensor::Matrix h = source_features(d, dbg);
    Sheet table({{"grouping"}, {"groups", "groups", Fmt::kCount},
                 {"wire rows", "wire_rows", Fmt::kCount},
                 {"approx error", "approx_error", Fmt::kNum, 4},
                 {"intra sim", "intra_sim", Fmt::kNum, 3},
                 {"cohesion", "cohesion"}});
    auto report = [&](const char* label, const char* key, const auto& build) {
        const WallTimer t;
        const core::Grouping g = build();
        const core::GroupingQuality q = core::evaluate_grouping(dbg, g);
        const double error = core::approximation_error(dbg, g, h);
        table.row(p.series(d.name, key, ns_since(t)),
                  {label, double(g.groups.size()), double(g.wire_rows(dbg)),
                   error, q.mean_intra_similarity, q.cohesion_ratio});
        return error;
    };
    core::GroupingConfig gc = grouping_cfg(20, p.opt.seed);
    const double semantic = report("semantic (ours)", "semantic", [&] {
        return core::build_grouping(dbg, gc);
    });
    gc.kind = core::SimilarityKind::kJaccard;
    const double jaccard = report("jaccard", "jaccard", [&] {
        return core::build_grouping(dbg, gc);
    });
    const double random = report("random buckets", "random", [&] {
        return random_grouping(dbg, 20, p.opt.seed);
    });
    std::printf("%s\n", table.str().c_str());
    p.claim("abl_sim_error_order",
            "approximation error orders semantic < Jaccard < random grouping",
            semantic < jaccard && jaccard < random);
}

// Fig. 8's amortisation claim: the static stage, run once — the
// distributed context (Â, local graphs, DBGs) and the grouping — against
// the per-epoch time it saves.
void setup(Paper& p) {
    std::printf("== Setup-cost amortisation (node-cut, 4 partitions, k=20) "
                "==\n");
    Sheet table({{"dataset"},
                 {"context ms", "context_ms", Fmt::kNum, 1, true},
                 {"grouping setup ms", "setup_ms", Fmt::kNum, 1, true},
                 {"vanilla epoch ms", nullptr, Fmt::kNum, 1},
                 {"ours epoch ms", nullptr, Fmt::kNum, 1},
                 {"saved ms/epoch", "saved_ms", Fmt::kNum, 1, true},
                 {"breakeven epochs"}});
    for (const Dataset& d : p.datasets()) {
        const auto parts = p.partition(d.graph, 4);
        const auto cfg = p.train_cfg(std::max(5u, p.epochs() / 3));
        const WallTimer context_t;
        const dist::DistContext ctx(d, parts, cfg.norm);
        const double context_ms = context_t.millis();
        const WallTimer setup_t;
        core::SemanticCompressor probe(benchutil::semantic_cfg());
        probe.setup(ctx);
        const double setup_ms = setup_t.millis();

        const double vanilla_ms =
            p.train("vanilla", d, parts, cfg, method_cfg(Method::kVanilla))
                .r.mean_epoch_ms;
        const double ours_ms =
            p.train("ours", d, parts, cfg, method_cfg(Method::kSemantic))
                .r.mean_epoch_ms;
        const double saved = vanilla_ms - ours_ms;
        table.row(p.series(d.name, "grouping", setup_ms * 1e6),
                  {d.name, context_ms, setup_ms, vanilla_ms, ours_ms, saved,
                   saved > 0 ? Table::num((context_ms + setup_ms) / saved, 1)
                             : std::string("never")});
    }
    std::printf("\n%s\n", table.str().c_str());
}

// The per-link timeline of comm/timeline.hpp (DESIGN.md §9) against the
// additive sum; both modes always run, so `--overlap` is moot here.
void overlap(Paper& p) {
    std::printf("== Overlap timeline: additive sum vs scheduled makespan "
                "(4 partitions, node-cut) ==\n");
    Sheet table({{"dataset"}, {"method"},
                 {"additive ms", nullptr, Fmt::kNum, 1},
                 {"overlap ms", nullptr, Fmt::kNum, 1},
                 {"hidden ms", "hidden_ms", Fmt::kNum, 1, true},
                 {"exposed ms", "exposed_ms", Fmt::kNum, 1, true},
                 {"hidden share", "hidden_share", Fmt::kPct, 2, true}});
    for (const Dataset& d : p.datasets()) {
        const auto parts = p.partition(d.graph, 4);
        for (Method method : {Method::kVanilla, Method::kSemantic}) {
            const std::string key = core::method_key(method);
            auto cfg = p.train_cfg(std::max(5u, p.epochs() / 3));
            cfg.comm.mode = comm::CostModel::Mode::kAdditive;
            const double additive_ms =
                p.train(key + "@additive", d, parts, cfg, method_cfg(method))
                    .r.mean_epoch_ms;
            cfg.comm.mode = comm::CostModel::Mode::kOverlap;
            const Trained o =
                p.train(key + "@overlap", d, parts, cfg, method_cfg(method));
            const double hidden = o.r.mean_overlap_ms;
            table.row(o.rows, {d.name, key, additive_ms, o.r.mean_epoch_ms,
                               hidden, o.r.mean_comm_exposed_ms,
                               o.r.mean_comm_ms > 0.0
                                   ? hidden / o.r.mean_comm_ms
                                   : NAN});
        }
    }
    std::printf("\n%s\n", table.str().c_str());
}

// The fault flags seed every cell (e.g. --timeout tightens each cell's
// ack timeout). Schedules are counter-based per link, so every cell is
// bitwise reproducible at any thread count.
void fault(Paper& p) {
    const Dataset& d = p.dataset(DatasetPreset::kPubMedSim);
    benchutil::print_dataset(d);
    const core::PipelineConfig pipe;  // the pipeline's default placement
    const auto parts = partition::make_partitioning(
        pipe.algo, d.graph, pipe.num_parts, pipe.partition_seed);
    const core::MethodConfig ours = method_cfg(Method::kSemantic);
    dist::DistTrainConfig cfg = p.opt.scn.pipeline.train;
    cfg.comm.fault = comm::FaultModel{};
    const Trained base = p.train("fault-free", d, parts, cfg, ours);
    std::printf("# fault-free: acc=%.4f epoch_ms=%.3f\n",
                base.r.test_accuracy, base.r.mean_epoch_ms);

    Sheet table({{"drop"}, {"retry", nullptr, Fmt::kCount},
                 {"acc", nullptr, Fmt::kPct},
                 {"d-acc", "acc_delta", Fmt::kNum, 4},
                 {"epoch ms", nullptr, Fmt::kNum, 3},
                 {"comm MB", nullptr, Fmt::kNum, 3},
                 {"drops", "drops", Fmt::kCount},
                 {"retries", "retries", Fmt::kCount},
                 {"fails", "failures", Fmt::kCount},
                 {"stale", "stale_uses", Fmt::kCount},
                 {"max stale", "max_staleness", Fmt::kCount}});
    const dist::DistTrainConfig& flags = p.opt.scn.pipeline.train;
    for (const double drop : {0.05, 0.1, 0.2, 0.3}) {
        for (const std::uint32_t retries : {1u, 2u, 4u}) {
            cfg.comm.fault = flags.comm.fault;
            cfg.comm.fault.drop_probability = drop;
            cfg.comm.retry = flags.comm.retry;
            cfg.comm.retry.max_attempts = retries;
            const Trained t = p.train("drop=" + Table::num(drop, 2) +
                                          "@retry=" + std::to_string(retries),
                                      d, parts, cfg, ours);
            const dist::FaultSummary& f = t.r.fault;
            table.row(t.rows,
                      {drop, double(retries), t.r.test_accuracy,
                       t.r.test_accuracy - base.r.test_accuracy,
                       t.r.mean_epoch_ms, t.r.mean_comm_mb,
                       double(f.fabric.drops), double(f.fabric.retries),
                       double(f.fabric.failures), double(f.stale_uses),
                       double(f.max_staleness)});
        }
    }
    std::printf("%s", table.str().c_str());
}

// ---- system sweeps -------------------------------------------------------
// What the paper's tables leave out. Each sweep keeps its own fixed
// workload (only `threads` follows --scale/--seed), and each check it
// makes is a gate: a failing one fails the run.

// A 4 MB gradient allreduce priced for every algorithm on the flat fabric
// and on the hierarchical preset of each P (DESIGN.md §11).
void collectives(Paper& p) {
    using comm::collective::Algo;
    using comm::collective::algo_name;
    constexpr std::uint64_t kPayloadBytes = 4'000'000;
    std::printf("== Collectives: 4 MB allreduce, flat vs hier presets 4x4 "
                "(x2) / 8x8 (x4) / 16x8 (x8 oversubscribed) ==\n");
    Sheet table({{"P", nullptr, Fmt::kCount}, {"topology"}, {"algo"},
                 {"rounds", "rounds", Fmt::kCount},
                 {"wire MB", "wire_mb", Fmt::kNum, 1},
                 {"modelled ms", "makespan_ms", Fmt::kNum, 3},
                 {"vs p2p", nullptr, Fmt::kX}});
    double hier64_ms = 0.0, p2p64_ms = 0.0;
    for (const std::uint32_t n : {16u, 64u, 128u}) {
        const comm::Topology flat = comm::Topology::flat(n);
        const comm::Topology hier =
            comm::Topology::build(comm::TopologySpec::preset(n), n);
        for (const auto& [topology, topo] :
             {std::pair{"flat", &flat}, std::pair{"hier", &hier}}) {
            double p2p_ms = 0.0;  // p2p runs first
            for (const Algo a :
                 {Algo::kP2P, Algo::kRing, Algo::kTree, Algo::kHier}) {
                const WallTimer t;
                comm::Fabric fabric(*topo);
                comm::collective::Allreduce plan(*topo, a, kPayloadBytes);
                const comm::collective::Outcome o = plan.run(fabric);
                const double ms = o.modelled_s * 1e3;
                if (a == Algo::kP2P) p2p_ms = ms;
                if (n == 64 && a == Algo::kP2P && topo == &flat)
                    p2p64_ms = ms;
                if (n == 64 && a == Algo::kHier && topo == &hier)
                    hier64_ms = ms;
                table.row(p.series(topology,
                                   std::string(algo_name(a)) +
                                       "@P=" + std::to_string(n),
                                   ns_since(t)),
                          {double(n), topology, algo_name(a),
                           double(o.rounds), double(o.wire_bytes) / 1e6, ms,
                           p2p_ms / std::max(1e-9, ms)});
            }
        }
    }
    std::printf("\n%s\n", table.str().c_str());
    std::printf("# P=64: hier %.3f ms vs flat p2p %.3f ms\n", hier64_ms,
                p2p64_ms);
    p.gate("collectives_hier_beats_p2p_p64",
           "the hier allreduce on the P=64 preset is priced below flat p2p",
           hier64_ms < p2p64_ms);
}

// The rate schedules of dist/rate_control.hpp on the error-feedback
// stacks they serve (DESIGN.md §12). A schedule trades bytes for loss, so
// neither axis alone ranks it: the gate is Pareto dominance per stack.
void schedule(Paper& p) {
    constexpr std::uint64_t kSeed = 2024;
    const Dataset& d = p.dataset(DatasetPreset::kPubMedSim, 0.2, kSeed);
    benchutil::print_dataset(d);
    const auto parts = partition::make_partitioning(
        PartitionAlgo::kNodeCut, d.graph, 4, kSeed);
    gnn::GnnConfig mc = benchutil::model_for(p.opt, d);
    mc.num_layers = 3;
    dist::DistTrainConfig cfg = p.opt.scn.pipeline.train;
    cfg.epochs = 96;  // per-epoch records on: they carry the rate
    std::printf("== Rate schedules: final loss vs wire MB (pubmed-sim x0.2, "
                "4 partitions, 3 layers, 96 epochs; warmup floor=%.3g over "
                "%u epochs) ==\n",
                cfg.rate.floor, cfg.rate.warmup_epochs);
    Sheet table({{"stack"}, {"schedule"},
                 {"final loss", "final_loss", Fmt::kNum, 4},
                 {"MB/epoch", "comm_mb", Fmt::kNum, 3},
                 {"total MB", "total_mb", Fmt::kNum, 2},
                 {"mean rate", "mean_rate", Fmt::kNum, 3}});
    using dist::RateSchedule;
    const std::pair<const char*, RateSchedule> plans[] = {
        {"vanilla", RateSchedule::kFixed},
        {"ours", RateSchedule::kFixed},
        {"ef+ours", RateSchedule::kFixed},
        {"ef+ours", RateSchedule::kWarmup},
        {"ef+ours+quant", RateSchedule::kFixed},
        {"ef+ours+quant", RateSchedule::kWarmup},
    };
    std::vector<std::tuple<std::string, RateSchedule, double, double>> runs;
    for (const auto& [stack, kind] : plans) {
        core::MethodConfig m;
        m.name = stack;
        m.semantic = benchutil::semantic_cfg();
        m.quant.bits = 16;
        cfg.rate.kind = kind;
        const WallTimer t;
        const dist::DistTrainResult r =
            runtime::Scenario::for_training(cfg).train(
                d, parts, mc, *core::make_compressor(m));
        double rate = 0.0;
        for (const auto& e : r.epoch_metrics) rate += e.rate;
        rate = r.epoch_metrics.empty()
                   ? 1.0
                   : rate / static_cast<double>(r.epoch_metrics.size());
        table.row(p.series(d.name,
                           std::string(stack) + "@" + dist::schedule_name(kind),
                           ns_since(t)),
                  {stack, dist::schedule_name(kind), r.final_loss,
                   r.mean_comm_mb, r.total_comm_mb, rate});
        runs.emplace_back(stack, kind, r.final_loss, r.total_comm_mb);
    }
    std::printf("\n%s\n", table.str().c_str());
    bool undominated = true;
    for (const auto& [stack_a, kind_a, loss_a, mb_a] : runs)
        for (const auto& [stack_b, kind_b, loss_b, mb_b] : runs)
            if (stack_a == stack_b && kind_a != kind_b && loss_b <= loss_a &&
                mb_b <= mb_a && (loss_b < loss_a || mb_b < mb_a)) {
                std::printf("# %s@%s is dominated by %s\n", stack_a.c_str(),
                            dist::schedule_name(kind_a),
                            dist::schedule_name(kind_b));
                undominated = false;
            }
    p.gate("schedule_undominated",
           "within each stack, no rate schedule's (final loss, total MB) is "
           "Pareto-dominated by another's",
           undominated);
}

// Mid-training leaves and rejoins on the hierarchical presets (DESIGN.md
// §13): the same run static and under churn — one early leave, a second
// mid-run, both rejoining by the last epoch. A --membership flag replaces
// the built-in churn.
void elastic(Paper& p) {
    constexpr std::uint64_t kSeed = 2024;
    constexpr std::uint32_t kEpochs = 10;
    const Dataset& d = p.dataset(DatasetPreset::kPubMedSim, 0.15, kSeed);
    benchutil::print_dataset(d);
    using runtime::MembershipEventKind;
    runtime::MembershipSchedule churn = p.opt.scn.pipeline.train.membership;
    if (!churn.active())
        churn.events = {{MembershipEventKind::kLeave, 2, 3},
                        {MembershipEventKind::kLeave, kEpochs / 2, 7},
                        {MembershipEventKind::kJoin, kEpochs - 2, 3},
                        {MembershipEventKind::kJoin, kEpochs - 1, 7}};
    std::printf("== Elastic membership: static vs churn (pubmed-sim x0.15, "
                "hier presets, vanilla, %u epochs; %s) ==\n",
                kEpochs, runtime::membership_name(churn).c_str());
    Sheet table({{"P", nullptr, Fmt::kCount}, {"mode"},
                 {"final loss", "final_loss", Fmt::kNum, 4},
                 {"total MB", "total_mb", Fmt::kNum, 2},
                 {"migrated MB", "migrated_mb", Fmt::kNum, 3},
                 {"peak comm ms", "peak_comm_ms", Fmt::kNum, 3},
                 {"total comm ms", "total_comm_ms", Fmt::kNum, 3},
                 {"rebuild ms", "rebuild_ms", Fmt::kNum, 3},
                 {"min active", "min_active", Fmt::kCount}});
    bool loss_equal = true, full_strength = true;
    for (const std::uint32_t n : {16u, 64u}) {
        const auto parts = partition::make_partitioning(
            PartitionAlgo::kNodeCut, d.graph, n, kSeed);
        double static_loss = 0.0;
        for (const bool churned : {false, true}) {
            dist::DistTrainConfig cfg = p.opt.scn.pipeline.train;
            cfg.epochs = kEpochs;  // per-epoch records on: they carry comm ms
            cfg.comm.topology = comm::TopologySpec::preset(n);
            cfg.comm.collective = comm::collective::Algo::kHier;
            cfg.comm.count_weight_sync = true;
            cfg.membership = churned ? churn : runtime::MembershipSchedule{};
            const WallTimer t;
            const dist::DistTrainResult r =
                runtime::Scenario::for_training(cfg).train(
                    d, parts, benchutil::model_for(p.opt, d),
                    *core::make_compressor(method_cfg(Method::kVanilla)));
            double peak = 0.0, total = 0.0;
            for (const auto& e : r.epoch_metrics) {
                peak = std::max(peak, e.comm_ms);
                total += e.comm_ms;
            }
            const runtime::MembershipSummary& mem = r.membership;
            const char* mode = churned ? "elastic" : "static";
            table.row(p.series(d.name,
                               std::string(mode) + "@P=" + std::to_string(n),
                               ns_since(t)),
                      {double(n), mode, r.final_loss, r.total_comm_mb,
                       double(mem.migrated_bytes) / 1e6, peak, total,
                       mem.rebuild_ms,
                       double(mem.changed() ? mem.min_active : n)});
            if (!churned) static_loss = r.final_loss;
            else {
                loss_equal = loss_equal && r.final_loss == static_loss;
                full_strength = full_strength &&
                                !mem.active_per_epoch.empty() &&
                                mem.active_per_epoch.back() == n;
            }
        }
    }
    std::printf("\n%s\n", table.str().c_str());
    p.gate("elastic_loss_bitwise_static",
           "the elastic run's final loss equals the static run's bit for bit "
           "at P = 16 and 64",
           loss_equal);
    p.gate("elastic_full_strength",
           "every elastic run ends with all P devices active", full_strength);
}

// Open-loop serving (DESIGN.md §14) at rising QPS, each rate served twice:
// naive (no halo cache, one query per dispatch) and the default cached +
// micro-batched path. --queries, --serve-batch and --deadline-ms reshape
// both arms. The modelled figures are the median run's; the run wall is
// the median of five.
void serving(Paper& p) {
    constexpr std::uint64_t kSeed = 7;
    constexpr std::uint32_t kParts = 4;
    constexpr int kTimedRuns = 5;
    const Dataset& d = p.dataset(DatasetPreset::kPubMedSim, 0.1, kSeed);
    benchutil::print_dataset(d);
    const runtime::ScenarioConfig& scn = p.opt.scn;
    std::printf("== Serving: naive vs cached+batched (pubmed-sim x0.1, 4 "
                "partitions, %u queries, batch_max %u, deadline %.2f ms) "
                "==\n",
                scn.serve.queries, scn.serve.batch_max, scn.serve.deadline_ms);
    const auto parts = partition::make_partitioning(
        scn.pipeline.algo, d.graph, kParts, kSeed);
    Sheet table({{"QPS", nullptr, Fmt::kCount}, {"mode"},
                 {"batches", "batches", Fmt::kCount},
                 {"mean batch", "mean_batch"},
                 {"p50 ms", "p50_ms", Fmt::kNum, 3},
                 {"p99 ms", "p99_ms", Fmt::kNum, 3},
                 {"p99.9 ms", "p999_ms", Fmt::kNum, 3},
                 {"hit rate", "hit_rate", Fmt::kNum, 4},
                 {"halo MB", "halo_mb", Fmt::kNum, 3},
                 {"run wall ms", "run_wall_ms", Fmt::kNum, 3, true}});
    bool tail_wins = false, saves_bytes = true;
    for (const std::uint32_t qps : {1000u, 4000u, 16000u}) {
        runtime::ServeResult naive;
        for (const bool cached : {false, true}) {
            runtime::ScenarioConfig arm = scn;
            arm.mode = runtime::ScenarioMode::kServe;
            arm.pipeline.num_parts = kParts;
            arm.pipeline.partition_seed = kSeed;
            arm.serve.qps = qps;
            if (!cached) {
                arm.serve.halo_cache = false;
                arm.serve.batch_max = 1;
                arm.serve.deadline_ms = 0.0;
            }
            // build() validates and inherits the training-side knobs; the
            // server is built here so only run() is timed.
            const runtime::Scenario scenario =
                runtime::Scenario::build(std::move(arm));
            const runtime::InferenceServer server(d, parts,
                                                  scenario.config().serve);
            runtime::ServeResult r;
            std::vector<double> wall_ns;
            for (int i = 0; i < kTimedRuns; ++i) {
                const WallTimer t;
                r = server.run();
                wall_ns.push_back(ns_since(t));
            }
            std::nth_element(wall_ns.begin(), wall_ns.begin() + kTimedRuns / 2,
                             wall_ns.end());
            const double wall = wall_ns[kTimedRuns / 2];
            const char* mode = cached ? "cached" : "naive";
            table.row(p.series(d.name,
                               std::string(mode) + "@qps=" +
                                   std::to_string(qps),
                               wall),
                      {double(qps), mode, double(r.batches), r.mean_batch,
                       r.p50_ms, r.p99_ms, r.p999_ms, r.hit_rate, r.halo_mb,
                       wall * 1e-6});
            if (!cached) {
                naive = r;
                continue;
            }
            // The last rate is past the naive path's service capacity.
            tail_wins = r.p99_ms < naive.p99_ms;
            saves_bytes = saves_bytes && r.hit_rate > 0.0 &&
                          r.halo_mb < naive.halo_mb;
        }
    }
    std::printf("\n%s\n", table.str().c_str());
    p.gate("serving_p99_under_load",
           "at 16k QPS the cached+batched p99 beats the naive p99",
           tail_wins);
    p.gate("serving_cache_saves_bytes",
           "at every QPS the halo cache hits and fetches fewer MB than naive",
           saves_bytes);
}

/// FNV-1a over raw bytes: an exact, order-sensitive fingerprint.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t checksum(const tensor::Matrix& m) {
    return fnv1a(m.data(), m.rows() * m.cols() * sizeof(float));
}

// The pool's determinism contract (DESIGN.md §5), live: the four
// parallelised layers at 1/2/4/8 threads (best of 3), each width's result
// checksummed against 1 thread. The sweep pins its own widths, so
// --threads does not reach it; speedups need the cores that the JSON
// context records as `hardware_threads`.
void threads(Paper& p) {
    constexpr unsigned kWidths[] = {1, 2, 4, 8};
    constexpr int kReps = 3;
    const Dataset& d = p.dataset(DatasetPreset::kRedditSim);
    benchutil::print_dataset(d);
    std::printf("== Thread scaling: 1/2/4/8 pool threads, best of %d (%u "
                "hardware threads) ==\n",
                kReps, std::thread::hardware_concurrency());
    Sheet table({{"kernel"}, {"1T ms", "ms_1t", Fmt::kNum, 1, true},
                 {"2T ms", "ms_2t", Fmt::kNum, 1, true},
                 {"4T ms", "ms_4t", Fmt::kNum, 1, true},
                 {"8T ms", "ms_8t", Fmt::kNum, 1, true},
                 {"speedup@8", nullptr, Fmt::kX}, {"identical"}});
    bool bitwise = true;
    auto sweep = [&](const char* kernel,
                     const std::function<std::uint64_t()>& work) {
        const WallTimer sweep_t;
        std::vector<Cell> cells{kernel};
        std::uint64_t base = 0;
        bool identical = true;
        for (const unsigned width : kWidths) {
            const ThreadCountGuard guard(width);
            double best = INFINITY;
            std::uint64_t sum = 0;
            for (int r = 0; r < kReps; ++r) {
                const WallTimer t;
                sum = work();
                best = std::min(best, t.millis());
            }
            cells.emplace_back(best);
            if (width == 1) base = sum;
            identical = identical && sum == base;
        }
        cells.emplace_back(std::get<double>(cells[1]) /
                           std::max(1e-9, std::get<double>(cells[4])));
        cells.emplace_back(identical ? "yes" : "NO");
        bitwise = bitwise && identical;
        table.row(p.series(d.name, kernel, ns_since(sweep_t)), cells);
    };

    {   // Dense GEMM at the trainer's layer shape (hidden width 64).
        Rng rng(1);
        const std::size_t n = std::max<std::size_t>(
            64, static_cast<std::size_t>(384 * p.opt.scale));
        const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
        const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
        sweep("matmul", [&] { return checksum(tensor::matmul(a, b)); });
    }
    {   // SpMM: the per-layer aggregation over the whole graph.
        const auto adj =
            gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
        Rng rng(2);
        const tensor::Matrix h =
            tensor::Matrix::randn(d.graph.num_nodes(), 64, rng);
        sweep("spmm", [&] { return checksum(tensor::spmm(adj, h)); });
    }
    const auto parts = p.partition(d.graph, 4);
    {   // k-means over one boundary plan's M2M pool (the grouping step).
        const graph::Dbg dbg = graph::extract_dbg(d.graph, parts.part_of, 0, 1);
        const auto pool = m2m_pool(dbg);
        const core::KMeansConfig km{.k = 20, .max_iters = 20, .seed = 5};
        sweep("kmeans", [&] {
            const auto res = core::kmeans_dbg_rows(dbg, pool, km);
            return fnv1a(res.assignment.data(),
                         res.assignment.size() * sizeof(res.assignment[0]));
        });
    }
    {   // One full distributed epoch (semantic method, 4 partitions).
        const auto cfg = p.train_cfg(1);
        sweep("dist epoch", [&] {
            core::SemanticCompressor comp(benchutil::semantic_cfg());
            const auto r = runtime::Scenario::for_training(cfg).train(
                d, parts, benchutil::model_for(p.opt, d), comp);
            return fnv1a(&r.test_accuracy, sizeof(r.test_accuracy),
                         fnv1a(&r.final_loss, sizeof(r.final_loss)));
        });
    }
    std::printf("\n%s\n", table.str().c_str());
    p.gate("threads_bitwise",
           "matmul, spmm, kmeans and one distributed epoch are bitwise "
           "equal at 1/2/4/8 threads",
           bitwise);
}

/// The figure table: `--figure` picks rows of it by id.
struct Figure {
    const char* id;
    void (*run)(Paper&);
};
constexpr Figure kFigures[] = {
    {"fig1b", fig1b},     {"fig2b", fig2b},   {"fig2d", fig2d},
    {"fig4a", fig4a},     {"fig4b", fig4b},   {"fig6", fig6},
    {"fig9", fig9},       {"fig10", fig10},   {"fig11", fig11},
    {"fig12a", fig12a},   {"fig12b", fig12b}, {"table1", table1},
    {"table2", table2},   {"abl_cohesion", abl_cohesion},
    {"abl_group_k", abl_group_k},   {"abl_similarity", abl_similarity},
    {"setup", setup},     {"overlap", overlap}, {"fault", fault},
    {"collectives", collectives},   {"schedule", schedule},
    {"elastic", elastic}, {"serving", serving}, {"threads", threads},
};

/// Google-benchmark-shaped JSON of every row.
void write_json(const Paper& p) {
    obs::JsonWriter w;
    w.begin_object().key("context").begin_object();
    w.kv("library", "scgnn.bench.paper")
        .kv("scale", p.opt.scale)
        .kv("epochs", std::uint64_t{p.epochs()})
        .kv("seed", std::uint64_t{p.opt.seed})
        .kv("hardware_threads",
            std::uint64_t{std::thread::hardware_concurrency()});
    w.end_object().key("benchmarks").begin_array();
    for (const Row& row : p.rows)
        w.begin_object()
            .kv("name", row.name)
            .kv("real_time", row.real_ns)
            .kv("time_unit", "ns")
            .kv(row.modelled ? "value" : "measured", row.figure)
            .end_object();
    const std::string flat = w.end_array().end_object().str();
    // One row per line, so the committed snapshot diffs line by line. The
    // copy is built by appending: GCC 12 at -O3 reports a -Wrestrict false
    // positive on std::string::insert here.
    std::string doc;
    std::size_t at = 0;
    for (std::size_t next; (next = flat.find("},{", at)) != flat.npos;
         at = next + 2) {
        doc.append(flat, at, next + 2 - at);
        doc += '\n';
    }
    doc.append(flat, at);
    std::ofstream out(p.opt.json);
    if (!(out << doc << '\n')) {
        std::fprintf(stderr, "cannot write --json output '%s'\n",
                     p.opt.json.c_str());
        std::exit(1);
    }
}

} // namespace

int main(int argc, char** argv) {
    std::string picked;
    Paper p(benchutil::parse_options(argc, argv, {{"--figure", &picked}}));

    // Every picked id must name a figure before any work starts.
    std::string ids = ",";
    for (const Figure& f : kFigures) ids += std::string(f.id) + ",";
    for (std::size_t at = 0; !picked.empty() && at <= picked.size();) {
        const std::size_t end = std::min(picked.find(',', at), picked.size());
        const std::string id = picked.substr(at, end - at);
        if (id.empty() || ids.find("," + id + ",") == std::string::npos) {
            std::fprintf(stderr, "unknown --figure '%s' (expected one of %s)\n",
                         id.c_str(), ids.c_str());
            return 2;
        }
        at = end + 1;
    }

    for (const Figure& f : kFigures) {
        if (!picked.empty() && ("," + picked + ",").find(
                                   "," + std::string(f.id) + ",") ==
                                   std::string::npos)
            continue;
        p.figure = f.id;
        p.figure_time.reset();
        f.run(p);
        std::printf("\n");
    }
    for (const std::string& line : p.claims) std::printf("%s\n", line.c_str());

    if (!p.opt.json.empty()) write_json(p);
    const std::string& obs_out = p.opt.scn.obs_out;
    if (!obs_out.empty() && obs::finish())
        std::printf("observability: wrote %s.trace.json and %s.report.json\n",
                    obs_out.c_str(), obs_out.c_str());
    for (const std::string& id : p.failed_gates)
        std::fprintf(stderr, "FAIL: gate %s\n", id.c_str());
    return p.failed_gates.empty() ? 0 : 1;
}
