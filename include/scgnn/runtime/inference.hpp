#pragma once
/// \file inference.hpp
/// \brief Request-driven inference serving over the partitioned devices —
///        the `serve` half of the Scenario API (DESIGN.md §14).
///
/// An open-loop stream of "embed node v" queries arrives at a configured
/// QPS and is routed to the partition owning v. Serving one query needs
/// the L-hop neighborhood of v; the remote part of that neighborhood is
/// resolved into *halo units* — one per touched semantic group (any
/// member's arrival serves the whole group, the serving-side payoff of
/// the paper's fused-row compression) or one per raw boundary row — and
/// only the units missing from the device's halo cache cross the fabric.
/// Queries are micro-batched per device under a latency deadline; the
/// whole simulation is modelled time (no wall-clock reads), so a serving
/// run is bitwise reproducible at any thread count.

#include <cstdint>
#include <vector>

#include "scgnn/comm/fabric.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/context.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/graph/graph.hpp"
#include "scgnn/partition/partition.hpp"

namespace scgnn::runtime {

/// Serving-scenario configuration.
struct ServeConfig {
    /// Modelled service-time components (per dispatch / per touched node).
    static constexpr double kDispatchOverheadMs = 0.05;
    static constexpr double kComputeMsPerNode = 0.0005;
    /// Latency histogram bins over [0, hist_max_ms] (quantiles are exact
    /// within one bin width).
    static constexpr std::size_t kHistBins = 2048;

    double qps = 2000.0;          ///< open-loop arrival rate (queries/s)
    std::uint32_t queries = 2000; ///< stream length
    std::uint64_t seed = 23;      ///< query-node stream seed
    /// Micro-batch budget per dispatch: a batch closes when it holds
    /// `batch_max` queries or its deadline expires, whichever first.
    /// 1 = the naive per-query path (no batching).
    std::uint32_t batch_max = 8;
    double deadline_ms = 2.0;  ///< batching window anchored at head arrival
    /// Keep fetched halo units resident per device; off = every unit is
    /// re-fetched on every touch (the naive path that `bench_paper
    /// --figure serving` compares against).
    bool halo_cache = true;
    /// Cache/fetch at semantic-group granularity (one fused row per
    /// group, keyed by group signature). Off = raw per-row units.
    bool semantic = true;
    std::uint32_t layers = 2;     ///< aggregation hops a query resolves
    std::uint32_t embed_dim = 64; ///< served embedding width (fetch bytes)
    double hist_max_ms = 50.0;    ///< latency histogram range
    comm::CostModel cost{};  ///< α–β pricing of the halo fetches
    /// Semantic grouping knobs (only read when `semantic` is on).
    core::SemanticCompressorConfig compressor{};
};

/// Throw scgnn::Error unless `cfg` is well-formed: positive qps and
/// histogram range, at least one query, hop and embedding column,
/// batch_max >= 1 and a non-negative deadline.
void validate(const ServeConfig& cfg);

/// Outcome of one serving run (all modelled, all deterministic).
struct ServeResult {
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    double mean_batch = 0.0;  ///< mean queries per dispatch
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    double hit_rate = 0.0;  ///< hits / (hits + misses), 0 when no touches
    double halo_mb = 0.0;   ///< fetched halo bytes / 1e6
};

/// Deterministic open-loop serving simulator. Build once per dataset +
/// partitioning (the static setup: DistContext, under `semantic` the
/// per-plan groupings, and the dense halo-unit index), then run() any
/// number of identical streams.
///
/// Every halo unit has a dense id, laid out per plan as [groups][raw rows]
/// followed by one off-plan id per node. run() is const, keeps all scratch
/// local to the call, and is safe to call concurrently on one server.
class InferenceServer {
public:
    InferenceServer(const graph::Dataset& data,
                    const partition::Partitioning& parts, ServeConfig cfg);

    /// Serve the configured query stream; pure function of the config.
    [[nodiscard]] ServeResult run() const;

    [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const dist::DistContext& context() const noexcept {
        return ctx_;
    }

private:
    /// Per-call scratch of run() (defined in inference.cpp).
    struct Scratch;

    /// Resolve the remote halo units of query node `v` (appended to
    /// `s.units` as dense ids) and return the number of nodes its L-hop
    /// neighborhood touches (the compute term).
    std::size_t resolve_units(std::uint32_t v, Scratch& s) const;

    /// A plan row of one node: the unit id it resolves to for `home`.
    struct HomeUnit {
        std::uint32_t home;
        std::uint32_t unit;
    };

    ServeConfig cfg_;
    dist::DistContext ctx_;
    graph::Graph graph_;  ///< BFS edges (Â's pattern minus its self-loops)
    /// Per node, its plan rows sorted by home part (CSR over nodes): the
    /// O(N + Σ plan rows) index behind unit resolution.
    std::vector<std::uint64_t> home_ptr_;
    std::vector<HomeUnit> home_units_;
    std::uint32_t off_plan_base_ = 0;  ///< unit id of off-plan node 0
    std::vector<std::uint32_t> unit_owner_;  ///< owner part per unit id
};

} // namespace scgnn::runtime
