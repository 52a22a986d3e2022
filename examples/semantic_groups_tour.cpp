// A guided tour of SC-GNN's semantic machinery (§3 of the paper) on a
// small graph you can read by hand: DBG extraction, connection-type
// classification, similarity measurement, k-means grouping with EEP
// selection, L-SALSA weights, and the Fig. 7(b) fuse/disassemble step with
// its approximation error.
//
// Run: ./build/examples/semantic_groups_tour
#include <cstdio>

#include "scgnn/common/table.hpp"
#include "scgnn/core/elbow.hpp"
#include "scgnn/core/semantic_aggregate.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/graph/generators.hpp"
#include "scgnn/partition/partition.hpp"

int main() {
    using namespace scgnn;

    // 1. A two-community graph, partitioned in two.
    graph::PlantedPartitionSpec spec;
    spec.nodes = 400;
    spec.communities = 2;
    spec.avg_degree = 18.0;
    spec.homophily = 0.75;
    Rng rng(7);
    const graph::Graph g = graph::planted_partition(spec, rng, nullptr);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, g, 2, 7);
    std::printf("graph: %u nodes, %llu edges; 2 partitions (node-cut)\n",
                g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()));

    // 2. Extract the directed bipartite graph for the pair (0 -> 1).
    const graph::Dbg dbg = graph::extract_dbg(g, parts.part_of, 0, 1);
    std::printf("DBG 0->1: |U|=%u sources, |V|=%u sinks, |E|=%llu cross "
                "edges\n",
                dbg.num_src(), dbg.num_dst(),
                static_cast<unsigned long long>(dbg.num_edges()));

    // 3. Classify the cross edges (Fig. 2(c)).
    const graph::ConnectionMix mix = graph::connection_mix(dbg);
    std::printf("connection mix: O2O %.1f%%  O2M %.1f%%  M2O %.1f%%  "
                "M2M %.1f%%\n\n",
                100 * mix.fraction(graph::ConnectionType::kO2O),
                100 * mix.fraction(graph::ConnectionType::kO2M),
                100 * mix.fraction(graph::ConnectionType::kM2O),
                100 * mix.fraction(graph::ConnectionType::kM2M));

    // 4. Semantic similarity between the first few source pairs (Eq. (1)).
    std::printf("sample similarities (first sources of U):\n");
    Table sims({"pair", "common sinks", "jaccard", "semantic"});
    for (std::uint32_t u = 0; u + 1 < std::min(dbg.num_src(), 5u); ++u) {
        const auto a = dbg.out_neighbors(u);
        const auto b = dbg.out_neighbors(u + 1);
        std::string pair = "(";
        pair += Table::num(std::uint64_t{u});
        pair += ',';
        pair += Table::num(std::uint64_t{u + 1});
        pair += ')';
        sims.add_row({pair,
                      Table::num(std::uint64_t{core::intersection_size(a, b)}),
                      Table::num(core::jaccard_similarity(a, b), 3),
                      Table::num(core::semantic_similarity(a, b), 3)});
    }
    std::printf("%s\n", sims.str().c_str());

    // 5. Pick the group number by EEP and build the grouping.
    const auto cls = core::classify_sources(dbg);
    std::vector<std::uint32_t> pool;
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == graph::ConnectionType::kM2M) pool.push_back(u);
    core::ElbowConfig ec;
    ec.k_min = 2;
    ec.k_max = std::min<std::uint32_t>(16,
                                       static_cast<std::uint32_t>(pool.size()));
    const core::ElbowResult elbow = core::find_eep_dbg(dbg, pool, ec);
    std::printf("EEP search over the M2M pool (%zu sources) picks k=%u\n",
                pool.size(), elbow.best_k);

    core::GroupingConfig gc;
    gc.kmeans_k = elbow.best_k;
    const core::Grouping grouping = core::build_grouping(dbg, gc);
    std::printf("grouping: %zu groups + %zu raw rows; wire rows %llu vs "
                "%llu per-edge rows => compression %.1fx\n",
                grouping.groups.size(), grouping.raw_rows.size(),
                static_cast<unsigned long long>(grouping.wire_rows(dbg)),
                static_cast<unsigned long long>(dbg.num_edges()),
                grouping.compression_ratio(dbg));

    // 6. L-SALSA weights of the biggest group.
    const core::SemanticGroup* biggest = nullptr;
    for (const auto& grp : grouping.groups)
        if (!biggest || grp.edges > biggest->edges) biggest = &grp;
    if (biggest) {
        std::printf("\nbiggest group: %zu sources, %zu sinks, %llu edges "
                    "(ratio %llu:1)\n",
                    biggest->members.size(), biggest->sinks.size(),
                    static_cast<unsigned long long>(biggest->edges),
                    static_cast<unsigned long long>(biggest->edges));
        std::printf("first out-weights (w_u = D(u)/|E|):");
        for (std::size_t i = 0; i < std::min<std::size_t>(5, biggest->members.size()); ++i)
            std::printf(" %.3f", biggest->out_weights[i]);
        std::printf("\nfirst in-weights  (w_v = D(v)/|E|):");
        for (std::size_t i = 0; i < std::min<std::size_t>(5, biggest->sinks.size()); ++i)
            std::printf(" %.3f", biggest->in_weights[i]);
        std::printf("\n");
    }

    // 7. Fuse/disassemble (Fig. 7(b)) vs per-edge transmission (Fig. 7(a)).
    Rng feat_rng(9);
    const tensor::Matrix h =
        tensor::Matrix::randn(dbg.num_src(), 16, feat_rng);
    const core::AggregateResult exact = core::traditional_aggregate(dbg, h);
    const core::AggregateResult approx =
        core::semantic_aggregate(dbg, grouping, h);
    std::printf("\nFig. 7 comparison: %llu rows transmitted (traditional) "
                "vs %llu (semantic); relative approximation error %.3f\n",
                static_cast<unsigned long long>(exact.rows_transmitted),
                static_cast<unsigned long long>(approx.rows_transmitted),
                core::approximation_error(dbg, grouping, h));
    std::printf("(groups fuse h_g = sum w_u*h_u; each sink receives its "
                "L-SALSA share D(v)*h_g)\n");
    return 0;
}
