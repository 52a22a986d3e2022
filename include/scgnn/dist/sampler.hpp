#pragma once
/// \file sampler.hpp
/// \brief Seeded neighbor sampling for mini-batch GNN training — the
///        sampled-workload half of the Scenario API (DESIGN.md §14).
///
/// A batch starts from `batch_size` seed nodes drawn from a per-epoch
/// permutation of the train split and recursively samples at most
/// `fanout[l]` in-neighbors per consumer at aggregation layer l, GraphSAGE
/// style: the self term of the normalised adjacency is always kept at its
/// exact weight, and the sampled non-self entries are rescaled by
/// (candidates / sampled) so the sampled aggregation stays an unbiased
/// estimate of the full one. Every draw is keyed by a splitmix64 chain
/// over (seed, epoch, batch, layer, node), so a batch is bitwise identical
/// at any thread count, in any build order and across runs.
///
/// The cross-partition edges of a batch do not trigger the full boundary
/// exchange of the fixed path: they are collected into per-(layer, plan)
/// *halo requests* naming only the sampled boundary rows, which the
/// sampled trainer prices through BoundaryCompressor::forward_subset /
/// backward_subset and Fabric::send — the request-driven transfer model of
/// serving-style systems, composed with semantic/EF compression on the
/// requested subset.

#include <cstdint>
#include <vector>

#include "scgnn/dist/context.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace scgnn::dist {

/// Neighbor-sampling configuration.
struct SamplerConfig {
    std::uint32_t batch_size = 512;  ///< seed nodes per batch
    /// Per-layer in-neighbor budget. Either one entry per aggregation
    /// layer, or a single entry broadcast to every layer.
    std::vector<std::uint32_t> fanout{10, 5};
    std::uint64_t seed = 17;  ///< permutation + sampling seed
};

/// The sampled boundary rows one batch requests from one exchange plan at
/// one aggregation layer, plus the cross edges that consume them.
struct PlanRequest {
    std::size_t plan = 0;  ///< index into DistContext::plans()
    /// Requested plan rows, ascending unique — the `rows` argument of the
    /// subset compressor exchange.
    std::vector<std::uint32_t> rows;
    /// Batch-local row of each requested node (parallel to `rows`), where
    /// the owner gathers the payload from.
    std::vector<std::uint32_t> src_local;
    std::vector<std::uint32_t> edge_dst;  ///< batch-local consumer per edge
    std::vector<std::uint32_t> edge_req;  ///< index into `rows` per edge
    std::vector<float> edge_w;            ///< aggregation weight per edge
};

/// One sampled mini-batch: the union of every node touched at any layer,
/// in ascending global order (= batch-local order), with the intra-device
/// edges as per-layer sparse matrices and the cross-device edges as halo
/// requests.
struct SampledBatch {
    std::vector<std::uint32_t> nodes;  ///< ascending global ids
    std::vector<std::uint32_t> seeds;  ///< batch-local indices of the seeds
    /// Per aggregation layer, the same-owner sampled edges as a
    /// (|nodes| × |nodes|) matrix over batch-local indices. Rows of nodes
    /// that are not consumers at that layer are empty.
    std::vector<tensor::SparseMatrix> local_adj;
    std::vector<std::vector<PlanRequest>> requests;  ///< [layer][request]
    std::uint64_t halo_rows = 0;  ///< Σ requested rows over layers/plans
    std::uint64_t sampled_edges = 0;  ///< intra + cross sampled edges
};

/// Seeded, thread-count-invariant neighbor sampler over a partitioned
/// dataset. Build once per run; call begin_epoch() then
/// sample(b, scratch, out) or batch(b) for b ∈ [0, num_batches()). Both
/// are const and keep no state between calls, so several threads may
/// sample batches of one sampler at once, each into its own Scratch.
class NeighborSampler {
public:
    /// Caller-owned working memory of one batch build: a node →
    /// batch-local position array, per-node dedup stamps and request
    /// slots, the frontier levels and per-consumer draw buffers. The
    /// sampled edges are staged in the output batch's own storage. The
    /// three per-node arrays take 12 bytes per graph node, so a Scratch
    /// costs O(N) however small the batch: a caller that keeps one per
    /// thread holds O(threads · N). Once a Scratch and the output batch
    /// have served a batch of similar size, sampling into them allocates
    /// nothing. Nothing carries over from one batch to the next.
    class Scratch {
    private:
        friend class NeighborSampler;
        /// One aggregation layer's same-owner edges while the batch is
        /// built: the output matrix's arrays, swapped out and back in.
        struct Layer {
            std::vector<std::uint64_t> ends;  ///< per consumer: end in col
            std::vector<std::uint64_t> ptr;   ///< CSR row pointers
            std::vector<std::uint32_t> col;
            std::vector<float> val;
        };
        std::vector<std::uint32_t> pos;    ///< node → batch-local index
        std::vector<std::uint32_t> stamp;  ///< node → last level stamp
        std::uint32_t tick = 0;            ///< last stamp handed out
        std::vector<std::uint32_t> slot;   ///< node → index in its request
        std::vector<std::uint32_t> others, pick, pool;  ///< per consumer
        std::vector<std::vector<std::uint32_t>> need;  ///< [level] nodes
        std::vector<Layer> layers;
    };

    /// `num_layers` is the model's aggregation depth (fanout must have one
    /// entry, broadcast, or exactly `num_layers` entries, each ≥ 1).
    NeighborSampler(const graph::Dataset& data, const DistContext& ctx,
                    gnn::AdjNorm norm, std::uint32_t num_layers,
                    SamplerConfig cfg);

    /// Re-permute the train split for epoch `epoch` (deterministic).
    void begin_epoch(std::uint64_t epoch);

    /// Batches per epoch: ceil(train split / batch_size).
    [[nodiscard]] std::size_t num_batches() const noexcept;

    /// Sample batch `b` of the current epoch into `out`, working in
    /// `scratch` and reusing the storage `out` already has. The batch is a
    /// pure function of (config seed, epoch, b) — rebuilding it gives the
    /// same result bit for bit, whatever scratch, output or thread builds
    /// it.
    void sample(std::size_t b, Scratch& scratch, SampledBatch& out) const;

    /// sample() with a scratch of its own into a new batch (allocates per
    /// call).
    [[nodiscard]] SampledBatch batch(std::size_t b) const;

    /// Fanout at aggregation layer `l` (broadcast-aware).
    [[nodiscard]] std::uint32_t fanout_at(std::size_t l) const noexcept {
        return cfg_.fanout.size() == 1 ? cfg_.fanout[0]
                                       : cfg_.fanout[l];
    }

    [[nodiscard]] const SamplerConfig& config() const noexcept { return cfg_; }
    /// The global normalised adjacency Â the sampler draws from.
    [[nodiscard]] const tensor::SparseMatrix& adjacency() const noexcept {
        return adj_;
    }
    [[nodiscard]] std::uint32_t num_layers() const noexcept {
        return num_layers_;
    }

private:
    /// One boundary row of node u: plan `plan` (u's part → dst_part)
    /// sends u as its row `row`.
    struct PlanRow {
        std::uint32_t dst_part, plan, row;
    };

    /// The plan and plan row that carry `src` to part `dst_part`.
    [[nodiscard]] const PlanRow& plan_row(std::uint32_t src,
                                          std::uint32_t dst_part) const;

    const DistContext* ctx_;
    SamplerConfig cfg_;
    std::uint32_t num_layers_;
    tensor::SparseMatrix adj_;  ///< global normalised adjacency
    std::vector<std::uint32_t> order_;  ///< permuted train node ids
    /// Per-node CSR of boundary rows: node u's rows are
    /// plan_rows_[plan_row_ptr_[u] .. plan_row_ptr_[u + 1]).
    std::vector<std::uint64_t> plan_row_ptr_;
    std::vector<PlanRow> plan_rows_;
    std::uint64_t epoch_ = 0;
};

} // namespace scgnn::dist
