#pragma once
/// \file collective.hpp
/// \brief Collective algorithms for weight synchronisation over the
///        simulated fabric: ring allreduce, recursive halving/doubling
///        ("tree"), a two-level hierarchical algorithm for node-grouped
///        topologies, and the naive all-pairs exchange as the baseline.
///
/// The layer only prices the synchronisation. A collective is an
/// explicit per-round schedule of directed sends. Every send goes through
/// Fabric::send(), so per-tier link models, fault schedules and retry
/// penalties all apply per link — a dead inter-node link degrades the
/// rounds that cross it, not the whole collective. With a Timeline
/// attached, each round becomes one "sync" step, so ring rounds serialise
/// on their directed links and overlap mode reports hidden vs exposed
/// collective time. No float buffer is reduced here: training keeps one
/// replicated weight copy, so the loss curve is the same for every
/// algorithm and thread count because there is nothing to reduce.
///
/// Cost shapes (B = per-device payload, α–β per the link tier):
///   ring  2(P−1) rounds of B/P chunks on neighbour links:
///         ≈ 2(P−1)(α + B/(P·bw));
///   tree  2·log2(P) pairwise-exchange rounds of halving/doubling
///         segments (total 2B(P−1)/P per device), P a power of two;
///   hier  reduce-intra (members → node leader, fast links) → ring-inter
///         over the N leaders (slow links, B/N chunks) → broadcast-intra:
///         the inter-node tier only ever carries the N-leader ring;
///   p2p   every device sends its full payload to every other device —
///         P(P−1)·B total, the flat baseline the collectives beat.
/// See DESIGN.md §11 for the derivations.

#include <cstdint>
#include <vector>

#include "scgnn/comm/fabric.hpp"
#include "scgnn/comm/timeline.hpp"
#include "scgnn/comm/topology.hpp"

namespace scgnn::comm::collective {

/// Which algorithm prices (and orders) the synchronisation.
enum class Algo : std::uint8_t {
    kP2P = 0,   ///< all-pairs full-payload exchange (baseline)
    kRing = 1,  ///< chunked ring allreduce (reduce-scatter + allgather)
    kTree = 2,  ///< recursive halving/doubling (P must be a power of two)
    kHier = 3,  ///< reduce-intra → ring-inter → broadcast-intra
};

/// Parse a `--collective` value (p2p|ring|tree|hier); false when unknown.
[[nodiscard]] bool parse_algo(const char* s, Algo& out);

/// Printable algorithm name.
[[nodiscard]] const char* algo_name(Algo a) noexcept;

/// Aggregate outcome of one collective execution.
struct Outcome {
    Algo algo = Algo::kRing;
    std::uint32_t rounds = 0;       ///< serialised schedule rounds
    std::uint64_t wire_bytes = 0;   ///< bytes charged across all sends
    std::uint64_t messages = 0;     ///< logical sends issued
    std::uint64_t failed_sends = 0; ///< sends that exhausted their retries
    double penalty_s = 0.0;         ///< summed fault timeout/backoff waits
    /// Standalone modelled makespan of the collective: rounds serialise,
    /// and within a round each device's NIC serialises its own in+out
    /// transfers (the fabric's congestion shape) while distinct devices
    /// proceed in parallel.
    double modelled_s = 0.0;
};

/// One directed transfer of a schedule round.
struct RoundSend {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t bytes = 0;
};

/// One schedule round: sends that fly concurrently (subject to per-link
/// and per-NIC serialisation); successive rounds are dependency-ordered.
struct Round {
    const char* label = "sync";  ///< timeline step label (string literal)
    std::vector<RoundSend> sends;
};

/// A reusable allreduce executor: the schedule is built once from
/// (topology, algorithm, payload) and replayed every epoch, so
/// steady-state epochs run it without heap allocations.
class Allreduce {
public:
    /// An empty executor (no rounds); assign a real one before run().
    Allreduce() = default;

    /// Build the schedule of `algo` for a payload of `bytes` per device
    /// over `topo`. kTree requires a power-of-two device count; kHier
    /// degenerates to a plain ring on flat topologies (every device is
    /// its own node-leader).
    Allreduce(const Topology& topo, Algo algo, std::uint64_t bytes);

    /// Build the schedule restricted to an ascending subset of the
    /// topology's devices (the elastic runtime's surviving ranks): rings
    /// run over the listed ranks, tree pairs up rank *indices* (falling
    /// back to the ring schedule when the subset is not a power of two),
    /// and hier elects each node's lowest participating member as its
    /// acting leader, dropping empty nodes from the inter-node ring.
    /// With the full rank set 0..P−1 the schedule is bit-identical to the
    /// three-argument constructor.
    Allreduce(const Topology& topo, Algo algo, std::uint64_t bytes,
              const std::vector<std::uint32_t>& ranks);

    /// The built schedule (one entry per round).
    [[nodiscard]] const std::vector<Round>& schedule() const noexcept {
        return rounds_;
    }

    /// Execute the cost plane: charge every scheduled send through
    /// `fabric.send()` (fault model and retry policy apply per link) and,
    /// with a non-null `timeline`, record each round as one step inside
    /// the caller's open epoch. Reusable across epochs.
    Outcome run(Fabric& fabric, Timeline* timeline = nullptr);

private:
    Algo algo_ = Algo::kRing;
    std::vector<Round> rounds_;
    std::vector<double> load_;  ///< per-device scratch, reused across runs
};

} // namespace scgnn::comm::collective
