#include "scgnn/comm/collective.hpp"

#include <algorithm>
#include <cstring>

namespace scgnn::comm::collective {

namespace {

/// Chunk c of an even B-byte split across P ranks (remainder spread over
/// the leading chunks, so Σ chunks == B exactly).
[[nodiscard]] std::uint64_t chunk_bytes(std::uint64_t bytes, std::uint32_t p,
                                        std::uint32_t c) {
    return bytes / p + (c < bytes % p ? 1 : 0);
}

/// Chunked ring allreduce over `ring` (device ids in ring order), payload
/// `bytes` per participant: P−1 reduce-scatter rounds followed by P−1
/// allgather rounds, each moving one chunk per participant to its ring
/// successor. Appends to `out`.
void build_ring(std::vector<Round>& out,
                const std::vector<std::uint32_t>& ring, std::uint64_t bytes,
                const char* label) {
    const auto p = static_cast<std::uint32_t>(ring.size());
    if (p < 2) return;
    // Reduce-scatter round r: position i forwards chunk (i − r) mod P;
    // allgather round r: position i forwards chunk (i + 1 − r) mod P.
    for (std::uint32_t phase = 0; phase < 2; ++phase) {
        for (std::uint32_t r = 0; r + 1 < p; ++r) {
            Round round;
            round.label = label;
            round.sends.reserve(p);
            for (std::uint32_t i = 0; i < p; ++i) {
                const std::uint32_t c =
                    (i + (phase == 0 ? 0u : 1u) + 2u * p - r) % p;
                round.sends.push_back(RoundSend{ring[i], ring[(i + 1) % p],
                                                chunk_bytes(bytes, p, c)});
            }
            out.push_back(std::move(round));
        }
    }
}

/// Full participation: every device of the topology, in canonical order.
[[nodiscard]] std::vector<std::uint32_t> iota_ranks(std::uint32_t n) {
    std::vector<std::uint32_t> ranks(n);
    for (std::uint32_t d = 0; d < n; ++d) ranks[d] = d;
    return ranks;
}

/// Build the round schedule for an arbitrary ascending subset of the
/// topology's devices. With the full rank set this reproduces the fixed-P
/// schedules bit for bit (same rounds, same send order) — the static path
/// must stay golden-identical; a strict subset restricts every phase to
/// the survivors (the elastic runtime's rebuilt weight sync).
[[nodiscard]] std::vector<Round> build_schedule(
    const Topology& topo, Algo algo, std::uint64_t bytes,
    const std::vector<std::uint32_t>& ranks) {
    const auto n = static_cast<std::uint32_t>(ranks.size());
    std::vector<Round> rounds;
    if (n < 2) return rounds;

    switch (algo) {
        case Algo::kP2P: {
            // Every device pushes its full payload to every other device;
            // the single round leaves all serialisation to the NICs.
            Round round;
            round.label = "sync";
            round.sends.reserve(static_cast<std::size_t>(n) * (n - 1));
            for (const std::uint32_t s : ranks)
                for (const std::uint32_t d : ranks)
                    if (s != d) round.sends.push_back(RoundSend{s, d, bytes});
            rounds.push_back(std::move(round));
            break;
        }
        case Algo::kRing: {
            build_ring(rounds, ranks, bytes, "sync");
            break;
        }
        case Algo::kTree: {
            if ((n & (n - 1)) != 0) {
                SCGNN_CHECK(
                    n != topo.num_devices(),
                    "tree collective needs a power-of-two device count");
                // Ragged survivor set: halving/doubling has no partner
                // for every rank — fall back to the ring schedule over
                // the same ranks.
                build_ring(rounds, ranks, bytes, "sync");
                break;
            }
            std::uint32_t log_p = 0;
            while ((1u << log_p) < n) ++log_p;
            // Recursive halving (reduce-scatter): round k exchanges
            // B/2^(k+1) with the partner 2^k away in *rank index* space;
            // recursive doubling (allgather) replays the rounds in
            // reverse.
            for (std::uint32_t k = 0; k < log_p; ++k) {
                Round round;
                round.label = "sync";
                round.sends.reserve(n);
                for (std::uint32_t i = 0; i < n; ++i)
                    round.sends.push_back(RoundSend{
                        ranks[i], ranks[i ^ (1u << k)], bytes >> (k + 1)});
                rounds.push_back(std::move(round));
            }
            for (std::uint32_t k = log_p; k-- > 0;) {
                Round round;
                round.label = "sync";
                round.sends.reserve(n);
                for (std::uint32_t i = 0; i < n; ++i)
                    round.sends.push_back(RoundSend{
                        ranks[i], ranks[i ^ (1u << k)], bytes >> (k + 1)});
                rounds.push_back(std::move(round));
            }
            break;
        }
        case Algo::kHier: {
            // Group the participating ranks by node; the acting leader of
            // a node is its lowest participating member (the configured
            // leader may have left), and nodes with no member drop out of
            // the inter-node ring entirely.
            const std::uint32_t nodes = topo.num_nodes();
            std::vector<std::vector<std::uint32_t>> members(nodes);
            for (const std::uint32_t d : ranks)
                members[topo.node_of(d)].push_back(d);
            // Phase 1: every non-leader member reduces into its node's
            // acting leader over the fast intra tier (empty on flat
            // topologies, where every device is its own leader).
            Round reduce;
            reduce.label = "sync.reduce";
            for (std::uint32_t node = 0; node < nodes; ++node)
                for (std::size_t m = 1; m < members[node].size(); ++m)
                    reduce.sends.push_back(RoundSend{
                        members[node][m], members[node][0], bytes});
            const bool has_intra = !reduce.sends.empty();
            if (has_intra) rounds.push_back(std::move(reduce));
            // Phase 2: ring allreduce among the acting leaders — the only
            // phase that touches the slow inter-node tier, moving B/N
            // chunks.
            std::vector<std::uint32_t> leaders;
            leaders.reserve(nodes);
            for (std::uint32_t node = 0; node < nodes; ++node)
                if (!members[node].empty())
                    leaders.push_back(members[node][0]);
            build_ring(rounds, leaders, bytes, "sync.ring");
            // Phase 3: leaders broadcast the reduced payload back inside
            // their node.
            if (has_intra) {
                Round bcast;
                bcast.label = "sync.bcast";
                for (std::uint32_t node = 0; node < nodes; ++node)
                    for (std::size_t m = 1; m < members[node].size(); ++m)
                        bcast.sends.push_back(RoundSend{
                            members[node][0], members[node][m], bytes});
                rounds.push_back(std::move(bcast));
            }
            break;
        }
    }
    return rounds;
}

} // namespace

bool parse_algo(const char* s, Algo& out) {
    if (std::strcmp(s, "p2p") == 0) out = Algo::kP2P;
    else if (std::strcmp(s, "ring") == 0) out = Algo::kRing;
    else if (std::strcmp(s, "tree") == 0) out = Algo::kTree;
    else if (std::strcmp(s, "hier") == 0) out = Algo::kHier;
    else return false;
    return true;
}

const char* algo_name(Algo a) noexcept {
    switch (a) {
        case Algo::kP2P: return "p2p";
        case Algo::kRing: return "ring";
        case Algo::kTree: return "tree";
        case Algo::kHier: return "hier";
    }
    return "?";
}

Allreduce::Allreduce(const Topology& topo, Algo algo, std::uint64_t bytes)
    : Allreduce(topo, algo, bytes, iota_ranks(topo.num_devices())) {}

Allreduce::Allreduce(const Topology& topo, Algo algo, std::uint64_t bytes,
                     const std::vector<std::uint32_t>& ranks)
    : algo_(algo), load_(topo.num_devices(), 0.0) {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        SCGNN_CHECK(ranks[i] < topo.num_devices(),
                    "allreduce rank out of range for the topology");
        SCGNN_CHECK(i == 0 || ranks[i - 1] < ranks[i],
                    "allreduce ranks must be strictly ascending");
    }
    rounds_ = build_schedule(topo, algo, bytes, ranks);
}

Outcome Allreduce::run(Fabric& fabric, Timeline* timeline) {
    Outcome oc;
    oc.algo = algo_;
    oc.rounds = static_cast<std::uint32_t>(rounds_.size());
    SCGNN_CHECK(load_.empty() || load_.size() == fabric.num_devices(),
                "allreduce schedule was built for a different device count");
    for (const Round& round : rounds_) {
        std::fill(load_.begin(), load_.end(), 0.0);
        if (timeline != nullptr) timeline->begin_step(round.label);
        for (const RoundSend& s : round.sends) {
            const SendOutcome sent = fabric.send(s.src, s.dst, s.bytes, 1);
            oc.wire_bytes += sent.wire_bytes;
            ++oc.messages;
            if (!sent.delivered) ++oc.failed_sends;
            oc.penalty_s += sent.penalty_s;
            const double sec = sent.modelled_ms * 1e-3;
            // NIC serialisation: the transfer occupies both endpoints.
            load_[s.src] += sec;
            load_[s.dst] += sec;
            if (timeline != nullptr)
                timeline->record_send(s.src, s.dst, sent.wire_bytes, sec);
        }
        if (timeline != nullptr) timeline->end_step();
        double worst = 0.0;
        for (const double l : load_) worst = std::max(worst, l);
        oc.modelled_s += worst;
    }
    return oc;
}

} // namespace scgnn::comm::collective
