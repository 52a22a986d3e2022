// Unit tests for the collective layer: hand-computed ring/tree/hier cost
// fixtures, per-link fault degradation, and the large-P preset claim that
// the hierarchical algorithm beats flat p2p on inter-node-bound fabrics.
#include <gtest/gtest.h>

#include <vector>

#include "scgnn/comm/collective.hpp"

namespace scgnn::comm::collective {
namespace {

TEST(CollectiveParse, NamesRoundTrip) {
    Algo a;
    EXPECT_TRUE(parse_algo("p2p", a));
    EXPECT_EQ(a, Algo::kP2P);
    EXPECT_TRUE(parse_algo("ring", a));
    EXPECT_EQ(a, Algo::kRing);
    EXPECT_TRUE(parse_algo("tree", a));
    EXPECT_EQ(a, Algo::kTree);
    EXPECT_TRUE(parse_algo("hier", a));
    EXPECT_EQ(a, Algo::kHier);
    EXPECT_FALSE(parse_algo("butterfly", a));
    EXPECT_STREQ(algo_name(Algo::kHier), "hier");
}

// ---------------------------------------------- hand-computed fixtures --
// All fixtures use α = 1e-3 s, bw = 1e6 B/s links so every term is exact
// in double arithmetic.

TEST(CollectiveCost, P2PFixture) {
    // P = 2, B = 1000: one round, both devices send and receive 1000 B.
    // Per send: 1e-3 + 1e-3 = 2e-3; per-device NIC load 4e-3.
    Fabric f(Topology::flat(2, CostModel{1e-3, 1e6}));
    Allreduce plan(f.topology(), Algo::kP2P, 1000);
    const Outcome oc = plan.run(f);
    EXPECT_EQ(oc.rounds, 1u);
    EXPECT_EQ(oc.messages, 2u);
    EXPECT_EQ(oc.wire_bytes, 2000u);
    EXPECT_DOUBLE_EQ(oc.modelled_s, 4e-3);
}

TEST(CollectiveCost, RingFixture) {
    // P = 4, B = 4000 → 1000-byte chunks, 2(P−1) = 6 rounds of 4 sends.
    // Per send 2e-3; each device sends one chunk and receives one per
    // round → per-round makespan 4e-3; total 24e-3 s.
    Fabric f(Topology::flat(4, CostModel{1e-3, 1e6}));
    Allreduce plan(f.topology(), Algo::kRing, 4000);
    const Outcome oc = plan.run(f);
    EXPECT_EQ(oc.rounds, 6u);
    EXPECT_EQ(oc.messages, 24u);
    EXPECT_EQ(oc.wire_bytes, 24000u);  // exactly 2(P−1)·B
    EXPECT_DOUBLE_EQ(oc.modelled_s, 24e-3);
    // Every send goes to the ring successor only.
    EXPECT_EQ(f.pair_stats(0, 1).bytes, 6000u);
    EXPECT_EQ(f.pair_stats(3, 0).bytes, 6000u);
    EXPECT_EQ(f.pair_stats(0, 2).bytes, 0u);
}

TEST(CollectiveCost, RingDistributesRemainderChunksExactly) {
    // B = 10 over P = 4 → chunks 3,3,2,2: total wire must be 2(P−1)·B
    // with no flooring loss.
    Fabric f(Topology::flat(4, CostModel{1e-3, 1e6}));
    Allreduce plan(f.topology(), Algo::kRing, 10);
    const Outcome oc = plan.run(f);
    EXPECT_EQ(oc.wire_bytes, 60u);
}

TEST(CollectiveCost, TreeFixture) {
    // P = 4, B = 4000: halving rounds move 2000 then 1000, doubling
    // replays in reverse. Round makespans 2·(1e-3 + b/1e6):
    // 6e-3, 4e-3, 4e-3, 6e-3 → 20e-3 s, wire 4·6000 = 24000.
    Fabric f(Topology::flat(4, CostModel{1e-3, 1e6}));
    Allreduce plan(f.topology(), Algo::kTree, 4000);
    const Outcome oc = plan.run(f);
    EXPECT_EQ(oc.rounds, 4u);
    EXPECT_EQ(oc.messages, 16u);
    EXPECT_EQ(oc.wire_bytes, 24000u);  // 2B(P−1)/P per device × P
    EXPECT_DOUBLE_EQ(oc.modelled_s, 20e-3);
}

TEST(CollectiveCost, TreeRequiresPowerOfTwo) {
    const Topology t = Topology::flat(6, CostModel{1e-3, 1e6});
    EXPECT_THROW((void)Allreduce(t, Algo::kTree, 64), Error);
    EXPECT_NO_THROW((void)Allreduce(Topology::flat(8), Algo::kTree, 64));
}

TEST(CollectiveCost, HierFixture) {
    // 2 nodes × 2 devices; intra α=1e-3 bw=1e6, inter α=2e-3 bw=1e6
    // oversubscribed 2× → effective 5e5. B = 4000.
    //   reduce: members → leaders, 4000 B intra: 1e-3 + 4e-3 = 5e-3;
    //   ring over 2 leaders: 2 rounds of 2000-byte chunks, per send
    //     2e-3 + 4e-3 = 6e-3, each leader sends+receives → 12e-3/round;
    //   bcast: mirror of reduce, 5e-3.
    // Total 5e-3 + 24e-3 + 5e-3 = 34e-3 s.
    const Topology topo = Topology::hierarchical(
        2, 2, CostModel{1e-3, 1e6}, CostModel{2e-3, 1e6}, 2.0);
    Fabric f(topo);
    Allreduce plan(topo, Algo::kHier, 4000);
    const Outcome oc = plan.run(f);
    EXPECT_EQ(oc.rounds, 4u);  // reduce + 2 ring + bcast
    EXPECT_EQ(oc.messages, 8u);
    EXPECT_EQ(oc.wire_bytes, 2u * 4000 + 4u * 2000 + 2u * 4000);
    EXPECT_DOUBLE_EQ(oc.modelled_s, 34e-3);
    // Only the leader ring crosses nodes.
    EXPECT_EQ(f.pair_stats(0, 2).bytes, 4000u);
    EXPECT_EQ(f.pair_stats(2, 0).bytes, 4000u);
    EXPECT_EQ(f.pair_stats(1, 3).bytes, 0u);
}

TEST(CollectiveCost, HierOnFlatTopologyDegeneratesToRing) {
    const Topology flat = Topology::flat(4, CostModel{1e-3, 1e6});
    Fabric fh(flat), fr(flat);
    const Outcome h = Allreduce(flat, Algo::kHier, 4000).run(fh);
    const Outcome r = Allreduce(flat, Algo::kRing, 4000).run(fr);
    EXPECT_EQ(h.rounds, r.rounds);
    EXPECT_EQ(h.wire_bytes, r.wire_bytes);
    EXPECT_DOUBLE_EQ(h.modelled_s, r.modelled_s);
}

TEST(CollectiveCost, SingleDeviceIsFree) {
    Fabric f(Topology::flat(1));
    for (const Algo a : {Algo::kP2P, Algo::kRing, Algo::kTree, Algo::kHier}) {
        Allreduce plan(f.topology(), a, 1 << 20);
        const Outcome oc = plan.run(f);
        EXPECT_EQ(oc.rounds, 0u);
        EXPECT_EQ(oc.wire_bytes, 0u);
    }
}

TEST(CollectiveCost, ScheduleIsReusableAcrossEpochs) {
    Fabric f(Topology::flat(4, CostModel{1e-3, 1e6}));
    Allreduce plan(f.topology(), Algo::kRing, 4000);
    const Outcome first = plan.run(f);
    f.end_epoch();
    const Outcome second = plan.run(f);
    EXPECT_EQ(first.wire_bytes, second.wire_bytes);
    EXPECT_DOUBLE_EQ(first.modelled_s, second.modelled_s);
}

// ------------------------------------------------------ fault plane ----

TEST(CollectiveFault, DeadInterNodeLinkDegradesOnlyCrossingRounds) {
    const Topology topo = Topology::hierarchical(
        2, 2, CostModel{1e-3, 1e6}, CostModel{2e-3, 1e6});
    Fabric f(topo);
    FaultModel fm;
    fm.down_windows.push_back(LinkDownWindow{0, 2, 0, 0});  // leader link
    f.set_fault_model(fm);
    RetryPolicy rp;
    rp.max_attempts = 2;
    f.set_retry_policy(rp);

    Allreduce plan(topo, Algo::kHier, 4000);
    const Outcome oc = plan.run(f);
    // The two ring rounds each push one chunk over the dead 0→2 link and
    // fail after retries; every other send (intra rounds, the 2→0 ring
    // direction) is untouched.
    EXPECT_EQ(oc.failed_sends, 2u);
    EXPECT_GT(oc.penalty_s, 0.0);
    EXPECT_EQ(f.epoch_fault_stats().link_down_hits, 4u);  // 2 sends × 2 tries
    EXPECT_EQ(f.pair_stats(0, 2).bytes, 0u);     // nothing crossed the wire
    EXPECT_EQ(f.pair_stats(2, 0).bytes, 4000u);  // reverse direction clean
    EXPECT_EQ(f.pair_stats(1, 0).bytes, 4000u);  // intra reduce clean
}

// ------------------------------------------------------ scaling claim --

TEST(CollectiveScaling, HierBeatsFlatP2POnTheP64Preset) {
    // The acceptance claim of the large-P presets: on the 8×8,
    // 4×-oversubscribed fabric, the hierarchical allreduce's modelled
    // sync time is strictly below the flat all-pairs exchange.
    const TopologySpec spec = TopologySpec::preset(64);
    const Topology topo = Topology::build(spec, 64);
    constexpr std::uint64_t kB = 4u << 20;  // 4 MiB, a GCN-sized gradient
    Fabric fp(topo), fh(topo);
    const Outcome p2p = Allreduce(topo, Algo::kP2P, kB).run(fp);
    const Outcome hier = Allreduce(topo, Algo::kHier, kB).run(fh);
    EXPECT_LT(hier.modelled_s, p2p.modelled_s);
    // The margin is structural (Θ(P) vs Θ(1) full payloads per NIC), not
    // a rounding artefact.
    EXPECT_LT(hier.modelled_s * 5.0, p2p.modelled_s);
    EXPECT_LT(hier.wire_bytes, p2p.wire_bytes);
}

} // namespace
} // namespace scgnn::comm::collective
