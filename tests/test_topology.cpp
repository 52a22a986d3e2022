// Unit tests for the topology model: node grouping, tier resolution,
// oversubscription folding, presets, --topology parsing, and the
// (node, device)-namespaced per-link obs ledger keys.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scgnn/comm/fabric.hpp"
#include "scgnn/comm/topology.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"

namespace scgnn::comm {
namespace {

TEST(Topology, FlatIsOneDevicePerNode) {
    const Topology t = Topology::flat(4, CostModel{1e-3, 1e6});
    EXPECT_EQ(t.num_devices(), 4u);
    EXPECT_EQ(t.num_nodes(), 4u);
    EXPECT_EQ(t.devices_per_node(), 1u);
    EXPECT_FALSE(t.hierarchical());
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_EQ(t.node_of(d), d);
        EXPECT_EQ(t.local_of(d), 0u);
        EXPECT_EQ(t.leader_of(d), d);
    }
    EXPECT_FALSE(t.intra_node(0, 3));
    EXPECT_DOUBLE_EQ(t.link(0, 3).latency_s, 1e-3);
    EXPECT_DOUBLE_EQ(t.link(0, 3).bandwidth_bytes_per_s, 1e6);
}

TEST(Topology, HierarchicalGroupsAndTiers) {
    const Topology t = Topology::hierarchical(2, 3, CostModel{1e-6, 1e9},
                                              CostModel{1e-4, 1e8});
    EXPECT_EQ(t.num_devices(), 6u);
    EXPECT_EQ(t.num_nodes(), 2u);
    EXPECT_EQ(t.devices_per_node(), 3u);
    EXPECT_TRUE(t.hierarchical());
    EXPECT_EQ(t.node_of(0), 0u);
    EXPECT_EQ(t.node_of(2), 0u);
    EXPECT_EQ(t.node_of(3), 1u);
    EXPECT_EQ(t.local_of(4), 1u);
    EXPECT_EQ(t.leader_of(0), 0u);
    EXPECT_EQ(t.leader_of(1), 3u);
    EXPECT_TRUE(t.intra_node(0, 2));
    EXPECT_FALSE(t.intra_node(2, 3));
    // Same-node pairs ride the fast tier, cross-node pairs the slow one.
    EXPECT_DOUBLE_EQ(t.link(0, 2).latency_s, 1e-6);
    EXPECT_DOUBLE_EQ(t.link(2, 3).latency_s, 1e-4);
}

TEST(Topology, OversubscriptionDividesInterBandwidthOnce) {
    const Topology t = Topology::hierarchical(2, 2, CostModel{1e-6, 1e9},
                                              CostModel{1e-4, 1e8}, 4.0);
    EXPECT_DOUBLE_EQ(t.oversubscription(), 4.0);
    EXPECT_DOUBLE_EQ(t.inter_tier().bandwidth_bytes_per_s, 2.5e7);
    // The intra tier is untouched.
    EXPECT_DOUBLE_EQ(t.intra_tier().bandwidth_bytes_per_s, 1e9);
}

TEST(Topology, ValidationRejectsBadShapes) {
    EXPECT_THROW((void)Topology::flat(0), Error);
    EXPECT_THROW((void)Topology::hierarchical(0, 2, {}, {}), Error);
    EXPECT_THROW((void)Topology::hierarchical(2, 2, {}, {}, 0.5), Error);
    EXPECT_THROW(
        (void)Topology::hierarchical(2, 2, CostModel{-1.0, 1e6}, {}), Error);
    EXPECT_THROW(
        (void)Topology::hierarchical(2, 2, {}, CostModel{1e-6, 0.0}), Error);
    const Topology t = Topology::flat(2);
    EXPECT_THROW((void)t.node_of(2), Error);
    EXPECT_THROW((void)t.leader_of(2), Error);
    EXPECT_THROW((void)t.link(1, 1), Error);
}

TEST(Topology, BuildChecksDeviceCountCoverage) {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::kHierarchical;
    spec.nodes = 2;
    spec.devices_per_node = 4;
    EXPECT_NO_THROW((void)Topology::build(spec, 8));
    EXPECT_THROW((void)Topology::build(spec, 6), Error);
    // A flat spec covers any count.
    EXPECT_NO_THROW((void)Topology::build(TopologySpec{}, 6));
}

TEST(Topology, PresetsMatchTheScalingLadder) {
    const TopologySpec p16 = TopologySpec::preset(16);
    EXPECT_EQ(p16.nodes, 4u);
    EXPECT_EQ(p16.devices_per_node, 4u);
    EXPECT_DOUBLE_EQ(p16.oversubscription, 2.0);
    const TopologySpec p64 = TopologySpec::preset(64);
    EXPECT_EQ(p64.nodes, 8u);
    EXPECT_EQ(p64.devices_per_node, 8u);
    EXPECT_DOUBLE_EQ(p64.oversubscription, 4.0);
    const TopologySpec p128 = TopologySpec::preset(128);
    EXPECT_EQ(p128.nodes, 16u);
    EXPECT_EQ(p128.devices_per_node, 8u);
    EXPECT_DOUBLE_EQ(p128.oversubscription, 8.0);
    EXPECT_THROW((void)TopologySpec::preset(12), Error);
}

TEST(Topology, ParseAcceptsFlatAndHierRejectsJunk) {
    TopologySpec spec;
    EXPECT_TRUE(parse_topology("flat", spec));
    EXPECT_FALSE(spec.hierarchical());

    EXPECT_TRUE(parse_topology("hier:4x4", spec));
    EXPECT_TRUE(spec.hierarchical());
    EXPECT_EQ(spec.nodes, 4u);
    EXPECT_EQ(spec.devices_per_node, 4u);
    // 4×4 = 16 matches a preset, so preset oversubscription applies.
    EXPECT_DOUBLE_EQ(spec.oversubscription, 2.0);
    EXPECT_EQ(topology_name(spec), "hier:4x4");

    EXPECT_TRUE(parse_topology("hier:2x3", spec));
    EXPECT_DOUBLE_EQ(spec.oversubscription, 1.0);  // no preset for 6

    EXPECT_FALSE(parse_topology("mesh", spec));
    EXPECT_FALSE(parse_topology("hier:", spec));
    EXPECT_FALSE(parse_topology("hier:4", spec));
    EXPECT_FALSE(parse_topology("hier:0x4", spec));
    EXPECT_FALSE(parse_topology("hier:4x4x4", spec));
}

TEST(Topology, DeviceKeysNamespaceByNode) {
    const Topology flat = Topology::flat(3);
    EXPECT_EQ(flat.device_key(2), "2");
    const Topology hier = Topology::hierarchical(2, 2, {}, {});
    EXPECT_EQ(hier.device_key(0), "n0.d0");
    EXPECT_EQ(hier.device_key(1), "n0.d1");
    EXPECT_EQ(hier.device_key(2), "n1.d0");
    EXPECT_EQ(hier.device_key(3), "n1.d1");
}

TEST(FabricTopology, LinksResolveTheirTier) {
    const Topology topo = Topology::hierarchical(
        2, 2, CostModel{1e-6, 1e9}, CostModel{1e-4, 1e8}, 2.0);
    Fabric f(topo);
    EXPECT_EQ(f.num_devices(), 4u);
    // Intra-node pair → fast tier.
    EXPECT_DOUBLE_EQ(f.link_model(0, 1).latency_s, 1e-6);
    EXPECT_DOUBLE_EQ(f.link_model(0, 1).bandwidth_bytes_per_s, 1e9);
    // Cross-node pair → slow tier with oversubscription folded in.
    EXPECT_DOUBLE_EQ(f.link_model(1, 2).latency_s, 1e-4);
    EXPECT_DOUBLE_EQ(f.link_model(1, 2).bandwidth_bytes_per_s, 5e7);
    EXPECT_DOUBLE_EQ(f.link_model(2, 1).latency_s, 1e-4);  // both directions
}

TEST(FabricTopology, EpochSecondsPriceEachTier) {
    const Topology topo = Topology::hierarchical(
        2, 2, CostModel{0.0, 1e6}, CostModel{0.0, 1e5});
    Fabric f(topo);
    // One intra transfer: 1e6 bytes over 1e6 B/s = 1 s on devices 0, 1.
    f.record(0, 1, 1'000'000);
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 1.0);
    f.end_epoch();
    // The same bytes across nodes ride the 10× slower tier.
    f.record(1, 2, 1'000'000);
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 10.0);
}

/// Scoped obs enablement that restores the default-off world.
class TopoLedgerTest : public ::testing::Test {
protected:
    void SetUp() override {
        was_enabled_ = obs::enabled();
        obs::set_enabled(false);
        obs::reset();
    }
    void TearDown() override {
        obs::reset();
        obs::set_enabled(was_enabled_);
    }

private:
    bool was_enabled_ = false;
};

TEST_F(TopoLedgerTest, HierarchicalLinkKeysDoNotAliasAcrossNodes) {
    obs::set_enabled(true);
    Fabric f(Topology::hierarchical(2, 2, {}, {}));
    f.record(0, 1, 100);  // intra node 0
    f.record(2, 3, 200);  // intra node 1 — must land on a distinct key
    f.record(1, 2, 300);  // cross-node
    f.end_epoch();
    obs::Registry& reg = obs::registry();
    EXPECT_EQ(reg.counter("fabric.link.n0.d0->n0.d1.bytes").value(), 100u);
    EXPECT_EQ(reg.counter("fabric.link.n1.d0->n1.d1.bytes").value(), 200u);
    EXPECT_EQ(reg.counter("fabric.link.n0.d1->n1.d0.bytes").value(), 300u);
}

TEST_F(TopoLedgerTest, FlatLinkKeysKeepTheHistoricalBareIds) {
    obs::set_enabled(true);
    Fabric f(Topology::flat(2));
    f.record(0, 1, 64);
    f.end_epoch();
    EXPECT_EQ(obs::registry().counter("fabric.link.0->1.bytes").value(), 64u);
}

} // namespace
} // namespace scgnn::comm
