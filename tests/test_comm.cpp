// Unit tests for the simulated communication fabric and its α–β model.
#include <gtest/gtest.h>

#include <vector>

#include "scgnn/comm/fabric.hpp"

namespace scgnn::comm {
namespace {

TEST(CostModel, AlphaBetaDecomposition) {
    CostModel m{.latency_s = 1e-3, .bandwidth_bytes_per_s = 1e6};
    EXPECT_DOUBLE_EQ(m.seconds(0, 1), 1e-3);
    EXPECT_DOUBLE_EQ(m.seconds(1'000'000, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.seconds(500'000, 2), 2e-3 + 0.5);
}

TEST(Fabric, ConstructionValidates) {
    EXPECT_THROW(Fabric(0), Error);
    EXPECT_THROW(Fabric(2, CostModel{.latency_s = -1.0}), Error);
    EXPECT_THROW(Fabric(2, CostModel{.bandwidth_bytes_per_s = 0.0}), Error);
}

TEST(Fabric, RecordsPairTraffic) {
    Fabric f(3);
    f.record(0, 1, 100);
    f.record(0, 1, 50);
    f.record(2, 0, 10);
    EXPECT_EQ(f.pair_stats(0, 1).bytes, 150u);
    EXPECT_EQ(f.pair_stats(0, 1).messages, 2u);
    EXPECT_EQ(f.pair_stats(1, 0).bytes, 0u);
    EXPECT_EQ(f.epoch_stats().bytes, 160u);
    EXPECT_EQ(f.epoch_stats().messages, 3u);
}

TEST(Fabric, SelfSendRejected) {
    Fabric f(2);
    EXPECT_THROW(f.record(1, 1, 10), Error);
    EXPECT_THROW(f.record(2, 0, 10), Error);
    EXPECT_THROW((void)f.link_model(0, 0), Error);
}

TEST(Fabric, ZeroByteSendStillCountsMessage) {
    Fabric f(2);
    f.record(0, 1, 0);
    EXPECT_EQ(f.epoch_stats().messages, 1u);
    EXPECT_EQ(f.epoch_stats().bytes, 0u);
}

TEST(Fabric, EpochRollOver) {
    CostModel m{.latency_s = 0.0, .bandwidth_bytes_per_s = 100.0};
    Fabric f(2, m);
    f.record(0, 1, 200);
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 2.0);
    f.end_epoch();
    EXPECT_EQ(f.epochs(), 1u);
    EXPECT_EQ(f.epoch_stats().bytes, 0u);  // counters cleared
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 0.0);
    f.record(1, 0, 7);
    EXPECT_EQ(f.epoch_stats().bytes, 7u);
}

TEST(Fabric, CommTimeIsMaxOverDeviceSerialisation) {
    CostModel m{.latency_s = 0.0, .bandwidth_bytes_per_s = 1.0};
    Fabric f(3, m);
    // Device 0 sends 10 to both others; devices 1 and 2 see 10 each, but
    // device 0 serialises 20.
    f.record(0, 1, 10);
    f.record(0, 2, 10);
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 20.0);
    // Balanced exchange: every device moves in+out 20.
    f.end_epoch();
    f.record(1, 2, 10);
    f.record(2, 1, 10);
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 20.0);
}

// Two nodes of two devices: {0, 1} and {2, 3}.
Topology two_by_two(TierModel intra, TierModel inter) {
    return Topology::hierarchical(2, 2, intra, inter);
}

TEST(Fabric, TierPricesOnlyItsOwnLinks) {
    Fabric f(two_by_two(TierModel{0.0, 100.0}, TierModel{0.0, 10.0}));
    EXPECT_DOUBLE_EQ(f.link_model(0, 2).bandwidth_bytes_per_s, 10.0);
    EXPECT_DOUBLE_EQ(f.link_model(2, 0).bandwidth_bytes_per_s, 10.0);
    EXPECT_DOUBLE_EQ(f.link_model(0, 1).bandwidth_bytes_per_s, 100.0);

    f.record(0, 2, 100);  // cross-node link: 10 s
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 10.0);
    f.end_epoch();
    f.record(0, 1, 100);  // same-node link: 1 s
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 1.0);
    f.end_epoch();
    // The tiers are part of the cluster shape: they keep pricing every
    // later epoch.
    f.record(0, 2, 100);
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 10.0);
}

TEST(Fabric, UniformTiersMatchFlatFabric) {
    const TierModel base{1e-4, 1e6};
    Fabric plain(Topology::flat(4, base));
    Fabric tiered(two_by_two(base, base));
    for (auto* f : {&plain, &tiered}) {
        f->record(0, 1, 12345, 3);
        f->record(1, 0, 99, 1);
        f->record(1, 2, 777, 2);
    }
    EXPECT_DOUBLE_EQ(plain.epoch_comm_seconds(),
                     tiered.epoch_comm_seconds());
}

TEST(Fabric, HeterogeneousLinkModelsComposeInEpochSeconds) {
    // NVLink-style fast links inside a box, Ethernet-style slow links
    // across: each directed link is charged by its own tier, and the
    // per-device in+out serialisation max picks the loaded device.
    Fabric f(two_by_two(TierModel{0.0, 1000.0}, TierModel{1.0, 10.0}));
    f.record(0, 1, 1000);  // fast link: 1 s
    f.record(0, 2, 10);    // slow link: 1 s latency + 1 s wire = 2 s
    f.record(1, 0, 500);   // fast link: 0.5 s
    f.record(2, 3, 2000);  // fast link: 2 s
    // Device 0: 1 + 2 out, 0.5 in = 3.5 s. Device 1: 1 in + 0.5 out =
    // 1.5 s. Device 2: 2 s in + 2 s out = 4 s. Device 3: 2 s in.
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 4.0);
}

TEST(Fabric, TrafficStatsMerge) {
    TrafficStats a{10, 1}, b{5, 2};
    a.merge(b);
    EXPECT_EQ(a.bytes, 15u);
    EXPECT_EQ(a.messages, 3u);
}

// ---------------------------------------------------------------------------
// Fault injection & retry/timeout recovery (comm/fault.hpp).

TEST(FabricFault, InactiveSendIsExactlyRecord) {
    // With no fault model configured, send() must be byte-identical to the
    // pre-fault fabric: same traffic, same modelled time, no fault stats.
    CostModel m{.latency_s = 1e-3, .bandwidth_bytes_per_s = 1e6};
    Fabric with_send(3, m), with_record(3, m);
    const SendOutcome out = with_send.send(0, 1, 12345, 3);
    with_record.record(0, 1, 12345, 3);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_DOUBLE_EQ(out.penalty_s, 0.0);
    EXPECT_EQ(out.wire_bytes, 12345u);
    EXPECT_DOUBLE_EQ(out.modelled_ms, m.seconds(12345, 3) * 1e3);
    EXPECT_EQ(with_send.pair_stats(0, 1).bytes, with_record.pair_stats(0, 1).bytes);
    EXPECT_EQ(with_send.pair_stats(0, 1).messages,
              with_record.pair_stats(0, 1).messages);
    EXPECT_DOUBLE_EQ(with_send.epoch_comm_seconds(),
                     with_record.epoch_comm_seconds());
    EXPECT_FALSE(with_send.fault_stats().any());
}

TEST(FabricFault, ScheduleIsDeterministicPerSeed) {
    FaultModel fm;
    fm.drop_probability = 0.5;
    fm.seed = 77;
    auto run = [&](std::uint64_t seed) {
        Fabric f(2);
        FaultModel m = fm;
        m.seed = seed;
        f.set_fault_model(m);
        std::vector<std::uint32_t> attempts;
        for (int s = 0; s < 64; ++s) attempts.push_back(f.send(0, 1, 8).attempts);
        return attempts;
    };
    EXPECT_EQ(run(77), run(77));    // same seed → same schedule, bit for bit
    EXPECT_NE(run(77), run(78));    // seed participates in every draw
}

TEST(FabricFault, ScheduleIsIndependentPerLink) {
    // Per-link counter-based RNG: the draws on link 0→1 must not depend on
    // how many sends other links have done in between (this is what makes
    // the schedule thread-count invariant).
    FaultModel fm;
    fm.drop_probability = 0.5;
    Fabric lone(3), interleaved(3);
    lone.set_fault_model(fm);
    interleaved.set_fault_model(fm);
    std::vector<std::uint32_t> a, b;
    for (int s = 0; s < 32; ++s) {
        a.push_back(lone.send(0, 1, 8).attempts);
        interleaved.send(1, 2, 8);  // extra traffic on an unrelated link
        interleaved.send(2, 0, 8);
        b.push_back(interleaved.send(0, 1, 8).attempts);
    }
    EXPECT_EQ(a, b);
}

TEST(FabricFault, LinkDownWindowExhaustsRetriesWithExactPenalty) {
    CostModel m{.latency_s = 0.0, .bandwidth_bytes_per_s = 1e9};
    Fabric f(2, m);
    FaultModel fm;
    fm.down_windows.push_back(
        LinkDownWindow{.src = 0, .dst = 1, .first_epoch = 0, .last_epoch = 1});
    f.set_fault_model(fm);  // the default RetryPolicy: 3 attempts, 2 ms

    const SendOutcome out = f.send(0, 1, 100);
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(out.attempts, 3u);
    // Three ack timeouts plus the fixed exponential backoff (250 µs,
    // doubling) before attempts 2 and 3.
    EXPECT_DOUBLE_EQ(out.penalty_s, 3 * 2e-3 + 250e-6 + 500e-6);
    // A dead link refuses the payload: no wire bytes cross, and the
    // modelled service time is the burned penalty alone.
    EXPECT_EQ(out.wire_bytes, 0u);
    EXPECT_DOUBLE_EQ(out.modelled_ms, out.penalty_s * 1e3);
    EXPECT_EQ(f.pair_stats(0, 1).bytes, 0u);
    // ...but the sender's burned time is charged to the epoch clock.
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), out.penalty_s);

    const FaultStats fs = f.fault_stats();
    EXPECT_EQ(fs.link_down_hits, 3u);
    EXPECT_EQ(fs.retries, 2u);
    EXPECT_EQ(fs.failures, 1u);
    EXPECT_EQ(fs.drops + fs.link_down_hits, fs.retries + fs.failures);

    // The reverse direction is untouched by the window.
    EXPECT_TRUE(f.send(1, 0, 100).delivered);

    // Past the window's last epoch the link heals.
    f.end_epoch();  // now epoch 1 — still down
    EXPECT_TRUE(f.link_down(0, 1));
    f.end_epoch();  // now epoch 2 — healed
    EXPECT_FALSE(f.link_down(0, 1));
    EXPECT_TRUE(f.send(0, 1, 100).delivered);
}

TEST(FabricFault, DropsChargeWireBytesAndObeyAccounting) {
    Fabric f(2);
    FaultModel fm;
    fm.drop_probability = 0.5;
    fm.seed = 9;
    f.set_fault_model(fm);
    f.set_retry_policy(RetryPolicy{.max_attempts = 2, .timeout_s = 1e-3});
    std::uint64_t delivered = 0;
    for (int s = 0; s < 200; ++s) {
        const SendOutcome out = f.send(0, 1, 100);
        // No link-down windows here: every attempt hits the wire, so the
        // outcome's wire bytes are exactly attempts × payload and the
        // modelled time covers retransmissions plus the penalty.
        EXPECT_EQ(out.wire_bytes, 100u * out.attempts);
        EXPECT_GE(out.modelled_ms, out.penalty_s * 1e3);
        delivered += out.delivered;
    }
    const FaultStats fs = f.fault_stats();
    EXPECT_GT(fs.drops, 0u);
    EXPECT_GT(fs.retries, 0u);
    EXPECT_EQ(fs.delivered, delivered);
    EXPECT_EQ(fs.delivered + fs.failures, 200u);
    // Every failed attempt is either retried or ends the send in failure.
    EXPECT_EQ(fs.drops + fs.link_down_hits, fs.retries + fs.failures);
    // Dropped payloads still left the NIC: wire bytes count every attempt.
    EXPECT_EQ(f.pair_stats(0, 1).bytes, 100u * fs.attempts);
    EXPECT_GT(fs.penalty_s, 0.0);
}

TEST(FabricFault, EndEpochRollsFaultStatsIntoTotal) {
    Fabric f(2);
    FaultModel fm;
    fm.drop_probability = 0.5;
    f.set_fault_model(fm);
    for (int s = 0; s < 32; ++s) f.send(0, 1, 8);
    const FaultStats before = f.fault_stats();
    EXPECT_TRUE(before.any());
    f.end_epoch();
    EXPECT_FALSE(f.epoch_fault_stats().any());  // per-epoch window cleared
    const FaultStats after = f.fault_stats();   // totals survive the epoch
    EXPECT_EQ(after.attempts, before.attempts);
    EXPECT_EQ(after.drops, before.drops);
    // The fault model stays in force for the next epoch.
    EXPECT_TRUE(f.fault_model().active());
}

TEST(FabricFault, ConfigurationValidates) {
    Fabric f(2);
    FaultModel bad;
    bad.drop_probability = 1.0;  // certain loss can never deliver
    EXPECT_THROW(f.set_fault_model(bad), Error);
    bad.drop_probability = -0.1;
    EXPECT_THROW(f.set_fault_model(bad), Error);
    bad = FaultModel{};
    bad.down_windows.push_back(LinkDownWindow{.src = 0, .dst = 0});
    EXPECT_THROW(f.set_fault_model(bad), Error);
    bad.down_windows[0] = LinkDownWindow{.src = 0, .dst = 5};
    EXPECT_THROW(f.set_fault_model(bad), Error);
    bad.down_windows[0] =
        LinkDownWindow{.src = 0, .dst = 1, .first_epoch = 3, .last_epoch = 1};
    EXPECT_THROW(f.set_fault_model(bad), Error);
    EXPECT_THROW(f.set_retry_policy(RetryPolicy{.max_attempts = 0}), Error);
    EXPECT_THROW(f.set_retry_policy(RetryPolicy{.timeout_s = -1.0}), Error);
}

TEST(FabricFault, PenaltySerialisesOnSendingDevice) {
    // Timeout/backoff waits are the *sender's* problem: they add to the
    // sending device's serialisation term in the per-device max.
    CostModel m{.latency_s = 0.0, .bandwidth_bytes_per_s = 1.0};
    Fabric f(3, m);
    FaultModel fm;
    fm.down_windows.push_back(
        LinkDownWindow{.src = 0, .dst = 1, .first_epoch = 0, .last_epoch = 0});
    f.set_fault_model(fm);
    f.set_retry_policy(RetryPolicy{.max_attempts = 1, .timeout_s = 100.0});
    f.send(0, 1, 10);   // refused: device 0 burns the 100 s timeout
    f.send(1, 2, 10);   // healthy link: 10 s wire time
    // Device 0: 100 s penalty. Device 1: 10 s out. Device 2: 10 s in.
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 100.0);
    f.end_epoch();
    // Penalties are per-epoch: the next epoch starts clean.
    EXPECT_DOUBLE_EQ(f.epoch_comm_seconds(), 0.0);
}

TEST(FabricFault, FaultStatsMerge) {
    FaultStats a{.attempts = 5, .delivered = 3, .drops = 2, .penalty_s = 0.5};
    FaultStats b{.attempts = 1, .delivered = 0, .drops = 0,
                 .link_down_hits = 1, .failures = 1, .penalty_s = 0.25};
    a.merge(b);
    EXPECT_EQ(a.attempts, 6u);
    EXPECT_EQ(a.delivered, 3u);
    EXPECT_EQ(a.link_down_hits, 1u);
    EXPECT_EQ(a.failures, 1u);
    EXPECT_DOUBLE_EQ(a.penalty_s, 0.75);
    EXPECT_TRUE(a.any());
    EXPECT_FALSE(FaultStats{}.any());
}

} // namespace
} // namespace scgnn::comm
