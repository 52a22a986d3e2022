// Unit + integration tests for the observability subsystem: JSON writer,
// metrics registry, trace spans, run ledger, sinks, and the contract that
// the ledger's per-epoch figures equal DistTrainResult::epoch_metrics
// exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "scgnn/common/parallel.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/obs/json.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace scgnn::obs {
namespace {

/// Every test in this file runs against the process-global obs state:
/// remember the enabled flag, start from a clean slate, and leave obs off
/// so unrelated tests (determinism, trainer) see the default-disabled
/// world.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        was_enabled_ = enabled();
        set_enabled(false);
        reset();
    }
    void TearDown() override {
        reset();
        set_enabled(was_enabled_);
    }

private:
    bool was_enabled_ = false;
};

// ---------------------------------------------------------------- JSON --

TEST(JsonEscape, EscapesSpecials) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\nb"), "a\\nb");
    EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonNumber, RoundTripsAndSanitises) {
    EXPECT_EQ(json_number(1.5), "1.5");
    EXPECT_EQ(json_number(0.0), "0");
    // %.17g keeps every bit of a double.
    const double x = 0.1 + 0.2;
    EXPECT_EQ(std::stod(json_number(x)), x);
    EXPECT_EQ(json_number(std::nan("")), "null");
    EXPECT_EQ(json_number(1.0 / 0.0), "null");
}

TEST(JsonWriter, BuildsNestedDocument) {
    JsonWriter w;
    w.begin_object()
        .kv("name", "run")
        .kv("n", std::uint64_t{3})
        .key("xs")
        .begin_array()
        .value(1.5)
        .value(true)
        .null()
        .end_array()
        .key("inner")
        .begin_object()
        .kv("neg", std::int64_t{-2})
        .end_object()
        .end_object();
    EXPECT_EQ(w.str(),
              "{\"name\":\"run\",\"n\":3,\"xs\":[1.5,true,null],"
              "\"inner\":{\"neg\":-2}}");
}

TEST(JsonWriter, MisuseThrows) {
    {
        JsonWriter w;
        w.begin_object();
        EXPECT_THROW(w.value(1.0), Error);  // value without key in object
    }
    {
        JsonWriter w;
        w.begin_array();
        EXPECT_THROW(w.key("k"), Error);  // key inside array
    }
    {
        JsonWriter w;
        w.begin_object();
        EXPECT_THROW(w.end_array(), Error);  // mismatched close
    }
}

// ------------------------------------------------------------- metrics --

TEST_F(ObsTest, CounterAddsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterSumsAcrossThreads) {
    // Each of 64 chunks adds its index; the sharded counter must merge to
    // the exact serial sum regardless of which threads ran which chunk.
    Counter c;
    parallel_for(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) c.add(i);
    });
    EXPECT_EQ(c.value(), 64u * 63u / 2u);
}

TEST_F(ObsTest, GaugeSetAddValue) {
    Gauge g;
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(0.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramMetricMergesShards) {
    HistogramMetric h(0.0, 10.0, 10);
    parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            h.observe(static_cast<double>(i % 10));
    });
    const RunningStat s = h.stat();
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    const Histogram merged = h.merged();
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(merged.bin_count(b), 10u) << "bin " << b;
}

TEST_F(ObsTest, HistogramMetricQuantileMatchesMergedHistogram) {
    HistogramMetric h(0.0, 10.0, 10);
    parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            h.observe(static_cast<double>(i % 10) + 0.5);
    });
    // Sharded observe + merged quantile == the value-type walk: quantiles
    // are thread-count independent and bounded by the histogram range.
    const Histogram merged = h.merged();
    for (double p : {0.0, 0.5, 0.99, 0.999, 1.0}) {
        EXPECT_DOUBLE_EQ(h.quantile(p), merged.quantile(p)) << "p=" << p;
        EXPECT_GE(h.quantile(p), 0.0);
        EXPECT_LE(h.quantile(p), 10.0);
    }
    EXPECT_LT(h.quantile(0.0), 1.0);   // head bin
    EXPECT_GT(h.quantile(1.0), 9.0);   // tail bin
    HistogramMetric empty(0.0, 1.0, 2);
    EXPECT_THROW((void)empty.quantile(0.5), Error);
}

TEST_F(ObsTest, RegistryCreatesOnFirstUseAndKeepsAddresses) {
    Registry reg;
    Counter& a = reg.counter("x.a");
    Counter& a2 = reg.counter("x.a");
    EXPECT_EQ(&a, &a2);
    a.add(7);
    reg.reset();  // zeroes in place — cached references stay valid
    EXPECT_EQ(a.value(), 0u);
    a.add(3);
    EXPECT_EQ(reg.counter("x.a").value(), 3u);
}

TEST_F(ObsTest, RegistryRejectsKindMismatch) {
    Registry reg;
    (void)reg.counter("dual");
    EXPECT_THROW((void)reg.gauge("dual"), Error);
    EXPECT_THROW((void)reg.histogram("dual", 0.0, 1.0, 4), Error);
}

TEST_F(ObsTest, RegistrySnapshotIsNameSortedAndTyped) {
    Registry reg;
    reg.gauge("b.gauge").set(1.25);
    reg.counter("a.counter").add(5);
    reg.histogram("c.hist", 0.0, 4.0, 4).observe(2.0);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.counter");
    EXPECT_EQ(snap[0].kind, MetricSample::Kind::kCounter);
    EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
    EXPECT_EQ(snap[1].name, "b.gauge");
    EXPECT_DOUBLE_EQ(snap[1].value, 1.25);
    EXPECT_EQ(snap[2].name, "c.hist");
    EXPECT_EQ(snap[2].count, 1u);
    EXPECT_DOUBLE_EQ(snap[2].mean, 2.0);
}

// --------------------------------------------------------------- trace --

TEST_F(ObsTest, SpansRecordOnlyWhenEnabled) {
    { SCGNN_TRACE_SPAN("off.span"); }
    EXPECT_TRUE(trace_events().empty());

    set_enabled(true);
    { SCGNN_TRACE_SPAN("on.span"); }
    const auto ev = trace_events();
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_STREQ(ev[0].name, "on.span");
    EXPECT_GE(ev[0].t1_ns, ev[0].t0_ns);
    clear_trace();
    EXPECT_TRUE(trace_events().empty());
}

TEST_F(ObsTest, ChromeTraceJsonHasTraceEventShape) {
    set_enabled(true);
    { SCGNN_TRACE_SPAN("alpha"); }
    { SCGNN_TRACE_SPAN("beta"); }
    const std::string j = chrome_trace_json();
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"alpha\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"beta\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(j.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(j.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(ObsTest, EventsAreOrderedByBeginTime) {
    set_enabled(true);
    { SCGNN_TRACE_SPAN("first"); }
    { SCGNN_TRACE_SPAN("second"); }
    { SCGNN_TRACE_SPAN("third"); }
    const auto ev = trace_events();
    ASSERT_EQ(ev.size(), 3u);
    for (std::size_t i = 1; i < ev.size(); ++i)
        EXPECT_LE(ev[i - 1].t0_ns, ev[i].t0_ns);
}

// -------------------------------------------------------------- ledger --

TEST_F(ObsTest, LedgerRecordsEpochsAndFinals) {
    set_enabled(true);
    registry().counter("led.count").add(9);
    record_config("method", std::string("ours"));
    record_config("parts", 4.0);
    epoch_snapshot(0, 0.5, 1.25, 10.0, 20.0, 30.0);
    record_final("test_accuracy", 0.75);

    ASSERT_EQ(ledger().num_epochs(), 1u);
    const EpochRecord r = ledger().epoch(0);
    EXPECT_EQ(r.epoch, 0u);
    EXPECT_DOUBLE_EQ(r.loss, 0.5);
    EXPECT_DOUBLE_EQ(r.comm_mb, 1.25);
    EXPECT_DOUBLE_EQ(r.comm_ms, 10.0);
    EXPECT_DOUBLE_EQ(r.compute_ms, 20.0);
    EXPECT_DOUBLE_EQ(r.epoch_ms, 30.0);
    bool saw = false;
    for (const MetricSample& m : r.metrics)
        if (m.name == "led.count") {
            saw = true;
            EXPECT_DOUBLE_EQ(m.value, 9.0);
        }
    EXPECT_TRUE(saw);
    EXPECT_DOUBLE_EQ(ledger().final_value("test_accuracy"), 0.75);

    const std::string j = ledger().to_json();
    EXPECT_NE(j.find("\"schema\":\"scgnn.obs.run/1\""), std::string::npos);
    EXPECT_NE(j.find("\"method\":\"ours\""), std::string::npos);
    EXPECT_NE(j.find("\"comm_mb\":1.25"), std::string::npos);
    EXPECT_NE(j.find("\"test_accuracy\":0.75"), std::string::npos);
    EXPECT_NE(j.find("led.count"), std::string::npos);
}

TEST_F(ObsTest, LedgerHelpersNoOpWhenDisabled) {
    epoch_snapshot(0, 0.5, 1.0, 1.0, 1.0, 2.0);
    record_config("k", 1.0);
    record_final("acc", 0.5);
    EXPECT_EQ(ledger().num_epochs(), 0u);
    const std::string j = ledger().to_json();
    EXPECT_EQ(j.find("\"acc\""), std::string::npos);
}

TEST_F(ObsTest, FinishWritesBothSinksOnce) {
    set_enabled(true);
    { SCGNN_TRACE_SPAN("sink.span"); }
    epoch_snapshot(0, 0.1, 1.0, 2.0, 3.0, 5.0);

    const std::string prefix =
        ::testing::TempDir() + "scgnn_obs_finish_test";
    set_output_prefix(prefix);
    EXPECT_TRUE(finish());
    EXPECT_FALSE(finish());  // once per prefix

    for (const char* suffix : {".trace.json", ".report.json"}) {
        const std::string path = prefix + suffix;
        std::FILE* f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr) << path;
        std::fseek(f, 0, SEEK_END);
        EXPECT_GT(std::ftell(f), 2L) << path;
        std::fclose(f);
        std::remove(path.c_str());
    }
    set_output_prefix("");
}

// -------------------------------------------- trainer <-> ledger match --

TEST_F(ObsTest, LedgerEpochsMatchDistTrainResultExactly) {
    set_enabled(true);

    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.2, 3);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 3, 17);
    const gnn::GnnConfig mc{
        .in_dim = static_cast<std::uint32_t>(d.features.cols()),
        .hidden_dim = 16,
        .out_dim = d.num_classes,
        .seed = 11};
    dist::DistTrainConfig cfg;
    cfg.epochs = 4;
    dist::VanillaExchange vanilla;
    const dist::DistTrainResult r =
        runtime::Scenario::for_training(cfg).train(d, parts, mc, vanilla);

    ASSERT_EQ(ledger().num_epochs(), r.epoch_metrics.size());
    for (std::size_t e = 0; e < r.epoch_metrics.size(); ++e) {
        const EpochRecord led = ledger().epoch(e);
        const dist::EpochMetrics& m = r.epoch_metrics[e];
        EXPECT_EQ(led.epoch, e);
        // Exact double equality: the trainer hands the ledger the very
        // values it pushes into epoch_metrics.
        EXPECT_EQ(led.loss, m.loss) << "epoch " << e;
        EXPECT_EQ(led.comm_mb, m.comm_mb) << "epoch " << e;
        EXPECT_EQ(led.comm_ms, m.comm_ms) << "epoch " << e;
        EXPECT_EQ(led.compute_ms, m.compute_ms) << "epoch " << e;
        EXPECT_EQ(led.epoch_ms, m.epoch_ms) << "epoch " << e;
    }
    EXPECT_EQ(ledger().final_value("test_accuracy"), r.test_accuracy);
    EXPECT_EQ(ledger().final_value("epochs_run"),
              static_cast<double>(r.epochs_run));

    // And the JSON report round-trips those exact doubles (%.17g).
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", r.epoch_metrics[0].comm_ms);
    EXPECT_NE(ledger().to_json().find(buf), std::string::npos);

    // The training left spans behind: forward/backward/comm per layer per
    // epoch plus one dist.epoch per epoch.
    const std::string trace = chrome_trace_json();
    for (const char* name : {"dist.epoch", "dist.forward", "dist.backward",
                             "dist.comm.forward", "dist.comm.backward",
                             "compress.forward", "compress.backward"})
        EXPECT_NE(trace.find(name), std::string::npos) << name;
}

TEST_F(ObsTest, VanillaBytesEqualWireBytesOfTheVanillaExchange) {
    // vanilla_bytes is the per-edge reference the compression ratio
    // divides by, so the vanilla exchange itself must cost exactly it.
    set_enabled(true);
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.15, 3);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 17);
    const gnn::GnnConfig mc{
        .in_dim = static_cast<std::uint32_t>(d.features.cols()),
        .hidden_dim = 16,
        .out_dim = d.num_classes,
        .seed = 11};
    dist::DistTrainConfig cfg;
    cfg.epochs = 2;
    dist::VanillaExchange vanilla;
    (void)runtime::Scenario::for_training(cfg).train(d, parts, mc, vanilla);

    for (const std::string dir : {"forward", "backward"}) {
        const std::uint64_t wire =
            registry().counter("compress." + dir + ".wire_bytes").value();
        EXPECT_GT(wire, 0u) << dir;
        EXPECT_EQ(registry().counter("compress." + dir + ".vanilla_bytes")
                      .value(),
                  wire)
            << dir;
    }
}

} // namespace
} // namespace scgnn::obs
