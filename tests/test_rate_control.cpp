// Rate-schedule pins (dist/rate_control.hpp): the exact warmup ramp, the
// config checks, and the trainer-side wiring — EpochMetrics::rate, the
// compress.rate ledger gauge, and bitwise-identical rate sequences at any
// pool width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/framework.hpp"
#include "scgnn/dist/rate_control.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"

namespace scgnn::dist {
namespace {

TEST(RateFidelity, FixedAlwaysFullFidelity) {
    for (std::uint32_t e = 0; e < 5; ++e) EXPECT_EQ(fidelity({}, e), 1.0);
}

TEST(RateFidelity, WarmupRampExactSequence) {
    RateScheduleConfig cfg;
    cfg.kind = RateSchedule::kWarmup;
    cfg.floor = 0.25;
    cfg.warmup_epochs = 8;
    // fidelity(e) = 1 − (1 − floor) · min(e, W) / W, exactly, parked on
    // the floor after the ramp.
    for (std::uint32_t e = 0; e < 12; ++e) {
        const double t = std::min<double>(e, 8.0) / 8.0;
        EXPECT_EQ(fidelity(cfg, e), 1.0 - 0.75 * t) << "epoch " << e;
    }
    EXPECT_EQ(fidelity(cfg, 1000), 0.25);
}

TEST(RateFidelity, RejectsBadConfig) {
    RateScheduleConfig bad;
    bad.floor = 0.0;
    EXPECT_THROW(validate(bad), Error);
    bad.floor = 1.5;
    EXPECT_THROW(validate(bad), Error);
    RateScheduleConfig warm;
    warm.kind = RateSchedule::kWarmup;
    warm.warmup_epochs = 0;
    EXPECT_THROW(validate(warm), Error);
    warm.warmup_epochs = 1;
    EXPECT_NO_THROW(validate(warm));
}

TEST(RateFidelity, ScheduleNamesRoundTrip) {
    for (const RateSchedule s : {RateSchedule::kFixed, RateSchedule::kWarmup}) {
        RateSchedule back{};
        ASSERT_TRUE(parse_schedule(schedule_name(s), back));
        EXPECT_EQ(back, s);
    }
    RateSchedule out{};
    EXPECT_FALSE(parse_schedule("linear", out));
    EXPECT_FALSE(parse_schedule("adaptive", out));
}

// ------------------------------------------------ trainer-side wiring

core::PipelineConfig scheduled_cfg(const graph::Dataset& d) {
    core::PipelineConfig cfg;
    cfg.num_parts = 4;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 32;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 8;
    cfg.train.rate.kind = RateSchedule::kWarmup;
    cfg.train.rate.warmup_epochs = 4;
    cfg.method.name = "ef+ours";
    cfg.method.semantic.grouping.kmeans_k = 12;
    return cfg;
}

TEST(RateScheduleTrainer, EpochMetricsCarryTheEmittedRates) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.15, 7);
    const core::PipelineConfig cfg = scheduled_cfg(d);
    const core::PipelineResult r = core::run_pipeline(d, cfg);
    ASSERT_EQ(r.train.epoch_metrics.size(), 8u);
    for (std::uint32_t e = 0; e < 8; ++e)
        EXPECT_EQ(r.train.epoch_metrics[e].rate, fidelity(cfg.train.rate, e))
            << "epoch " << e;
    EXPECT_EQ(r.train.epoch_metrics.back().rate, cfg.train.rate.floor);
}

TEST(RateScheduleTrainer, FixedScheduleKeepsRateAtOne) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.15, 7);
    core::PipelineConfig cfg = scheduled_cfg(d);
    cfg.train.rate.kind = RateSchedule::kFixed;
    const core::PipelineResult r = core::run_pipeline(d, cfg);
    for (const auto& m : r.train.epoch_metrics) EXPECT_EQ(m.rate, 1.0);
}

TEST(RateScheduleTrainer, RateSequenceIsThreadCountInvariant) {
    // The schedule is a pure function of the epoch, and the coarsened
    // grouping and budgeted resync it drives are bitwise deterministic at
    // any pool width — so the losses downstream of it must be too.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.15, 7);
    const core::PipelineConfig cfg = scheduled_cfg(d);
    auto run_at = [&](unsigned threads) {
        ThreadCountGuard guard(threads);
        return core::run_pipeline(d, cfg);
    };
    const core::PipelineResult base = run_at(1);
    const core::PipelineResult wide = run_at(4);
    ASSERT_EQ(base.train.epoch_metrics.size(),
              wide.train.epoch_metrics.size());
    for (std::size_t e = 0; e < base.train.epoch_metrics.size(); ++e) {
        EXPECT_EQ(base.train.epoch_metrics[e].rate,
                  wide.train.epoch_metrics[e].rate)
            << "epoch " << e;
        EXPECT_EQ(base.train.epoch_metrics[e].loss,
                  wide.train.epoch_metrics[e].loss)
            << "epoch " << e;
    }
}

TEST(RateScheduleTrainer, LedgerGaugeMatchesFinalEpochRate) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.15, 7);
    obs::set_enabled(true);
    obs::registry().reset();
    const core::PipelineResult r = core::run_pipeline(d, scheduled_cfg(d));
    const double ledger = obs::registry().gauge("compress.rate").value();
    obs::set_enabled(false);
    // Last-write-wins gauge: the ledger holds the final epoch's fidelity,
    // down to the %.17g round-trip the report writer uses.
    char a[40], b[40];
    std::snprintf(a, sizeof a, "%.17g", ledger);
    std::snprintf(b, sizeof b, "%.17g", r.train.epoch_metrics.back().rate);
    EXPECT_STREQ(a, b);
}

} // namespace
} // namespace scgnn::dist
