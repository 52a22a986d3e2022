#include "scgnn/dist/rate_control.hpp"

#include <algorithm>

#include "scgnn/common/error.hpp"

namespace scgnn::dist {

const char* schedule_name(RateSchedule s) noexcept {
    switch (s) {
        case RateSchedule::kFixed: return "fixed";
        case RateSchedule::kWarmup: return "warmup";
    }
    return "?";
}

bool parse_schedule(const std::string& key, RateSchedule& out) noexcept {
    if (key == "fixed") {
        out = RateSchedule::kFixed;
        return true;
    }
    if (key == "warmup") {
        out = RateSchedule::kWarmup;
        return true;
    }
    return false;
}

void validate(const RateScheduleConfig& cfg) {
    SCGNN_CHECK(cfg.floor > 0.0 && cfg.floor <= 1.0,
                "rate floor must be in (0, 1]");
    SCGNN_CHECK(cfg.kind != RateSchedule::kWarmup || cfg.warmup_epochs >= 1,
                "warmup schedule needs at least one warmup epoch");
}

double fidelity(const RateScheduleConfig& cfg, std::uint32_t epoch) noexcept {
    if (cfg.kind == RateSchedule::kFixed) return 1.0;
    // fidelity(e) = 1 − (1 − floor) · min(e, W) / W — exactly the
    // documented ramp, pinned by test_rate_control.
    const double w = static_cast<double>(cfg.warmup_epochs);
    const double t = std::min(static_cast<double>(epoch), w) / w;
    return 1.0 - (1.0 - cfg.floor) * t;
}

} // namespace scgnn::dist
