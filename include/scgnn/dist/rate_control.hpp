#pragma once
/// \file rate_control.hpp
/// \brief Per-epoch compression-rate scheduling (DESIGN.md §12).
///
/// The paper runs semantic compression at one fixed rate for the whole
/// training run; Cerviño et al. ("Variable Communication Rates", PAPERS.md)
/// show the ratio may instead evolve with training. A schedule maps each
/// epoch to a *fidelity* in (0, 1] — 1 is the configured base rate,
/// smaller is more aggressive — and the trainer hands it to
/// BoundaryCompressor::apply_rate(), which each method maps onto its own
/// knob (semantic ⇒ group count, quant ⇒ bit width, sampling ⇒ keep rate).
///
/// Two schedules:
///   * kFixed  — fidelity is always 1 and the trainer never even calls
///               apply_rate(), so fixed-rate runs stay bitwise identical
///               to the pre-scheduling golden pins;
///   * kWarmup — train at high fidelity first, compress harder as the
///               model stabilises: fidelity(e) = 1 − (1 − floor) ·
///               min(e, W) / W over W warmup epochs.
///
/// The schedule is a pure function of the epoch: no state, no feedback
/// signals, so the emitted rate sequence is bitwise deterministic at any
/// thread count.

#include <cstdint>
#include <string>

namespace scgnn::dist {

/// Which schedule drives the per-epoch fidelity.
enum class RateSchedule : std::uint8_t {
    kFixed = 0,   ///< never touch the compressor (bitwise-pinned default)
    kWarmup = 1,  ///< linear high→low fidelity ramp over warmup_epochs
};

/// Printable schedule name ("fixed" | "warmup").
[[nodiscard]] const char* schedule_name(RateSchedule s) noexcept;

/// Parse a schedule name; false on an unknown one.
[[nodiscard]] bool parse_schedule(const std::string& key,
                                  RateSchedule& out) noexcept;

/// Rate-schedule configuration (DistTrainConfig::rate).
struct RateScheduleConfig {
    RateSchedule kind = RateSchedule::kFixed;
    /// Fidelity the warmup ramp ends on; must lie in (0, 1].
    double floor = 0.25;
    /// kWarmup: epochs to ramp from 1 down to `floor`.
    std::uint32_t warmup_epochs = 8;

    [[nodiscard]] bool scheduled() const noexcept {
        return kind != RateSchedule::kFixed;
    }
};

/// Throws scgnn::Error unless `floor` lies in (0, 1] and a warmup
/// schedule ramps over at least one epoch.
void validate(const RateScheduleConfig& cfg);

/// Fidelity of epoch `epoch`: 1 for kFixed, the warmup ramp for kWarmup.
[[nodiscard]] double fidelity(const RateScheduleConfig& cfg,
                              std::uint32_t epoch) noexcept;

} // namespace scgnn::dist
