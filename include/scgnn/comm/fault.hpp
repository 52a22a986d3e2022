#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection for the simulated fabric: per-link
///        message drops, scheduled link-down windows, and the
///        retry/backoff/timeout policy that governs recovery.
///
/// Faults are *scheduled*, not sampled from wall-clock state: every random
/// decision is a counter-based splitmix64 draw keyed on (seed, link,
/// per-link attempt counter), so a given FaultModel produces the same
/// drop schedule at any thread count and on any machine — the
/// same discipline the rest of the project uses for reproducibility. With
/// the default (inactive) model the fabric's send path degenerates to
/// plain record() and the whole stack is byte-identical to a build without
/// this header.
///
/// Time accounting: failed attempts and backoff waits are folded into the
/// α–β modelled epoch time (they are sender-side serialisation, exactly
/// like wire time), never into measured compute time. See DESIGN.md §8.

#include <cstdint>
#include <vector>

namespace scgnn::comm {

/// One scheduled outage of a directed link: the link delivers nothing for
/// epochs in the inclusive range [first_epoch, last_epoch].
struct LinkDownWindow {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t first_epoch = 0;
    std::uint32_t last_epoch = 0;
};

/// Seeded per-link fault schedule. The drop probability is per *attempt*.
struct FaultModel {
    /// Probability a sent message is dropped in flight (bytes cross the
    /// wire, the receiver never sees them, the sender times out).
    double drop_probability = 0.0;
    /// Seed of the counter-based draw stream (independent per link).
    std::uint64_t seed = 0x5eedfa17ULL;
    /// Scheduled outages, checked against the fabric's current epoch.
    std::vector<LinkDownWindow> down_windows;

    /// True when any fault mechanism can fire. Inactive models keep the
    /// fabric byte-identical to the fault-free build.
    [[nodiscard]] bool active() const noexcept {
        return drop_probability > 0.0 || !down_windows.empty();
    }
};

/// Recovery policy for a faulty link: how often to retry, how long the
/// sender waits before declaring an attempt lost, and the exponential
/// backoff inserted before each retry. All waits are modelled seconds.
struct RetryPolicy {
    /// Wait before the first retry.
    static constexpr double kBackoffBaseS = 250e-6;
    /// Growth of the wait per further retry.
    static constexpr double kBackoffMultiplier = 2.0;

    std::uint32_t max_attempts = 3;  ///< total attempts (>= 1)
    double timeout_s = 2e-3;         ///< per-attempt ack timeout
};

/// Throw scgnn::Error unless `model` is well-formed on any fabric: drop
/// probability in [0, 1) and every down window a cross-device link with
/// first_epoch <= last_epoch. Whether a window's devices exist depends on
/// the fabric's size, so Fabric::set_fault_model checks that on top.
void validate(const FaultModel& model);

/// Throw scgnn::Error unless `policy` is well-formed: at least one
/// attempt and a non-negative timeout.
void validate(const RetryPolicy& policy);

/// Aggregate fault counters. Invariant (asserted by the fuzz tier):
///   drops + link_down_hits == retries + failures
/// — every failed attempt is either retried or ends its send in failure.
struct FaultStats {
    std::uint64_t attempts = 0;        ///< send attempts incl. retries
    std::uint64_t delivered = 0;       ///< sends that eventually succeeded
    std::uint64_t drops = 0;           ///< attempts dropped in flight
    std::uint64_t link_down_hits = 0;  ///< attempts into a dead link
    std::uint64_t retries = 0;         ///< attempts beyond each first
    std::uint64_t failures = 0;        ///< sends that exhausted retries
    double penalty_s = 0.0;            ///< modelled timeout+backoff time

    void merge(const FaultStats& o) noexcept {
        attempts += o.attempts;
        delivered += o.delivered;
        drops += o.drops;
        link_down_hits += o.link_down_hits;
        retries += o.retries;
        failures += o.failures;
        penalty_s += o.penalty_s;
    }

    /// True when any fault fired (drives conditional obs publishing).
    [[nodiscard]] bool any() const noexcept {
        return drops != 0 || link_down_hits != 0 || retries != 0 ||
               failures != 0;
    }
};

/// Outcome of one Fabric::send(): whether the payload (eventually)
/// arrived, how many attempts it took, what actually crossed the wire,
/// and the full modelled service time of the transfer. This is the typed
/// result every call site consumes — the trainer's overlap timeline feeds
/// `modelled_ms` straight into its per-link FIFO schedule.
struct SendOutcome {
    bool delivered = true;        ///< payload (eventually) arrived
    std::uint32_t attempts = 1;   ///< attempts incl. retries
    double penalty_s = 0.0;       ///< modelled timeout+backoff waits
    std::uint64_t wire_bytes = 0; ///< bytes charged to the wire across all
                                  ///< attempts (drops charge, down links
                                  ///< refuse)
    double modelled_ms = 0.0;     ///< total α–β wire time of the charged
                                  ///< attempts plus penalty_s, in ms
};

} // namespace scgnn::comm
