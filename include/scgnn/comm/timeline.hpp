#pragma once
/// \file timeline.hpp
/// \brief Event-driven per-link communication timeline: replaces the
///        additive epoch cost sum `epoch_ms = compute_ms + comm_ms` with a
///        makespan over dependency-ordered compute and comm events, so
///        compute/communication overlap and per-link contention become
///        visible in the reported epoch time.
///
/// The epoch is recorded as a sequence of *steps* (one per aggregation
/// layer and direction, plus optional weight-sync). Within a step every
/// device runs one local compute event and the halo transfers of that
/// step fly concurrently:
///
///   * a device's events in step s start no earlier than its *ready time*
///     at the close of step s-1 (layer-by-layer dependency);
///   * sends are serialised FIFO on their directed link — a send departs
///     at max(sender ready, link free) and the wait is recorded as
///     queue time; sends on distinct links proceed in parallel;
///   * a device's ready time at step close is the max of its own compute
///     end and the ends of its incoming sends — local SpMM overlaps with
///     halo arrival, which is exactly the overlap BNS-GCN/AdaQP-style
///     systems exploit;
///   * retry/timeout/backoff penalties from the fault path are part of a
///     send's service time (they serialise the link like wire time).
///
/// Recording and scheduling are split: the trainer records raw measured
/// compute and modelled send costs during the epoch, then schedule()
/// assigns event times. Compute durations can be normalised to a
/// per-device budget (the measured epoch wall / device count — the same
/// quantity the additive model charges), so the two modes price identical
/// work and differ only in how communication is allowed to overlap it.
/// See DESIGN.md §9.

#include <cstdint>
#include <vector>

#include "scgnn/common/error.hpp"

namespace scgnn::comm {

/// What a timeline event models.
enum class EventKind : std::uint8_t { kCompute = 0, kComm = 1 };

/// One scheduled event. Populated by Timeline::schedule(); durations for
/// comm events include any fault-recovery penalty.
struct TimelineEvent {
    EventKind kind = EventKind::kCompute;
    const char* label = "";     ///< step label (string literal)
    std::uint32_t device = 0;   ///< executing device (sender for comm)
    std::uint32_t peer = 0;     ///< receiver for comm (== device otherwise)
    std::uint32_t step = 0;     ///< dependency step index
    std::uint64_t bytes = 0;    ///< wire bytes (comm only)
    double duration_s = 0.0;    ///< service time as scheduled
    double start_s = 0.0;       ///< assigned start
    double end_s = 0.0;         ///< assigned end (start + duration)
    double queue_wait_s = 0.0;  ///< time blocked behind the link FIFO
};

/// Summary of one scheduled epoch.
struct TimelineStats {
    double makespan_s = 0.0;       ///< max event end — the epoch time
    double compute_s = 0.0;        ///< largest per-device compute total
    double comm_exposed_s = 0.0;   ///< max(0, makespan - compute_s): comm
                                   ///< the schedule failed to hide
    double queue_wait_s = 0.0;     ///< total FIFO wait over all sends
    double link_busy_s = 0.0;      ///< busiest single link's service time
    std::size_t num_events = 0;
};

/// Event-driven per-link communication scheduler (see file comment).
///
/// Usage per epoch:
///   begin_epoch();
///   for each layer/direction:
///     begin_step("fwd"); record_compute(...); record_send(...); end_step();
///   stats = schedule(wall_s / num_devices);
///
/// Recording is strictly serial (the trainer's exchange loop already is),
/// so the event order — and with fixed durations the whole schedule — is
/// deterministic at any thread count.
class Timeline {
public:
    /// A timeline over `num_devices` logical devices (>= 1).
    explicit Timeline(std::uint32_t num_devices);

    [[nodiscard]] std::uint32_t num_devices() const noexcept { return n_; }

    /// Drop all recorded steps and scheduled events.
    void begin_epoch();

    /// Open a dependency step. `label` must be a string literal (or
    /// otherwise outlive the timeline) — only the pointer is stored.
    void begin_step(const char* label);

    /// Accumulate local compute of `device` within the open step.
    void record_compute(std::uint32_t device, double seconds);

    /// Record one transfer on the directed link src→dst within the open
    /// step. `seconds` is the full modelled service time (α–β wire time
    /// plus any fault-recovery penalty).
    void record_send(std::uint32_t src, std::uint32_t dst,
                     std::uint64_t bytes, double seconds);

    /// Close the open step.
    void end_step();

    /// Assign start/end times to every recorded event and return the
    /// epoch summary. With `per_device_compute_s >= 0`, each device's
    /// recorded per-step compute is rescaled to total exactly that budget
    /// (a device with no recorded compute spreads it uniformly over the
    /// steps); with the default (negative) the raw recorded durations are
    /// kept. Can be called repeatedly (e.g. raw and normalised).
    ///
    /// `active` (when non-null) is a per-device 0/1 mask from the elastic
    /// runtime: masked-off devices receive *no* compute budget — without
    /// it an inactive device would get the uniform fallback budget and a
    /// shrunk cluster would schedule phantom work. A null mask is the
    /// pre-elastic behaviour, bit for bit.
    TimelineStats schedule(double per_device_compute_s = -1.0,
                           const std::vector<std::uint8_t>* active = nullptr);

    /// The scheduled events, in deterministic record order (valid after
    /// schedule()).
    [[nodiscard]] const std::vector<TimelineEvent>& events() const noexcept {
        return events_;
    }

    /// Stats of the last schedule() call.
    [[nodiscard]] const TimelineStats& stats() const noexcept { return stats_; }

    /// Scheduled service seconds of one directed link (valid after
    /// schedule()).
    [[nodiscard]] double link_busy_s(std::uint32_t src,
                                     std::uint32_t dst) const;

private:
    struct Send {
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint64_t bytes = 0;
        double seconds = 0.0;
    };
    struct Step {
        const char* label = "";
        std::vector<double> compute_s;  ///< per device
        std::vector<Send> sends;
    };

    [[nodiscard]] std::size_t link(std::uint32_t src, std::uint32_t dst) const {
        SCGNN_CHECK(src < n_ && dst < n_, "timeline device id out of range");
        SCGNN_CHECK(src != dst, "self-sends do not cross the fabric");
        return static_cast<std::size_t>(src) * n_ + dst;
    }

    std::uint32_t n_;
    std::vector<Step> steps_;
    bool step_open_ = false;
    std::vector<TimelineEvent> events_;
    std::vector<double> link_busy_;  ///< n×n, filled by schedule()
    TimelineStats stats_;
};

} // namespace scgnn::comm
