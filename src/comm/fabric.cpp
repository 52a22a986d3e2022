#include "scgnn/comm/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "scgnn/common/rng.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/obs/trace.hpp"

namespace scgnn::comm {

Fabric::Fabric(const Topology& topo) : n_(topo.num_devices()), topo_(topo) {
    pair_.assign(static_cast<std::size_t>(n_) * n_, {});
    fault_counter_.assign(pair_.size(), 0);
    pair_penalty_.assign(pair_.size(), 0.0);
}

void validate(const FaultModel& model) {
    SCGNN_CHECK(model.drop_probability >= 0.0 && model.drop_probability < 1.0,
                "drop probability must be in [0, 1)");
    for (const LinkDownWindow& w : model.down_windows) {
        SCGNN_CHECK(w.src != w.dst, "down window needs a cross-device link");
        SCGNN_CHECK(w.first_epoch <= w.last_epoch,
                    "down window must not end before it starts");
    }
}

void validate(const RetryPolicy& policy) {
    SCGNN_CHECK(policy.max_attempts >= 1, "need at least one send attempt");
    SCGNN_CHECK(policy.timeout_s >= 0.0, "timeout must be non-negative");
}

void Fabric::set_fault_model(FaultModel model) {
    validate(model);
    for (const LinkDownWindow& w : model.down_windows)
        SCGNN_CHECK(w.src < n_ && w.dst < n_, "down-window device out of range");
    fault_ = std::move(model);
}

void Fabric::set_retry_policy(RetryPolicy policy) {
    validate(policy);
    retry_ = policy;
}

bool Fabric::link_down(std::uint32_t src, std::uint32_t dst) const {
    (void)idx(src, dst);  // range/self-send validation
    for (const LinkDownWindow& w : fault_.down_windows)
        if (w.src == src && w.dst == dst && epoch_ >= w.first_epoch &&
            epoch_ <= w.last_epoch)
            return true;
    return false;
}

double Fabric::fault_u01(std::size_t link) {
    std::uint64_t state = fault_.seed ^
                          (0x9e3779b97f4a7c15ULL * (link + 1)) ^
                          (0xbf58476d1ce4e5b9ULL * ++fault_counter_[link]);
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

SendOutcome Fabric::send(std::uint32_t src, std::uint32_t dst,
                         std::uint64_t bytes, std::uint64_t messages) {
    if (!fault_.active()) {
        record(src, dst, bytes, messages);
        SendOutcome clean;
        clean.wire_bytes = bytes;
        clean.modelled_ms = link_model(src, dst).seconds(bytes, messages) * 1e3;
        return clean;
    }
    const std::size_t link = idx(src, dst);
    const bool down = link_down(src, dst);
    const bool obs_on = obs::enabled();
    const std::uint64_t t0 = obs_on ? obs::detail::trace_now_ns() : 0;
    SendOutcome out;
    out.delivered = false;
    out.attempts = 0;
    std::uint64_t charged_attempts = 0;  ///< attempts that hit the wire
    FaultStats delta;
    for (std::uint32_t a = 0; a < retry_.max_attempts; ++a) {
        ++out.attempts;
        ++delta.attempts;
        if (a > 0) {
            ++delta.retries;
            out.penalty_s += RetryPolicy::kBackoffBaseS *
                             std::pow(RetryPolicy::kBackoffMultiplier,
                                      static_cast<int>(a) - 1);
        }
        if (down) {
            // A dead link refuses the payload: nothing crosses the wire,
            // the sender still burns the ack timeout before retrying.
            ++delta.link_down_hits;
            out.penalty_s += retry_.timeout_s;
            continue;
        }
        if (fault_u01(link) < fault_.drop_probability) {
            // The payload left the NIC and vanished in flight: wire bytes
            // are spent, the receiver sees nothing, the sender times out.
            record(src, dst, bytes, messages);
            out.wire_bytes += bytes;
            ++charged_attempts;
            ++delta.drops;
            out.penalty_s += retry_.timeout_s;
            continue;
        }
        record(src, dst, bytes, messages);
        out.wire_bytes += bytes;
        ++charged_attempts;
        out.delivered = true;
        break;
    }
    if (out.delivered)
        ++delta.delivered;
    else
        ++delta.failures;
    delta.penalty_s = out.penalty_s;
    // Full modelled service time: α–β wire cost of every attempt that
    // actually charged the wire, plus the timeout/backoff waits.
    out.modelled_ms = (link_model(src, dst).seconds(
                           out.wire_bytes, messages * charged_attempts) +
                       out.penalty_s) *
                      1e3;
    pair_penalty_[link] += out.penalty_s;
    epoch_fault_.merge(delta);
    if (obs_on && (delta.any() || delta.penalty_s > 0.0)) {
        obs::Registry& reg = obs::registry();
        reg.counter("fabric.fault.drops").add(delta.drops);
        reg.counter("fabric.fault.retries").add(delta.retries);
        reg.counter("fabric.fault.failures").add(delta.failures);
        reg.counter("fabric.fault.link_down_hits").add(delta.link_down_hits);
        reg.gauge("fabric.fault.penalty_s").add(delta.penalty_s);
        // A send that needed recovery gets its own span so degraded
        // exchanges are visible on the trace timeline.
        if (delta.retries != 0 || delta.failures != 0)
            obs::record_span(out.delivered ? "fabric.send.retried"
                                           : "fabric.send.failed",
                             t0, obs::detail::trace_now_ns());
    }
    return out;
}

FaultStats Fabric::fault_stats() const noexcept {
    FaultStats total = total_fault_;
    total.merge(epoch_fault_);
    return total;
}

const CostModel& Fabric::link_model(std::uint32_t src,
                                    std::uint32_t dst) const {
    (void)idx(src, dst);  // range/self-send validation
    return topo_.link(src, dst);
}

std::string Fabric::link_key(std::uint32_t src, std::uint32_t dst) const {
    return topo_.device_key(src) + "->" + topo_.device_key(dst);
}

void Fabric::record(std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
                    std::uint64_t messages) {
    auto& slot = pair_[idx(src, dst)];
    slot.bytes += bytes;
    slot.messages += messages;
    if (obs::enabled()) {
        static obs::Counter& bytes_c =
            obs::registry().counter("fabric.bytes_sent");
        static obs::Counter& msg_c =
            obs::registry().counter("fabric.messages_sent");
        bytes_c.add(bytes);
        msg_c.add(messages);
    }
}

TrafficStats Fabric::epoch_stats() const noexcept {
    TrafficStats total;
    for (const auto& p : pair_) total.merge(p);
    return total;
}

TrafficStats Fabric::pair_stats(std::uint32_t src, std::uint32_t dst) const {
    return pair_[idx(src, dst)];
}

double Fabric::epoch_comm_seconds() const noexcept {
    // Each device serialises its own in+out transfers (NIC model); each
    // link is charged by its own cost model; devices run in parallel.
    double worst = 0.0;
    for (std::uint32_t d = 0; d < n_; ++d) {
        double dev = 0.0;
        for (std::uint32_t o = 0; o < n_; ++o) {
            if (o == d) continue;
            const std::size_t out_i = static_cast<std::size_t>(d) * n_ + o;
            const std::size_t in_i = static_cast<std::size_t>(o) * n_ + d;
            const CostModel& out_m = link_model(d, o);
            const CostModel& in_m = link_model(o, d);
            dev += out_m.seconds(pair_[out_i].bytes, pair_[out_i].messages);
            dev += in_m.seconds(pair_[in_i].bytes, pair_[in_i].messages);
            // Timeout/backoff waits serialise on the sending device.
            dev += pair_penalty_[out_i];
        }
        worst = std::max(worst, dev);
    }
    return worst;
}

void Fabric::end_epoch() {
    ++epoch_;
    if (obs::enabled()) publish_epoch_metrics();
    std::fill(pair_.begin(), pair_.end(), TrafficStats{});
    std::fill(pair_penalty_.begin(), pair_penalty_.end(), 0.0);
    total_fault_.merge(epoch_fault_);
    epoch_fault_ = FaultStats{};
}

void Fabric::publish_epoch_metrics() const {
    // Cold path (once per epoch): fabric-level roll-ups plus per-link
    // bytes / messages / modelled seconds under "fabric.link.<s>-><d>.*".
    obs::Registry& reg = obs::registry();
    reg.counter("fabric.epochs").add(1);
    reg.histogram("fabric.epoch_comm_ms", 0.0, 1e4, 50)
        .observe(epoch_comm_seconds() * 1e3);
    // Per-epoch fault roll-up (only when something fired, so fault-free
    // runs keep a byte-identical report).
    if (epoch_fault_.any() || epoch_fault_.penalty_s > 0.0) {
        reg.gauge("fabric.fault.epoch_penalty_s").set(epoch_fault_.penalty_s);
        reg.gauge("fabric.fault.epoch_failures")
            .set(static_cast<double>(epoch_fault_.failures));
    }
    for (std::uint32_t s = 0; s < n_; ++s) {
        for (std::uint32_t d = 0; d < n_; ++d) {
            if (s == d) continue;
            const std::size_t i = static_cast<std::size_t>(s) * n_ + d;
            const TrafficStats& t = pair_[i];
            if (t.bytes == 0 && t.messages == 0 && pair_penalty_[i] == 0.0)
                continue;
            // Keys are namespaced by (node, device) on hierarchical
            // topologies so per-link counters never alias across nodes;
            // flat fabrics keep the historical bare-id pair.
            const std::string link = "fabric.link." + link_key(s, d);
            reg.counter(link + ".bytes").add(t.bytes);
            reg.counter(link + ".messages").add(t.messages);
            reg.gauge(link + ".modelled_s")
                .add(link_model(s, d).seconds(t.bytes, t.messages));
            // Per-link recovery penalty (a fully-down link has zero
            // traffic but a real cost) — only when a fault fired, so
            // clean runs keep a byte-identical report.
            if (pair_penalty_[i] > 0.0)
                reg.gauge(link + ".penalty_s").add(pair_penalty_[i]);
        }
    }
}

} // namespace scgnn::comm
