#include "scgnn/comm/topology.hpp"

#include <cstdio>
#include <cstring>

namespace scgnn::comm {

TopologySpec TopologySpec::preset(std::uint32_t num_devices) {
    TopologySpec spec;
    spec.kind = Kind::kHierarchical;
    switch (num_devices) {
        case 16:   // one rack: 4 nodes × 4 devices, mildly oversubscribed
            spec.nodes = 4;
            spec.devices_per_node = 4;
            spec.oversubscription = 2.0;
            break;
        case 64:   // one pod: 8 nodes × 8 devices over a 4:1 core
            spec.nodes = 8;
            spec.devices_per_node = 8;
            spec.oversubscription = 4.0;
            break;
        case 128:  // two pods: 16 nodes × 8 devices over an 8:1 core
            spec.nodes = 16;
            spec.devices_per_node = 8;
            spec.oversubscription = 8.0;
            break;
        default:
            SCGNN_CHECK(false, "no topology preset for this device count "
                               "(have 16, 64, 128)");
    }
    return spec;
}

bool parse_topology(const char* s, TopologySpec& out) {
    if (std::strcmp(s, "flat") == 0) {
        out = TopologySpec{};
        return true;
    }
    std::uint32_t nodes = 0, per = 0;
    char trailing = '\0';
    if (std::sscanf(s, "hier:%ux%u%c", &nodes, &per, &trailing) != 2 ||
        nodes == 0 || per == 0)
        return false;
    const std::uint32_t devices = nodes * per;
    TopologySpec spec;
    if (devices == 16 || devices == 64 || devices == 128)
        spec = TopologySpec::preset(devices);  // preset oversubscription
    else
        spec.kind = TopologySpec::Kind::kHierarchical;
    spec.nodes = nodes;
    spec.devices_per_node = per;
    out = spec;
    return true;
}

std::string topology_name(const TopologySpec& spec) {
    if (!spec.hierarchical()) return "flat";
    return "hier:" + std::to_string(spec.nodes) + "x" +
           std::to_string(spec.devices_per_node);
}

Topology Topology::flat(std::uint32_t num_devices, CostModel model) {
    SCGNN_CHECK(num_devices >= 1, "topology needs at least one device");
    SCGNN_CHECK(model.latency_s >= 0.0, "latency must be non-negative");
    SCGNN_CHECK(model.bandwidth_bytes_per_s > 0.0,
                "bandwidth must be positive");
    Topology t;
    t.n_ = num_devices;
    t.nodes_ = num_devices;  // every device is its own node
    t.per_node_ = 1;
    t.hier_ = false;
    t.intra_ = model;
    t.inter_effective_ = model;
    return t;
}

Topology Topology::hierarchical(std::uint32_t nodes,
                                std::uint32_t devices_per_node,
                                CostModel intra, CostModel inter,
                                double oversubscription) {
    SCGNN_CHECK(nodes >= 1 && devices_per_node >= 1,
                "hierarchical topology needs nodes and devices per node");
    SCGNN_CHECK(oversubscription >= 1.0, "oversubscription must be >= 1");
    SCGNN_CHECK(intra.latency_s >= 0.0 && inter.latency_s >= 0.0,
                "tier latency must be non-negative");
    SCGNN_CHECK(intra.bandwidth_bytes_per_s > 0.0 &&
                    inter.bandwidth_bytes_per_s > 0.0,
                "tier bandwidth must be positive");
    Topology t;
    t.n_ = nodes * devices_per_node;
    t.nodes_ = nodes;
    t.per_node_ = devices_per_node;
    t.hier_ = true;
    t.oversub_ = oversubscription;
    t.intra_ = intra;
    t.inter_effective_ = inter;
    t.inter_effective_.bandwidth_bytes_per_s /= oversubscription;
    return t;
}

Topology Topology::build(const TopologySpec& spec, std::uint32_t num_devices,
                         CostModel flat_model) {
    if (!spec.hierarchical()) return flat(num_devices, flat_model);
    SCGNN_CHECK(spec.nodes * spec.devices_per_node == num_devices,
                "topology shape must cover exactly the device count "
                "(nodes x devices_per_node != num_devices)");
    return hierarchical(spec.nodes, spec.devices_per_node, spec.intra,
                        spec.inter, spec.oversubscription);
}

std::string Topology::device_key(std::uint32_t device) const {
    if (!hier_) return std::to_string(device);
    std::string key = "n";
    key += std::to_string(node_of(device));
    key += ".d";
    key += std::to_string(local_of(device));
    return key;
}

} // namespace scgnn::comm
