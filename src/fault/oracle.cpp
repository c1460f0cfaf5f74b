#include "fault/oracle.hpp"

#include <string>

#include "election/election.hpp"
#include "topo/router.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet::fault {
namespace {

/// The maintenance instance behind a node's protocol, however embedded.
const topo::TopologyMaintenance* maintenance_of(const node::Protocol& p) {
    if (const auto* tm = dynamic_cast<const topo::TopologyMaintenance*>(&p)) return tm;
    if (const auto* r = dynamic_cast<const topo::RouterProtocol*>(&p)) return &r->topology();
    return nullptr;
}

}  // namespace

std::string OracleReport::summary() const {
    if (violations.empty()) return "ok";
    std::string out;
    for (const std::string& v : violations) {
        if (!out.empty()) out += "; ";
        out += v;
    }
    return out;
}

Oracle& Oracle::require_quiescent() {
    if (!cluster_.quiescent()) fail("cluster not quiescent");
    return *this;
}

Oracle& Oracle::require_no_inflight() {
    const std::size_t live = cluster_.packets_in_flight();
    if (live != 0)
        fail(std::to_string(live) + " packet cursor(s) still allocated after quiescence");
    return *this;
}

Oracle& Oracle::require_views_converged() {
    for (NodeId u = 0; u < cluster_.node_count(); ++u) {
        if (cluster_.crashed(u)) continue;  // a down node has no view to check
        const topo::TopologyMaintenance* tm = maintenance_of(cluster_.protocol(u));
        if (tm == nullptr) {
            fail("node " + std::to_string(u) + " runs no topology maintenance");
            continue;
        }
        if (!topo::view_converged(*tm, cluster_.mirror(0), u))
            fail("node " + std::to_string(u) + "'s view is not exact (Theorem 1)");
    }
    return *this;
}

Oracle& Oracle::require_at_most_one_leader() {
    unsigned leaders = 0;
    for (NodeId u = 0; u < cluster_.node_count(); ++u) {
        if (cluster_.crashed(u)) continue;
        const auto* e = dynamic_cast<const elect::ElectionProtocol*>(&cluster_.protocol(u));
        if (e == nullptr) {
            fail("node " + std::to_string(u) + " runs no election protocol");
            continue;
        }
        if (e->role() == elect::Role::kLeader) ++leaders;
    }
    if (leaders > 1) fail(std::to_string(leaders) + " live leaders (election safety)");
    return *this;
}

Oracle& Oracle::require_received(NodeId at, NodeId src, std::uint64_t tag) {
    const auto* r = dynamic_cast<const topo::RouterProtocol*>(&cluster_.protocol(at));
    if (r == nullptr) {
        fail("node " + std::to_string(at) + " runs no router");
        return *this;
    }
    for (const auto& [s, t] : r->received())
        if (s == src && t == tag) return *this;
    fail("node " + std::to_string(at) + " never received tag " + std::to_string(tag) +
         " from " + std::to_string(src));
    return *this;
}

OracleReport check_theorem1(node::ParallelCluster& cluster) {
    Oracle o(cluster);
    o.require_quiescent().require_no_inflight().require_views_converged();
    return o.report();
}

}  // namespace fastnet::fault
