#include "fault/call_oracle.hpp"

#include <map>
#include <string>

#include "paris/call_setup.hpp"

namespace fastnet::fault {
namespace {

const paris::CallAgentProtocol* agent_of(const node::Protocol& p) {
    return dynamic_cast<const paris::CallAgentProtocol*>(&p);
}

std::string call_str(paris::CallId id) {
    return std::to_string(id.source) + "." + std::to_string(id.seq);
}

}  // namespace

CallOracle& CallOracle::require_conserved() {
    for (NodeId u = 0; u < cluster_.node_count(); ++u) {
        if (cluster_.crashed(u)) continue;
        const auto* agent = agent_of(cluster_.protocol(u));
        if (agent == nullptr) continue;
        // Recompute the ledger from the records and compare exactly.
        std::map<EdgeId, std::uint64_t> expected;
        for (const paris::CallRecord& r : agent->call_records()) {
            if (r.reserved_edge == kNoEdge) continue;
            if (paris::call_state_terminal(r.state)) {
                fail("node " + std::to_string(u) + ": terminal call " + call_str(r.id) +
                     " (" + paris::call_state_name(r.state) + ") still holds edge " +
                     std::to_string(r.reserved_edge));
                continue;
            }
            expected[r.reserved_edge] += r.demand;
        }
        const std::uint32_t cap = agent->options().link_capacity;
        for (const auto& [edge, held] : agent->reserved_entries()) {
            const auto it = expected.find(edge);
            const std::uint64_t want = it == expected.end() ? 0 : it->second;
            if (held != want)
                fail("node " + std::to_string(u) + ": edge " + std::to_string(edge) +
                     " ledger holds " + std::to_string(held) + " but records account for " +
                     std::to_string(want));
            if (held > cap)
                fail("node " + std::to_string(u) + ": edge " + std::to_string(edge) +
                     " overbooked: " + std::to_string(held) + " > capacity " +
                     std::to_string(cap));
            expected.erase(edge);
        }
        for (const auto& [edge, want] : expected) {
            if (want != 0)
                fail("node " + std::to_string(u) + ": records hold " + std::to_string(want) +
                     " units of edge " + std::to_string(edge) + " missing from the ledger");
        }
    }
    return *this;
}

CallOracle& CallOracle::require_terminal() {
    for (NodeId u = 0; u < cluster_.node_count(); ++u) {
        if (cluster_.crashed(u)) continue;
        const auto* agent = agent_of(cluster_.protocol(u));
        if (agent == nullptr) continue;
        if (agent->live_records() != 0) {
            for (const paris::CallRecord& r : agent->call_records()) {
                if (paris::call_state_terminal(r.state)) continue;
                fail("node " + std::to_string(u) + ": call " + call_str(r.id) +
                     " stuck in state " + paris::call_state_name(r.state) +
                     " at quiescence");
            }
            // retain_terminal == false keeps no resolved records around,
            // so a nonzero live count with an empty snapshot would hide;
            // report the count too when the snapshot came up clean.
            bool found = false;
            for (const paris::CallRecord& r : agent->call_records())
                if (!paris::call_state_terminal(r.state)) found = true;
            if (!found)
                fail("node " + std::to_string(u) + ": " +
                     std::to_string(agent->live_records()) +
                     " live record(s) unaccounted for at quiescence");
        }
    }
    return *this;
}

CallOracle& CallOracle::require_released() {
    for (NodeId u = 0; u < cluster_.node_count(); ++u) {
        if (cluster_.crashed(u)) continue;
        const auto* agent = agent_of(cluster_.protocol(u));
        if (agent == nullptr) continue;
        for (const auto& [edge, held] : agent->reserved_entries()) {
            fail("node " + std::to_string(u) + ": edge " + std::to_string(edge) +
                 " still holds " + std::to_string(held) + " unit(s) at quiescence");
        }
    }
    return *this;
}

OracleReport check_calls(const node::ParallelCluster& cluster) {
    CallOracle o(cluster);
    return o.require_conserved().require_terminal().require_released().report();
}

}  // namespace fastnet::fault
