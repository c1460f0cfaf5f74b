#include "node/scenario.hpp"

#include <algorithm>
#include <map>

#include "common/expect.hpp"

namespace fastnet::node {

Scenario& Scenario::fail_link(Tick at, EdgeId e) {
    actions_.push_back({at, ScenarioAction::Kind::kFailLink, e, kNoNode});
    return *this;
}

Scenario& Scenario::restore_link(Tick at, EdgeId e) {
    actions_.push_back({at, ScenarioAction::Kind::kRestoreLink, e, kNoNode});
    return *this;
}

Scenario& Scenario::fail_node(Tick at, NodeId u) {
    actions_.push_back({at, ScenarioAction::Kind::kFailNode, kNoEdge, u});
    return *this;
}

Scenario& Scenario::restore_node(Tick at, NodeId u) {
    actions_.push_back({at, ScenarioAction::Kind::kRestoreNode, kNoEdge, u});
    return *this;
}

Scenario& Scenario::start(Tick at, NodeId u) {
    actions_.push_back({at, ScenarioAction::Kind::kStart, kNoEdge, u});
    return *this;
}

Scenario& Scenario::crash_node(Tick at, NodeId u) {
    actions_.push_back({at, ScenarioAction::Kind::kCrashNode, kNoEdge, u});
    return *this;
}

Scenario& Scenario::restart_node(Tick at, NodeId u) {
    actions_.push_back({at, ScenarioAction::Kind::kRestartNode, kNoEdge, u});
    return *this;
}

Scenario& Scenario::stall_node(Tick at, NodeId u, Tick extra) {
    FASTNET_EXPECTS(extra >= 0);
    actions_.push_back({at, ScenarioAction::Kind::kStallNode, kNoEdge, u, extra});
    return *this;
}

Scenario& Scenario::mark_phase(Tick at, std::uint64_t phase) {
    actions_.push_back({at, ScenarioAction::Kind::kMarkPhase, kNoEdge, kNoNode,
                        static_cast<Tick>(phase)});
    return *this;
}

Tick Scenario::last_action_at() const {
    Tick last = 0;
    for (const ScenarioAction& a : actions_) last = std::max(last, a.at);
    return last;
}

Scenario Scenario::random_churn(const graph::Graph& g, unsigned events, Tick from, Tick to,
                                Rng& rng, const std::vector<EdgeId>& protect) {
    ChurnSpec spec;
    spec.link_events = events;
    spec.from = from;
    spec.to = to;
    spec.protect = protect;
    return random_churn(g, spec, rng);
}

Scenario Scenario::random_churn(const graph::Graph& g, const ChurnSpec& spec, Rng& rng) {
    FASTNET_EXPECTS(spec.from <= spec.to);
    const auto draw_at = [&] {
        return spec.from + static_cast<Tick>(rng.below(
                               static_cast<std::uint64_t>(spec.to - spec.from) + 1));
    };
    Scenario s;
    // Draw from the allowed lists, never rejection-sample against the
    // protected ones: with everything protected a reject loop would never
    // terminate, so an impossible request is a contract violation instead.
    if (spec.link_events > 0) {
        std::vector<EdgeId> allowed;
        allowed.reserve(g.edge_count());
        for (EdgeId e = 0; e < g.edge_count(); ++e)
            if (std::find(spec.protect.begin(), spec.protect.end(), e) == spec.protect.end())
                allowed.push_back(e);
        FASTNET_EXPECTS_MSG(!allowed.empty(),
                            "random_churn: every edge is protected but link_events > 0");
        for (unsigned i = 0; i < spec.link_events; ++i) {
            const EdgeId e = allowed[rng.below(allowed.size())];
            const Tick at = draw_at();
            if (rng.chance(1, 2))
                s.fail_link(at, e);
            else
                s.restore_link(at, e);
        }
    }
    if (spec.node_events > 0) {
        std::vector<NodeId> allowed;
        allowed.reserve(g.node_count());
        for (NodeId u = 0; u < g.node_count(); ++u)
            if (std::find(spec.protect_nodes.begin(), spec.protect_nodes.end(), u) ==
                spec.protect_nodes.end())
                allowed.push_back(u);
        FASTNET_EXPECTS_MSG(!allowed.empty(),
                            "random_churn: every node is protected but node_events > 0");
        for (unsigned i = 0; i < spec.node_events; ++i) {
            const NodeId u = allowed[rng.below(allowed.size())];
            const Tick at = draw_at();
            const bool down = rng.chance(1, 2);
            if (spec.crash_nodes) {
                down ? s.crash_node(at, u) : s.restart_node(at, u);
            } else {
                down ? s.fail_node(at, u) : s.restore_node(at, u);
            }
        }
    }
    return s;
}

Scenario& Scenario::heal_all(Tick at) {
    // "Last action wins" in *simulated time* order (stable on ties, which
    // matches the event queue's schedule-order tie-breaking).
    std::vector<ScenarioAction> ordered = actions_;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const ScenarioAction& a, const ScenarioAction& b) {
                         return a.at < b.at;
                     });
    std::map<EdgeId, bool> last_is_fail;
    std::map<NodeId, ScenarioAction::Kind> last_node;
    std::map<NodeId, Tick> last_stall;
    for (const ScenarioAction& a : ordered) {
        switch (a.kind) {
            case ScenarioAction::Kind::kFailLink: last_is_fail[a.edge] = true; break;
            case ScenarioAction::Kind::kRestoreLink: last_is_fail[a.edge] = false; break;
            case ScenarioAction::Kind::kFailNode:
            case ScenarioAction::Kind::kRestoreNode:
            case ScenarioAction::Kind::kCrashNode:
            case ScenarioAction::Kind::kRestartNode:
                last_node[a.node] = a.kind;
                break;
            case ScenarioAction::Kind::kStallNode: last_stall[a.node] = a.amount; break;
            case ScenarioAction::Kind::kStart: break;
            case ScenarioAction::Kind::kMarkPhase: break;  // purely observational
        }
    }
    for (const auto& [e, failed] : last_is_fail)
        if (failed) restore_link(at, e);
    for (const auto& [u, kind] : last_node) {
        if (kind == ScenarioAction::Kind::kFailNode) restore_node(at, u);
        if (kind == ScenarioAction::Kind::kCrashNode) restart_node(at, u);
    }
    for (const auto& [u, extra] : last_stall)
        if (extra != 0) stall_node(at, u, 0);
    return *this;
}

}  // namespace fastnet::node
