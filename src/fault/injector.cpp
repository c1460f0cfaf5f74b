#include "fault/injector.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "node/parallel_cluster.hpp"

namespace fastnet::fault {

node::Scenario FaultInjector::compile(const graph::Graph& g) const {
    FASTNET_EXPECTS(model_.window_from <= model_.window_to);
    // One private generator per compilation: the script depends only on
    // (model, seed, graph), never on who compiles it or when.
    Rng rng(Rng::stream(seed_, 0xc4a05ULL).next());

    node::ChurnSpec spec;
    spec.link_events = model_.link_flaps;
    spec.node_events = model_.node_crashes;
    spec.from = model_.window_from;
    spec.to = model_.window_to;
    spec.protect = model_.protect;
    spec.protect_nodes = model_.protect_nodes;
    spec.crash_nodes = model_.crash_nodes;
    node::Scenario s = node::Scenario::random_churn(g, spec, rng);

    if (model_.stalls > 0) {
        FASTNET_EXPECTS_MSG(model_.stall_max > 0, "stalls > 0 needs stall_max > 0");
        std::vector<NodeId> allowed;
        allowed.reserve(g.node_count());
        for (NodeId u = 0; u < g.node_count(); ++u)
            if (std::find(model_.protect_nodes.begin(), model_.protect_nodes.end(), u) ==
                model_.protect_nodes.end())
                allowed.push_back(u);
        FASTNET_EXPECTS_MSG(!allowed.empty(),
                            "fault model: every node is protected but stalls > 0");
        for (unsigned i = 0; i < model_.stalls; ++i) {
            const NodeId u = allowed[rng.below(allowed.size())];
            const Tick at =
                model_.window_from +
                static_cast<Tick>(rng.below(
                    static_cast<std::uint64_t>(model_.window_to - model_.window_from) + 1));
            s.stall_node(at, u, rng.range(1, model_.stall_max));
        }
    }

    if (model_.heal_at > 0) {
        FASTNET_EXPECTS_MSG(model_.heal_at >= model_.window_to,
                            "heal_at inside the fault window would not heal");
        s.heal_all(model_.heal_at);
    }
    return s;
}

void FaultInjector::configure(node::ParallelClusterConfig& config) const {
    config.net.loss_ppm = model_.loss_ppm;
    config.net.dup_ppm = model_.dup_ppm;
    if (config.trace_capacity == 0) config.trace_capacity = model_.trace_capacity;
}

}  // namespace fastnet::fault
