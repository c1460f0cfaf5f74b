// Declarative failure/repair scripts for experiments.
//
// A Scenario is a list of timed network actions (fail/restore links and
// nodes, start protocols) scheduled on a ParallelCluster before running
// it (ParallelCluster::schedule). Tests, benches and examples share one
// vocabulary instead of ad-hoc lambdas, and a scenario can be generated
// randomly from a seed (reproducible chaos testing).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace fastnet::node {

struct ScenarioAction {
    enum class Kind {
        kFailLink,
        kRestoreLink,
        kFailNode,     ///< Link-layer only: incident links drop, software survives.
        kRestoreNode,
        kStart,
        kCrashNode,    ///< Hard failure: links drop AND all soft state dies.
        kRestartNode,  ///< Recovery: fresh protocol instance, on_restart hook.
        kStallNode,    ///< Inflate the node's processing delay by `amount` (0 clears).
        kMarkPhase,    ///< Observability: tag later system calls with phase `amount`.
    };
    Tick at = 0;
    Kind kind = Kind::kFailLink;
    EdgeId edge = kNoEdge;   ///< For link actions.
    NodeId node = kNoNode;   ///< For node actions / start (kStart with kNoNode: every node).
    Tick amount = 0;         ///< For kStallNode: the extra delay. For kMarkPhase: the phase id.
};

/// Parameters for random_churn (see below). Separate from the call so
/// fault models (fault/injector.hpp) can be built up declaratively.
struct ChurnSpec {
    unsigned link_events = 0;  ///< Random link fail/restore draws.
    unsigned node_events = 0;  ///< Random node crash-or-restart draws.
    Tick from = 0;             ///< Window start (inclusive).
    Tick to = 0;               ///< Window end (inclusive).
    std::vector<EdgeId> protect;       ///< Edges churn must not touch.
    std::vector<NodeId> protect_nodes; ///< Nodes churn must not touch.
    /// true → node events are hard crash/restart; false → link-layer
    /// fail/restore (software state survives).
    bool crash_nodes = true;
};

class Scenario {
public:
    Scenario& fail_link(Tick at, EdgeId e);
    Scenario& restore_link(Tick at, EdgeId e);
    Scenario& fail_node(Tick at, NodeId u);
    Scenario& restore_node(Tick at, NodeId u);
    Scenario& start(Tick at, NodeId u);
    Scenario& crash_node(Tick at, NodeId u);
    Scenario& restart_node(Tick at, NodeId u);
    Scenario& stall_node(Tick at, NodeId u, Tick extra);
    /// Observability marker: from `at` on, system calls are attributed to
    /// experiment phase `phase` (see ParallelCluster::mark_phase). No
    /// network effect.
    Scenario& mark_phase(Tick at, std::uint64_t phase);

    const std::vector<ScenarioAction>& actions() const { return actions_; }
    std::size_t size() const { return actions_.size(); }

    /// Latest scripted time, 0 for an empty scenario (benches use this as
    /// the earliest moment recovery can be complete).
    Tick last_action_at() const;

    /// A random fail/restore churn: `events` actions over [from, to),
    /// never touching edges in `protect` (e.g. bridges you must keep).
    /// Requires at least one unprotected edge when events > 0.
    static Scenario random_churn(const graph::Graph& g, unsigned events, Tick from, Tick to,
                                 Rng& rng, const std::vector<EdgeId>& protect = {});

    /// Generalized churn: spec.link_events link draws plus
    /// spec.node_events node draws (crash/restart or fail/restore per
    /// spec.crash_nodes), uniformly over [spec.from, spec.to], never
    /// touching protected edges/nodes.
    static Scenario random_churn(const graph::Graph& g, const ChurnSpec& spec, Rng& rng);

    /// Ensures the scenario leaves the network whole at the end: appends
    /// a restore at `at` for every link whose last scripted action (in
    /// simulated-time order) was a failure, a restore/restart for every
    /// node last left failed/crashed, and a stall-clear for every node
    /// left with a nonzero stall.
    Scenario& heal_all(Tick at);

private:
    std::vector<ScenarioAction> actions_;
};

}  // namespace fastnet::node
