// Offline broadcast planning: turn a rooted tree + port knowledge into
// the concrete ANR messages of the branching-paths broadcast, plus the
// competing broadcast schemes' routes (DFS token, layered BFS).
//
// The planner runs inside the origin's NCU using whatever topology view
// it has (the true graph in the standalone benches, the learned G_i(t)
// in the topology-maintenance protocol). The plan ships inside the
// broadcast message — "the message contains a description of the tree,
// enabling every starting node j of a new path to know that it is such
// a node" — here in the already-compiled form of per-start headers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/rooted_tree.hpp"
#include "hw/anr.hpp"
#include "topo/paths.hpp"

namespace fastnet::topo {

/// The planned messages of one broadcast, as routes ready to send: one
/// route per message, grouped by the node that injects it. Every route
/// is a view into one shared label buffer, so a plan is a handful of
/// arrays whatever its size, and sending a planned message copies no
/// labels.
struct BroadcastPlan {
    /// Grouped by injecting node; within one node, in planning order.
    std::vector<hw::Route> routes;
    /// routes_at(u) spans routes[first_route[u] .. first_route[u + 1]).
    std::vector<std::uint32_t> first_route;
    unsigned time_units = 0;      ///< Theorem 2 bound realized by this plan.
    unsigned root_label = 0;      ///< x in the 1 + x - y accounting.
    std::size_t covered_nodes = 0;  ///< Tree size (receptions = size - 1).

    /// Routes of the messages `u` injects (empty for a node off the plan).
    std::span<const hw::Route> routes_at(NodeId u) const {
        if (std::size_t{u} + 1 >= first_route.size()) return {};
        return {routes.data() + first_route[u], first_route[u + 1] - first_route[u]};
    }
};

// ---- Theorem 2 predicted bounds (n >= 1 nodes, m edges) ------------------
// The auditor (obs/audit.hpp) derives these for a concrete run and
// compares them against observed cost::Metrics totals.

/// Branching-paths broadcast time: <= 1 + floor(log2 n) time units.
constexpr unsigned theorem2_time_bound(std::uint64_t n) {
    return 1 + floor_log2(n >= 1 ? n : 1);
}

/// Branching-paths broadcast system calls: <= n message deliveries.
constexpr std::uint64_t theorem2_call_bound(std::uint64_t n) { return n; }

/// Flooding system calls: O(m) — at most two deliveries per edge (one
/// from each endpoint's send across it).
constexpr std::uint64_t flooding_call_bound(std::uint64_t m) { return 2 * m; }

/// Branching-paths plan (Section 3.1). `ports` supplies the sender-side
/// port for every tree edge.
BroadcastPlan plan_branching_paths(const graph::RootedTree& tree, const hw::PortMap& ports);

/// Reorders the children of a tree node before the Euler tour descends
/// into them (in place). Used to reproduce the paper's adversarial
/// route choices in the Section 3 non-convergence example.
using ChildReorder = std::function<void(NodeId parent, std::span<NodeId> children)>;

/// The failure-fragile DFS token scheme used as the paper's negative
/// example: one message whose route is an Euler tour of the tree with a
/// copy at the first visit of each non-root node. Time: 1 unit; loses
/// everything after the first dead link.
BroadcastPlan plan_dfs_token(const graph::RootedTree& tree, const hw::PortMap& ports,
                             const ChildReorder& reorder = {});

/// Footnote-1 scheme: a single message traversing the BFS tree layer by
/// layer (subtree covering depth <= 1 first, then depth <= 2, ... with a
/// return to the origin between layers), copies on first visits only.
/// Header length is O(n^2); requires unbounded dmax. Time: 1 unit.
BroadcastPlan plan_layered_bfs(const graph::RootedTree& tree, const hw::PortMap& ports);

/// Baseline: one direct message from the root to each node (time 1 unit,
/// n-1 messages, header lengths up to the tree depth).
BroadcastPlan plan_direct_unicast(const graph::RootedTree& tree, const hw::PortMap& ports);

}  // namespace fastnet::topo
