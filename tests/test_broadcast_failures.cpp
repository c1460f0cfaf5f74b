// Broadcast behaviour under link failures: Lemma 2 (one-way prefix
// delivery) for branching paths versus total loss for the DFS token.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "topo/broadcast_protocols.hpp"

namespace fastnet::topo {
namespace {

using graph::Graph;

/// Runs a broadcast over `g` from `origin` with `dead` edges failed
/// before the start.
BroadcastOutcome run_with_failures(const Graph& g, BroadcastScheme scheme, NodeId origin,
                                   const std::vector<EdgeId>& dead) {
    node::ParallelCluster cluster(g, [&g, scheme](NodeId) {
        return std::make_unique<BroadcastProtocol>(g, scheme);
    });
    for (EdgeId e : dead) cluster.fail_link(0, e);
    // Note: the protocol still *plans* over the full graph — the origin
    // has not yet learned of the failures, exactly the Section 3 setting.
    cluster.start(origin, 1);
    const Tick done = cluster.run();
    BroadcastOutcome out;
    out.received.resize(g.node_count());
    for (NodeId u = 0; u < g.node_count(); ++u)
        out.received[u] = cluster.protocol_as<BroadcastProtocol>(u).received();
    out.cost = cost::snapshot(cluster.merged_metrics(), done);
    return out;
}

TEST(FailureBroadcast, Lemma2PrefixDelivery) {
    // Path 0-1-2-3-4-5 with edge (3,4) dead: branching paths (one path
    // here) must still reach 1, 2, 3 — every node whose route from the
    // origin is intact.
    const Graph g = graph::make_path(6);
    const auto out = run_with_failures(g, BroadcastScheme::kBranchingPaths, 0,
                                       {g.find_edge(3, 4)});
    EXPECT_TRUE(out.received[1]);
    EXPECT_TRUE(out.received[2]);
    EXPECT_TRUE(out.received[3]);
    EXPECT_FALSE(out.received[4]);
    EXPECT_FALSE(out.received[5]);
}

TEST(FailureBroadcast, BranchingPathsLosesOnlyAffectedBranch) {
    // Star: hub 0; kill one spoke. Only that leaf misses the broadcast.
    const Graph g = graph::make_star(8);
    const auto out = run_with_failures(g, BroadcastScheme::kBranchingPaths, 0,
                                       {g.find_edge(0, 3)});
    for (NodeId u = 1; u < 8; ++u) EXPECT_EQ(out.received[u], u != 3) << u;
}

TEST(FailureBroadcast, DfsTokenLosesEverythingPastTheBreak) {
    // Complete binary tree depth 2; kill the first edge the Euler tour
    // crosses after some prefix: the token dies there.
    const Graph g = graph::make_complete_binary_tree(2);
    // Tour from 0: [0,1,3,1,4,...]; kill (1,3).
    const auto out = run_with_failures(g, BroadcastScheme::kDfsToken, 0,
                                       {g.find_edge(1, 3)});
    EXPECT_TRUE(out.received[1]);   // copied at 1 before the dead hop
    EXPECT_FALSE(out.received[3]);  // unreachable anyway? no: only edge (1,3) died
    // Everything after the break in tour order is lost even though the
    // network still connects it:
    EXPECT_FALSE(out.received[4]);
    EXPECT_FALSE(out.received[2]);
    EXPECT_FALSE(out.received[5]);
    EXPECT_FALSE(out.received[6]);
}

TEST(FailureBroadcast, BranchingPathsOutlivesDfsOnSameFailure) {
    const Graph g = graph::make_complete_binary_tree(2);
    const std::vector<EdgeId> dead{g.find_edge(1, 3)};
    const auto bp = run_with_failures(g, BroadcastScheme::kBranchingPaths, 0, dead);
    const auto dfs = run_with_failures(g, BroadcastScheme::kDfsToken, 0, dead);
    std::size_t bp_cover = 0, dfs_cover = 0;
    for (NodeId u = 1; u < g.node_count(); ++u) {
        bp_cover += bp.received[u];
        dfs_cover += dfs.received[u];
    }
    // Branching paths: everything except node 3 (which is truly cut off).
    EXPECT_EQ(bp_cover, g.node_count() - 2);
    EXPECT_LT(dfs_cover, bp_cover);
}

TEST(FailureBroadcast, OneWayPropertyRandomized) {
    // Property: for any single failed tree edge, branching paths delivers
    // to every node whose tree path from the origin avoids that edge.
    for (std::uint64_t seed : {3, 14, 159}) {
        Rng rng(seed);
        const Graph g = graph::make_random_tree(24, rng);
        const graph::RootedTree t = graph::min_hop_tree(g, 0);
        const EdgeId dead = static_cast<EdgeId>(rng.below(g.edge_count()));
        const auto out = run_with_failures(g, BroadcastScheme::kBranchingPaths, 0, {dead});
        // Which nodes are separated from 0 by `dead`?
        const auto reach = graph::bfs(g, 0, [dead](EdgeId e) { return e != dead; });
        for (NodeId u = 1; u < g.node_count(); ++u) {
            const bool connected = reach.dist[u] != graph::BfsResult::kUnreached;
            EXPECT_EQ(out.received[u], connected) << "seed " << seed << " node " << u;
        }
    }
}

TEST(FailureBroadcast, MidFlightFailureWithSlowLinks) {
    // With C > 0 a failure can hit while the path message is in transit.
    const Graph g = graph::make_path(5);
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 10;
    node::ParallelCluster cluster(g, [&g](NodeId) {
        return std::make_unique<BroadcastProtocol>(g, BroadcastScheme::kBranchingPaths);
    }, cfg);
    cluster.start(0, 0);
    // The single path message leaves at t=1; it crosses edge (2,3) during
    // [21, 31). Kill it at t=25.
    cluster.fail_link(25, g.find_edge(2, 3));
    cluster.run();
    EXPECT_TRUE(cluster.protocol_as<BroadcastProtocol>(1).received());
    EXPECT_TRUE(cluster.protocol_as<BroadcastProtocol>(2).received());
    EXPECT_FALSE(cluster.protocol_as<BroadcastProtocol>(3).received());
    EXPECT_FALSE(cluster.protocol_as<BroadcastProtocol>(4).received());
}

}  // namespace
}  // namespace fastnet::topo
