// Ablation A6: finite link capacity (one packet per link direction per
// spacing interval). Theorem 3's counting argument implicitly assumes a
// node launches at most ~degree messages per time unit — with infinite-
// capacity links the "direct unicast" scheme trivially beats the lower
// bound, with spaced links it cannot.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "topo/broadcast_protocols.hpp"
#include "topo/lower_bound.hpp"

namespace fastnet::topo {
namespace {

BroadcastOutcome run_spaced(const graph::Graph& g, BroadcastScheme scheme, Tick spacing) {
    node::ParallelClusterConfig cfg;
    cfg.net.link_spacing = spacing;
    return run_broadcast(g, scheme, 0, cfg);
}

TEST(LinkCapacity, SpacingSerializesSameLinkPackets) {
    // Star: the root sends n-1 direct messages through distinct links —
    // spacing does not hurt (one packet per link).
    const graph::Graph star = graph::make_star(9);
    const auto out = run_spaced(star, BroadcastScheme::kDirectUnicast, 1);
    EXPECT_TRUE(out.all_received);
    EXPECT_DOUBLE_EQ(out.time_units, 1.0);
}

TEST(LinkCapacity, DirectUnicastLosesItsMagicOnSharedLinks) {
    // Complete binary tree: every direct message to the left subtree
    // shares the root's left link. With spacing 1 they arrive one per
    // unit: coverage time becomes Omega(n / 2), not 1.
    const graph::Graph g = graph::make_complete_binary_tree(4);  // n = 31
    const auto free = run_spaced(g, BroadcastScheme::kDirectUnicast, 0);
    const auto spaced = run_spaced(g, BroadcastScheme::kDirectUnicast, 1);
    EXPECT_TRUE(free.all_received);
    EXPECT_TRUE(spaced.all_received);
    EXPECT_DOUBLE_EQ(free.time_units, 1.0);
    // 15 messages share each root link: the last arrives ~14 units late.
    EXPECT_GE(spaced.time_units, 14.0);
}

TEST(LinkCapacity, BranchingPathsIsUnaffected) {
    // The paper's algorithm sends at most one message per link per wave,
    // so finite capacity costs it nothing — it lives inside the
    // constrained class the Theorem 3 bound applies to.
    const graph::Graph g = graph::make_complete_binary_tree(4);
    const auto free = run_spaced(g, BroadcastScheme::kBranchingPaths, 0);
    const auto spaced = run_spaced(g, BroadcastScheme::kBranchingPaths, 1);
    EXPECT_TRUE(spaced.all_received);
    EXPECT_DOUBLE_EQ(spaced.time_units, free.time_units);
}

TEST(LinkCapacity, SpacedBroadcastRespectsLowerBoundShape) {
    // Under spacing, every scheme's coverage time on the complete binary
    // tree is at least the Theorem 3 adversary bound.
    for (unsigned depth : {3u, 5u, 7u}) {
        const graph::Graph g = graph::make_complete_binary_tree(depth);
        const unsigned lb = one_way_lower_bound(depth);
        for (auto scheme : {BroadcastScheme::kBranchingPaths, BroadcastScheme::kDirectUnicast}) {
            const auto out = run_spaced(g, scheme, 1);
            EXPECT_TRUE(out.all_received);
            EXPECT_GT(out.time_units, static_cast<double>(lb))
                << scheme_name(scheme) << " depth " << depth;
        }
    }
}

TEST(LinkCapacity, FifoStillHoldsUnderSpacing) {
    node::ParallelClusterConfig cfg;
    cfg.net.link_spacing = 3;
    const graph::Graph g = graph::make_path(2);
    const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 0, cfg);
    EXPECT_TRUE(out.all_received);
}

}  // namespace
}  // namespace fastnet::topo
