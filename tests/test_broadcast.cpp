// End-to-end broadcast protocol tests on the simulated fabric: coverage,
// Theorem 2 timing, exact system-call counts, and scheme comparisons.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "topo/broadcast_protocols.hpp"

namespace fastnet::topo {
namespace {

using graph::Graph;

TEST(BranchingPaths, CoversAPathGraphInOneUnit) {
    const Graph g = graph::make_path(8);
    const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
    EXPECT_TRUE(out.all_received);
    EXPECT_DOUBLE_EQ(out.time_units, 1.0);
    // Exactly n-1 receptions.
    EXPECT_EQ(out.cost.system_calls, 7u);
    // One message, 7 hops.
    EXPECT_EQ(out.cost.direct_messages, 1u);
    EXPECT_EQ(out.cost.hops, 7u);
}

TEST(BranchingPaths, SystemCallsAreExactlyNMinus1OnTrees) {
    for (std::uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        const Graph g = graph::make_random_tree(60, rng);
        const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
        EXPECT_TRUE(out.all_received);
        EXPECT_EQ(out.cost.system_calls, 59u) << "seed " << seed;
    }
}

TEST(BranchingPaths, Theorem2TimeBoundOnRandomGraphs) {
    for (std::uint64_t seed : {10, 20, 30, 40}) {
        Rng rng(seed);
        const Graph g = graph::make_random_connected(80, 1, 20, rng);
        const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 3);
        EXPECT_TRUE(out.all_received);
        EXPECT_LE(out.time_units, 1 + floor_log2(80)) << "seed " << seed;
        EXPECT_EQ(out.cost.system_calls, 79u);
    }
}

TEST(BranchingPaths, CompleteBinaryTreeTakesDepthUnits) {
    const Graph g = graph::make_complete_binary_tree(4);
    const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 0);
    EXPECT_TRUE(out.all_received);
    EXPECT_DOUBLE_EQ(out.time_units, 4.0);
}

TEST(BranchingPaths, WorksFromEveryOrigin) {
    Rng rng(5);
    const Graph g = graph::make_random_connected(24, 2, 10, rng);
    for (NodeId origin = 0; origin < g.node_count(); ++origin) {
        const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, origin);
        EXPECT_TRUE(out.all_received) << "origin " << origin;
        EXPECT_EQ(out.cost.system_calls, 23u);
    }
}

TEST(Flooding, CoversButCostsOrderM) {
    Rng rng(8);
    const Graph g = graph::make_random_connected(40, 3, 10, rng);
    const auto out = run_broadcast(g, BroadcastScheme::kFlooding, 0);
    EXPECT_TRUE(out.all_received);
    // Every node except the origin forwards on deg-1 links, the origin on
    // deg links; every emitted message is received: ~2m - (n-1) calls.
    EXPECT_GT(out.cost.system_calls, static_cast<std::uint64_t>(g.node_count()));
    EXPECT_LE(out.cost.system_calls, 2ull * g.edge_count());
    EXPECT_GE(out.cost.system_calls, 2ull * g.edge_count() - (g.node_count() - 1));
}

TEST(Flooding, TimeGrowsWithEccentricityNotLogN) {
    const Graph g = graph::make_path(32);
    const auto out = run_broadcast(g, BroadcastScheme::kFlooding, 0);
    EXPECT_TRUE(out.all_received);
    // Each hop costs a software delay: 31 units down the path.
    EXPECT_DOUBLE_EQ(out.time_units, 31.0);
}

TEST(DfsToken, SingleMessageCoversTreeInOneUnit) {
    const Graph g = graph::make_complete_binary_tree(3);
    const auto out = run_broadcast(g, BroadcastScheme::kDfsToken, 0);
    EXPECT_TRUE(out.all_received);
    EXPECT_EQ(out.cost.direct_messages, 1u);
    EXPECT_EQ(out.cost.system_calls, 14u);
    EXPECT_DOUBLE_EQ(out.time_units, 1.0);
}

TEST(LayeredBfs, OneUnitWithQuadraticHeader) {
    const Graph g = graph::make_complete_binary_tree(3);
    const auto out = run_broadcast(g, BroadcastScheme::kLayeredBfs, 0);
    EXPECT_TRUE(out.all_received);
    EXPECT_DOUBLE_EQ(out.time_units, 1.0);
    EXPECT_EQ(out.cost.system_calls, 14u);
    // Header revisits layers: strictly longer than the DFS tour.
    const auto dfs = run_broadcast(g, BroadcastScheme::kDfsToken, 0);
    EXPECT_GT(out.cost.max_header_len, dfs.cost.max_header_len);
}

TEST(LayeredBfs, RejectsBoundedDmax) {
    node::ParallelClusterConfig cfg;
    cfg.params.dmax = 8;
    EXPECT_THROW(
        run_broadcast(graph::make_path(4), BroadcastScheme::kLayeredBfs, 0, cfg),
        ContractViolation);
}

TEST(DirectUnicast, OneUnitNMinus1Messages) {
    Rng rng(4);
    const Graph g = graph::make_random_tree(20, rng);
    const auto out = run_broadcast(g, BroadcastScheme::kDirectUnicast, 0);
    EXPECT_TRUE(out.all_received);
    EXPECT_EQ(out.cost.direct_messages, 19u);
    EXPECT_EQ(out.cost.system_calls, 19u);
    EXPECT_DOUBLE_EQ(out.time_units, 1.0);
}

TEST(Broadcast, SchemesAgreeOnCoverage) {
    Rng rng(77);
    const Graph g = graph::make_random_connected(30, 2, 10, rng);
    for (auto scheme : {BroadcastScheme::kBranchingPaths, BroadcastScheme::kFlooding,
                        BroadcastScheme::kDfsToken, BroadcastScheme::kLayeredBfs,
                        BroadcastScheme::kDirectUnicast}) {
        const auto out = run_broadcast(g, scheme, 11);
        EXPECT_TRUE(out.all_received) << scheme_name(scheme);
    }
}

TEST(Broadcast, DmaxDiameterSufficesForBranchingPathsOnTrees) {
    // With dmax = n every decomposition path fits (paths are tree paths).
    Rng rng(12);
    const Graph g = graph::make_random_tree(50, rng);
    node::ParallelClusterConfig cfg;
    cfg.params.dmax = 51;  // path of <= 50 nodes -> header <= 50 labels
    const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 0, cfg);
    EXPECT_TRUE(out.all_received);
}

TEST(Broadcast, HardwareDelayShiftsTimesButNotCalls) {
    const Graph g = graph::make_path(8);
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 10;  // C = 10, P = 1
    const auto out = run_broadcast(g, BroadcastScheme::kBranchingPaths, 0, cfg);
    EXPECT_TRUE(out.all_received);
    EXPECT_EQ(out.cost.system_calls, 7u);
    // 7 hops of C each dominate: elapsed >= 70.
    EXPECT_GE(out.elapsed, 70);
}

}  // namespace
}  // namespace fastnet::topo
