// Property tests for the spatial partitioner behind the parallel kernel.
//
// partition_bfs must be an exact cover (every node in exactly one
// shard), balanced (sizes differ by at most one), and a pure function
// of (graph, shard count) — the parallel kernel's cross-shard event
// order is built on top of it, so any instability here would surface as
// trace divergence between runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace fastnet::graph {
namespace {

/// Checks the structural invariants every partition must satisfy.
void expect_valid(const Graph& g, const Partition& p) {
    ASSERT_GE(p.shard_count, 1u);
    ASSERT_EQ(p.shard_of.size(), g.node_count());
    ASSERT_EQ(p.shard_size.size(), p.shard_count);

    // Exact cover: shard_of is total, in range, and shard_size counts it.
    std::vector<std::uint32_t> counted(p.shard_count, 0);
    for (NodeId u = 0; u < g.node_count(); ++u) {
        ASSERT_LT(p.shard_of[u], p.shard_count) << "node " << u;
        ++counted[p.shard_of[u]];
    }
    EXPECT_EQ(counted, p.shard_size);

    // Boundary list: exactly the cross-shard edges, ascending, unique.
    std::vector<EdgeId> expected;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
        if (p.shard_of[g.edge(e).a] != p.shard_of[g.edge(e).b]) expected.push_back(e);
    EXPECT_EQ(expected, p.boundary_edges);
    for (EdgeId e : p.boundary_edges) EXPECT_TRUE(p.boundary(g, e));
}

TEST(Partition, SingleShardCoversEverythingWithNoBoundary) {
    Rng rng(7);
    const Graph g = make_random_connected(17, 1, 3, rng);
    const Partition p = partition_bfs(g, 1);
    expect_valid(g, p);
    EXPECT_EQ(p.shard_count, 1u);
    EXPECT_TRUE(p.boundary_edges.empty());
    EXPECT_EQ(p.shard_size[0], g.node_count());
}

TEST(Partition, CoversAllNodesExactlyOnceAcrossShapes) {
    Rng rng(11);
    const Graph graphs[] = {
        make_path(1),          make_path(2),           make_cycle(9),
        make_star(12),         make_grid(5, 7),        make_complete(8),
        make_hypercube(4),     make_caterpillar(6, 3), make_podc_example(),
        make_random_connected(40, 1, 4, rng),
    };
    for (const Graph& g : graphs)
        for (std::uint32_t s : {1u, 2u, 3u, 5u, 8u})
            expect_valid(g, partition_bfs(g, s));
}

TEST(Partition, ShardSizesDifferByAtMostOne) {
    Rng rng(23);
    const Graph g = make_random_connected(37, 1, 5, rng);
    for (std::uint32_t s : {2u, 3u, 4u, 7u, 12u, 36u}) {
        const Partition p = partition_bfs(g, s);
        const auto [lo, hi] =
            std::minmax_element(p.shard_size.begin(), p.shard_size.end());
        EXPECT_LE(*hi - *lo, 1u) << "shards=" << s;
    }
}

TEST(Partition, ClampsShardCountToNodes) {
    const Graph g = make_cycle(6);
    const Partition over = partition_bfs(g, 100);
    expect_valid(g, over);
    EXPECT_EQ(over.shard_count, 6u);
    for (std::uint32_t size : over.shard_size) EXPECT_EQ(size, 1u);

    const Partition zero = partition_bfs(g, 0);
    expect_valid(g, zero);
    EXPECT_EQ(zero.shard_count, 1u);
}

TEST(Partition, HandlesDisconnectedGraphs) {
    // Two triangles and an isolated node; BFS must restart per component.
    GraphBuilder b(7);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 0);
    b.add_edge(3, 4);
    b.add_edge(4, 5);
    b.add_edge(5, 3);
    const Graph g = std::move(b).build();
    for (std::uint32_t s : {1u, 2u, 3u, 7u}) expect_valid(g, partition_bfs(g, s));
}

TEST(Partition, EmptyGraphYieldsOneEmptyShard) {
    const Graph g;
    const Partition p = partition_bfs(g, 4);
    EXPECT_EQ(p.shard_count, 1u);
    EXPECT_TRUE(p.shard_of.empty());
    EXPECT_TRUE(p.boundary_edges.empty());
}

TEST(Partition, IsDeterministic) {
    Rng rng(5);
    const Graph g = make_random_connected(29, 2, 5, rng);
    for (std::uint32_t s : {2u, 5u, 9u}) {
        const Partition a = partition_bfs(g, s);
        const Partition b = partition_bfs(g, s);
        EXPECT_EQ(a.shard_of, b.shard_of);
        EXPECT_EQ(a.boundary_edges, b.boundary_edges);
        EXPECT_EQ(a.shard_size, b.shard_size);
    }
}

// ---- delay-aware variant -------------------------------------------------

/// Deterministic heterogeneous delays in [1, 9] per edge.
std::vector<Tick> synth_delays(const Graph& g, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Tick> d(g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) d[e] = rng.range(1, 9);
    return d;
}

Tick min_boundary_delay(const Partition& p, const std::vector<Tick>& delays) {
    Tick best = kNever;
    for (EdgeId e : p.boundary_edges) best = std::min(best, delays[e]);
    return best;
}

TEST(PartitionWeighted, SatisfiesAllStructuralInvariants) {
    Rng rng(31);
    const Graph graphs[] = {
        make_path(1),      make_cycle(9),          make_star(12),
        make_grid(5, 7),   make_complete(8),       make_podc_example(),
        make_random_connected(40, 1, 4, rng),
    };
    for (const Graph& g : graphs) {
        const std::vector<Tick> delays = synth_delays(g, 3);
        for (std::uint32_t s : {1u, 2u, 3u, 5u, 8u}) {
            const Partition p = partition_bfs_weighted(g, s, delays);
            expect_valid(g, p);
            const auto [lo, hi] =
                std::minmax_element(p.shard_size.begin(), p.shard_size.end());
            EXPECT_LE(*hi - *lo, 1u);
        }
    }
}

TEST(PartitionWeighted, IsDeterministic) {
    Rng rng(13);
    const Graph g = make_random_connected(33, 2, 5, rng);
    const std::vector<Tick> delays = synth_delays(g, 17);
    for (std::uint32_t s : {2u, 5u, 9u}) {
        const Partition a = partition_bfs_weighted(g, s, delays);
        const Partition b = partition_bfs_weighted(g, s, delays);
        EXPECT_EQ(a.shard_of, b.shard_of);
        EXPECT_EQ(a.boundary_edges, b.boundary_edges);
        EXPECT_EQ(a.shard_size, b.shard_size);
    }
}

TEST(PartitionWeighted, PrefersToCutTheExpensiveEdge) {
    // Two 3-cliques of cheap (delay 1) edges joined by one expensive
    // (delay 9) bridge: a 2-way split must cut exactly the bridge.
    GraphBuilder builder(6);
    const std::vector<std::pair<NodeId, NodeId>> cheap = {
        {0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}};
    for (auto [a, b] : cheap) builder.add_edge(a, b);
    const EdgeId bridge = builder.add_edge(2, 3);
    const Graph g = std::move(builder).build();
    std::vector<Tick> delays(g.edge_count(), 1);
    delays[bridge] = 9;
    const Partition p = partition_bfs_weighted(g, 2, delays);
    expect_valid(g, p);
    ASSERT_EQ(p.boundary_edges.size(), 1u);
    EXPECT_EQ(p.boundary_edges[0], bridge);
}

TEST(PartitionWeighted, BoundaryLookaheadAtLeastMatchesUnweighted) {
    // On heterogeneous-delay graphs the delay-aware cut's minimum
    // boundary delay (the parallel kernel's lookahead) must never be
    // worse than the delay-blind one's.
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
        Rng rng(seed);
        const Graph g = make_random_connected(48, 1, 3, rng);
        const std::vector<Tick> delays = synth_delays(g, seed * 101);
        for (std::uint32_t s : {2u, 4u}) {
            const Partition blind = partition_bfs(g, s);
            const Partition aware = partition_bfs_weighted(g, s, delays);
            expect_valid(g, aware);
            if (blind.boundary_edges.empty() || aware.boundary_edges.empty()) continue;
            EXPECT_GE(min_boundary_delay(aware, delays),
                      min_boundary_delay(blind, delays))
                << "seed=" << seed << " shards=" << s;
        }
    }
}

TEST(PartitionWeighted, UniformDelaysStillBalancedAndContiguousish) {
    // With uniform delays the weighted variant has no signal; it must
    // still produce a valid balanced partition of a disconnected graph.
    GraphBuilder b(7);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 0);
    b.add_edge(3, 4);
    b.add_edge(4, 5);
    b.add_edge(5, 3);
    const Graph g = std::move(b).build();
    const std::vector<Tick> delays(g.edge_count(), 4);
    for (std::uint32_t s : {1u, 2u, 3u, 7u})
        expect_valid(g, partition_bfs_weighted(g, s, delays));
}

TEST(Partition, ShardsAreBfsContiguousOnAPath) {
    // On a path, contiguous BFS regions are intervals: every shard's
    // nodes form one consecutive block.
    const Graph g = make_path(12);
    const Partition p = partition_bfs(g, 4);
    expect_valid(g, p);
    for (NodeId u = 0; u + 1 < g.node_count(); ++u)
        EXPECT_LE(p.shard_of[u], p.shard_of[u + 1]);
}

}  // namespace
}  // namespace fastnet::graph
