// Spatial graph partitioning for the parallel event kernel.
//
// The conservative-PDES kernel (node/parallel_cluster.hpp) assigns every
// node to exactly one shard and runs shards concurrently in bounded time
// windows. The window width is the *lookahead*: the minimum per-hop
// delay — a packet leaving shard A at time t cannot arrive in shard B
// before t + lookahead, so shards may safely run [t, t + lookahead)
// without hearing from each other. Every link shares one delay
// configuration, so the cut does not move the lookahead; fewer boundary
// edges mean less cross-shard traffic at window barriers.
//
// partition_bfs grows shards as contiguous BFS regions: each shard is a
// ball of adjacent nodes, so most edges stay internal — the spatial
// locality the paper's link-delay model rewards. The result is a pure
// function of (graph, shard count): no RNG, no iteration-order
// dependence, so a partition — and hence the sharded event order built
// on top of it — is reproducible across runs and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace fastnet::graph {

struct Partition {
    std::uint32_t shard_count = 1;
    /// shard_of[u] in [0, shard_count) for every node u.
    std::vector<std::uint32_t> shard_of;
    /// Edges whose endpoints land in different shards, ascending EdgeId.
    std::vector<EdgeId> boundary_edges;
    /// Nodes per shard; sums to node_count().
    std::vector<std::uint32_t> shard_size;

    bool boundary(const Graph& g, EdgeId e) const {
        return shard_of[g.edge(e).a] != shard_of[g.edge(e).b];
    }
};

/// Deterministic contiguous partition into `shards` parts (clamped to
/// [1, node_count]; a zero-node graph yields one empty shard). Shards are
/// grown one at a time by BFS from the lowest-numbered unassigned node;
/// shard s takes ceil(remaining / remaining_shards) nodes, so sizes never
/// differ by more than one. Disconnected graphs are handled by restarting
/// the BFS frontier at the next unassigned node.
Partition partition_bfs(const Graph& g, std::uint32_t shards);

}  // namespace fastnet::graph
