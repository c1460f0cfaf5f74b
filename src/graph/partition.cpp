#include "graph/partition.hpp"

#include <queue>

#include "common/expect.hpp"

namespace fastnet::graph {

Partition partition_bfs(const Graph& g, std::uint32_t shards) {
    const std::uint32_t n = g.node_count();
    Partition p;
    p.shard_count = shards < 1 ? 1 : shards;
    if (p.shard_count > n) p.shard_count = n < 1 ? 1 : n;
    p.shard_of.assign(n, 0);
    p.shard_size.assign(p.shard_count, 0);
    if (n == 0) return p;
    if (p.shard_count == 1) {  // one shard holds everything; no boundary
        p.shard_size[0] = n;
        return p;
    }

    std::vector<bool> assigned(n, false);
    std::vector<NodeId> frontier;  // FIFO via cursor; lowest-id seeds first
    NodeId scan = 0;               // next candidate seed / restart point
    std::uint32_t taken = 0;

    for (std::uint32_t s = 0; s < p.shard_count; ++s) {
        // Equal split of what is left: ceil(remaining / remaining_shards).
        const std::uint32_t remaining = n - taken;
        const std::uint32_t remaining_shards = p.shard_count - s;
        std::uint32_t quota = (remaining + remaining_shards - 1) / remaining_shards;
        frontier.clear();
        std::size_t cursor = 0;
        while (quota > 0) {
            if (cursor == frontier.size()) {
                // Frontier exhausted (fresh shard or disconnected graph):
                // seed from the lowest-numbered unassigned node.
                while (assigned[scan]) ++scan;
                frontier.push_back(scan);
                assigned[scan] = true;
            }
            const NodeId u = frontier[cursor++];
            p.shard_of[u] = s;
            ++p.shard_size[s];
            ++taken;
            --quota;
            if (quota == 0) break;
            for (const IncidentEdge& ie : g.incident(u)) {
                if (assigned[ie.neighbor]) continue;
                assigned[ie.neighbor] = true;
                frontier.push_back(ie.neighbor);
            }
        }
        // Nodes pulled into the frontier but not consumed by this shard's
        // quota go back to the pool for the next shard's BFS to re-reach
        // (or for its seed scan to pick up).
        for (std::size_t i = cursor; i < frontier.size(); ++i)
            assigned[frontier[i]] = false;
    }
    FASTNET_ENSURES(taken == n);

    for (EdgeId e = 0; e < g.edge_count(); ++e)
        if (p.boundary(g, e)) p.boundary_edges.push_back(e);
    return p;
}

Partition partition_bfs_weighted(const Graph& g, std::uint32_t shards,
                                 std::span<const Tick> edge_min_delay) {
    FASTNET_EXPECTS(edge_min_delay.size() >= g.edge_count());
    const std::uint32_t n = g.node_count();
    Partition p;
    p.shard_count = shards < 1 ? 1 : shards;
    if (p.shard_count > n) p.shard_count = n < 1 ? 1 : n;
    p.shard_of.assign(n, 0);
    p.shard_size.assign(p.shard_count, 0);
    if (n == 0) return p;

    std::vector<bool> assigned(n, false);
    // Min-heap of (cheapest connecting delay, node). A node may sit in
    // the heap several times (once per discovering edge); stale and
    // already-assigned entries are skipped on pop. Lexicographic pair
    // order gives the deterministic tie-break by node id.
    using Cand = std::pair<Tick, NodeId>;
    std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> heap;
    NodeId scan = 0;
    std::uint32_t taken = 0;

    for (std::uint32_t s = 0; s < p.shard_count; ++s) {
        const std::uint32_t remaining = n - taken;
        const std::uint32_t remaining_shards = p.shard_count - s;
        std::uint32_t quota = (remaining + remaining_shards - 1) / remaining_shards;
        heap = {};
        while (quota > 0) {
            NodeId u = kNoNode;
            while (!heap.empty()) {
                const NodeId cand = heap.top().second;
                heap.pop();
                if (!assigned[cand]) {
                    u = cand;
                    break;
                }
            }
            if (u == kNoNode) {
                // Fresh shard or disconnected graph: seed from the
                // lowest-numbered unassigned node, as partition_bfs does.
                while (assigned[scan]) ++scan;
                u = scan;
            }
            assigned[u] = true;
            p.shard_of[u] = s;
            ++p.shard_size[s];
            ++taken;
            --quota;
            if (quota == 0) break;
            for (const IncidentEdge& ie : g.incident(u)) {
                if (assigned[ie.neighbor]) continue;
                heap.emplace(edge_min_delay[ie.edge], ie.neighbor);
            }
        }
        // Unconsumed candidates simply stay unassigned; the next shard
        // re-reaches them through its own growth or seed scan.
    }
    FASTNET_ENSURES(taken == n);

    for (EdgeId e = 0; e < g.edge_count(); ++e)
        if (p.boundary(g, e)) p.boundary_edges.push_back(e);
    return p;
}

}  // namespace fastnet::graph
