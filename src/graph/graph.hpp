// Undirected multigraph-free graph with dense node and edge ids.
//
// This is the static description of a network: nodes are NCU-equipped
// switches, edges are bidirectional communication links (Section 2 of the
// paper). Dynamic state (active / inactive links) lives in hw::Network;
// the Graph itself is immutable, which lets algorithms and the simulator —
// including every shard thread of the parallel kernel — share one
// instance by const reference without synchronization.
//
// Storage is struct-of-arrays throughout — a deliberate choice for
// million-node topologies (docs/PERF.md, "Memory at scale"). Graphs are
// built in two steps. A GraphBuilder keeps incidence as intrusive per-node
// chains over half-edge ids (edge e contributes half-edges 2e and 2e+1),
// so edges can be added and probed in O(min degree). GraphBuilder::build()
// then compacts the chains into the Graph's CSR layout (offsets_ + one
// flat incident_ array) by a counting pass over the edges in id order,
// which reproduces per-node insertion order exactly. A Graph is complete
// when it is constructed: no const accessor mutates anything. No per-node
// heap objects exist at any point.
#pragma once

#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace fastnet::graph {

/// One endpoint's view of an incident edge.
struct IncidentEdge {
    EdgeId edge = kNoEdge;    ///< Dense edge id.
    NodeId neighbor = kNoNode;  ///< The node on the other side.
};

/// An undirected edge between two distinct nodes.
struct Edge {
    NodeId a = kNoNode;
    NodeId b = kNoNode;

    /// The endpoint that is not `u`. Precondition: u is an endpoint.
    NodeId other(NodeId u) const {
        FASTNET_EXPECTS(u == a || u == b);
        return u == a ? b : a;
    }
};

class GraphBuilder;

/// Immutable undirected simple graph. Built by GraphBuilder (or a
/// generator); the default-constructed Graph has no nodes.
class Graph {
public:
    Graph() = default;

    /// Number of nodes, n.
    NodeId node_count() const {
        return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
    }
    /// Number of edges, m.
    EdgeId edge_count() const { return static_cast<EdgeId>(edges_.size()); }

    /// True if {a, b} is an edge.
    bool has_edge(NodeId a, NodeId b) const { return find_edge(a, b) != kNoEdge; }

    /// Edge id of {a, b}, or kNoEdge. O(min degree).
    EdgeId find_edge(NodeId a, NodeId b) const;

    const Edge& edge(EdgeId e) const {
        FASTNET_EXPECTS(e < edges_.size());
        return edges_[e];
    }

    /// All edges incident to u, in insertion order (deterministic).
    std::span<const IncidentEdge> incident(NodeId u) const {
        FASTNET_EXPECTS(u < node_count());
        return {incident_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    }

    std::size_t degree(NodeId u) const {
        FASTNET_EXPECTS(u < node_count());
        return offsets_[u + 1] - offsets_[u];
    }

    /// Neighbor list of u (materialized copy; prefer incident() in loops).
    std::vector<NodeId> neighbors(NodeId u) const;

    std::span<const Edge> edges() const { return edges_; }

    /// Heap bytes held by this graph (capacities of the edge list and
    /// the CSR) — a cost::Metrics memory-ledger input.
    std::size_t memory_bytes() const;

private:
    friend class GraphBuilder;

    std::vector<Edge> edges_;
    std::vector<std::uint32_t> offsets_;   ///< n + 1 prefix sums (empty: n = 0).
    std::vector<IncidentEdge> incident_;   ///< 2m entries.
};

/// Adds edges one at a time, then yields the immutable Graph.
class GraphBuilder {
public:
    explicit GraphBuilder(NodeId node_count)
        : head_(node_count, kNoHalf), degree_(node_count, 0) {}

    NodeId node_count() const { return static_cast<NodeId>(head_.size()); }
    EdgeId edge_count() const { return static_cast<EdgeId>(edges_.size()); }

    /// Adds an undirected edge {a, b}. Parallel edges and self-loops are
    /// rejected (the paper's model assigns unique per-switch link ids,
    /// which a simple graph always admits).
    EdgeId add_edge(NodeId a, NodeId b);

    /// True if {a, b} has been added.
    bool has_edge(NodeId a, NodeId b) const { return find_edge(a, b) != kNoEdge; }

    /// Edge id of {a, b}, or kNoEdge. O(min degree) over the half-edge
    /// chains.
    EdgeId find_edge(NodeId a, NodeId b) const;

    /// Compacts the chains into the Graph's CSR and hands the edges over;
    /// the builder is left empty.
    Graph build() &&;

private:
    static constexpr std::uint32_t kNoHalf = 0xffffffffu;

    std::vector<Edge> edges_;
    /// Per node: most recently added incident half-edge, or kNoHalf.
    std::vector<std::uint32_t> head_;
    /// Per half-edge 2e (+1): next half-edge at the same endpoint.
    std::vector<std::uint32_t> half_next_;
    std::vector<std::uint32_t> degree_;
};

}  // namespace fastnet::graph
