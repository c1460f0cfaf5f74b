#include "graph/graph.hpp"

#include <utility>

namespace fastnet::graph {

EdgeId Graph::find_edge(NodeId a, NodeId b) const {
    if (a >= node_count() || b >= node_count()) return kNoEdge;
    // Scan the smaller endpoint's incidence.
    const NodeId u = degree(a) <= degree(b) ? a : b;
    const NodeId v = (u == a) ? b : a;
    for (const IncidentEdge& ie : incident(u))
        if (ie.neighbor == v) return ie.edge;
    return kNoEdge;
}

std::vector<NodeId> Graph::neighbors(NodeId u) const {
    std::vector<NodeId> out;
    out.reserve(degree(u));
    for (const IncidentEdge& ie : incident(u)) out.push_back(ie.neighbor);
    return out;
}

std::size_t Graph::memory_bytes() const {
    return edges_.capacity() * sizeof(Edge) + offsets_.capacity() * sizeof(std::uint32_t) +
           incident_.capacity() * sizeof(IncidentEdge);
}

EdgeId GraphBuilder::add_edge(NodeId a, NodeId b) {
    FASTNET_EXPECTS(a < node_count() && b < node_count());
    FASTNET_EXPECTS_MSG(a != b, "self-loops are not part of the model");
    FASTNET_EXPECTS_MSG(!has_edge(a, b), "parallel edges are not part of the model");
    const EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{a, b});
    half_next_.push_back(head_[a]);
    head_[a] = 2 * id;
    half_next_.push_back(head_[b]);
    head_[b] = 2 * id + 1;
    ++degree_[a];
    ++degree_[b];
    return id;
}

EdgeId GraphBuilder::find_edge(NodeId a, NodeId b) const {
    if (a >= node_count() || b >= node_count()) return kNoEdge;
    // Walk the smaller endpoint's half-edge chain.
    const NodeId u = degree_[a] <= degree_[b] ? a : b;
    const NodeId v = (u == a) ? b : a;
    for (std::uint32_t h = head_[u]; h != kNoHalf; h = half_next_[h]) {
        const Edge& e = edges_[h >> 1];
        if (((h & 1) == 0 ? e.b : e.a) == v) return static_cast<EdgeId>(h >> 1);
    }
    return kNoEdge;
}

Graph GraphBuilder::build() && {
    const NodeId n = node_count();
    Graph g;
    g.offsets_.assign(n + 1, 0);
    for (NodeId u = 0; u < n; ++u) g.offsets_[u + 1] = g.offsets_[u] + degree_[u];
    g.incident_.resize(std::size_t{2} * edges_.size());
    // Counting pass in edge-id order: per-node chains were appended in the
    // same order, so this reproduces insertion order exactly.
    std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (EdgeId e = 0; e < edges_.size(); ++e) {
        const Edge& ed = edges_[e];
        g.incident_[cursor[ed.a]++] = IncidentEdge{e, ed.b};
        g.incident_[cursor[ed.b]++] = IncidentEdge{e, ed.a};
    }
    g.edges_ = std::move(edges_);
    *this = GraphBuilder(0);
    return g;
}

}  // namespace fastnet::graph
