#include "topo/paths.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace fastnet::topo {

PathDecomposition decompose_paths(const graph::RootedTree& t,
                                  const std::vector<unsigned>& labels) {
    FASTNET_EXPECTS(labels.size() == t.node_capacity());
    FASTNET_EXPECTS_MSG(satisfies_lemma1(t, labels), "labels violate Lemma 1");
    PathDecomposition d;
    // Every non-root node lies on one path, plus one start per path.
    d.nodes.reserve(2 * static_cast<std::size_t>(t.size()));
    d.paths.reserve(t.size());  // each path covers at least one node

    // A node heads a chain iff its label differs from its parent's (or it
    // is the root). Preorder guarantees we see a chain's start path (the
    // one its start node lies on) before the paths branching off it.
    for (NodeId u : t.preorder()) {
        const bool is_head = (u == t.root()) || labels[u] != labels[t.parent(u)];
        if (!is_head) continue;
        BroadcastPath p;
        p.label = labels[u];
        p.first = static_cast<std::uint32_t>(d.nodes.size());
        if (u != t.root()) d.nodes.push_back(t.parent(u));
        // Walk the equal-label chain downwards; Lemma 1 makes the next
        // node unique.
        NodeId v = u;
        for (;;) {
            d.nodes.push_back(v);
            NodeId next = kNoNode;
            for (NodeId c : t.children(v)) {
                if (labels[c] == labels[v]) {
                    FASTNET_ENSURES_MSG(next == kNoNode, "Lemma 1 violated");
                    next = c;
                }
            }
            if (next == kNoNode) break;
            v = next;
        }
        p.size = static_cast<std::uint32_t>(d.nodes.size()) - p.first;
        // The root's own chain can degenerate to the root alone (when the
        // root's label exceeds every child's); it covers no edge and is
        // not a path.
        if (p.size < 2) {
            d.nodes.resize(p.first);
            continue;
        }
        d.paths.push_back(p);
    }

    // Single-node tree: no paths, covered in zero units.
    if (d.paths.empty()) {
        d.time_units = 0;
        return d;
    }

    // Wave computation: a path starting at the root goes out in unit 1;
    // any other path goes out one unit after the path covering its start
    // node. Process paths in discovery order: a path's covering path has
    // a smaller index because preorder sees the start node's chain first.
    std::vector<unsigned> covered_wave(t.node_capacity(), 0);  // unit at which a
                                                               // node is informed
    covered_wave[t.root()] = 0;
    for (BroadcastPath& p : d.paths) {
        const std::span<const NodeId> nodes = d.nodes_of(p);
        p.wave = covered_wave[nodes.front()] + 1;
        for (std::size_t i = 1; i < nodes.size(); ++i) covered_wave[nodes[i]] = p.wave;
        d.time_units = std::max(d.time_units, p.wave);
    }
    return d;
}

bool valid_decomposition(const graph::RootedTree& t, const std::vector<unsigned>& labels,
                         const PathDecomposition& d) {
    // Every non-root present node covered exactly once.
    std::vector<unsigned> covered(t.node_capacity(), 0);
    for (const BroadcastPath& p : d.paths) {
        if (p.size < 2 || std::size_t{p.first} + p.size > d.nodes.size()) return false;
        const std::span<const NodeId> nodes = d.nodes_of(p);
        // Path edges are tree edges with the path's label; interior nodes
        // carry the path's label.
        for (std::size_t i = 1; i < nodes.size(); ++i) {
            const NodeId v = nodes[i];
            if (!t.contains(v) || t.parent(v) != nodes[i - 1]) return false;
            if (labels[v] != p.label) return false;
            covered[v] += 1;
        }
        // A non-root start lies strictly above the path's label.
        const NodeId s = nodes.front();
        if (s != t.root() && labels[s] <= p.label) return false;
    }
    for (NodeId u : t.preorder()) {
        const unsigned want = (u == t.root()) ? 0 : 1;
        if (covered[u] != want) return false;
    }
    return true;
}

}  // namespace fastnet::topo
