// Rooted tree representation used by the broadcast path decomposition
// (Section 3), the election virtual trees (Section 4) and the optimal
// gather trees OT(t) (Section 5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace fastnet::graph {

class Graph;

/// A rooted tree over nodes 0..n-1. Not every node need appear: nodes with
/// parent == kNoNode and not equal to root() are "absent" (useful when the
/// tree spans only one connected component).
class RootedTree {
public:
    RootedTree() = default;

    /// Builds from a parent vector. parent[root] must be kNoNode; any other
    /// node with parent kNoNode is treated as absent from the tree.
    RootedTree(NodeId root, std::vector<NodeId> parent);

    NodeId root() const { return root_; }
    NodeId node_capacity() const { return static_cast<NodeId>(parent_.size()); }

    /// Number of nodes actually present in the tree.
    NodeId size() const { return size_; }

    bool contains(NodeId u) const {
        return u < parent_.size() && (u == root_ || parent_[u] != kNoNode);
    }

    NodeId parent(NodeId u) const {
        FASTNET_EXPECTS(contains(u));
        return parent_[u];
    }

    std::span<const NodeId> children(NodeId u) const {
        FASTNET_EXPECTS(contains(u));
        return {children_.data() + first_child_[u], first_child_[u + 1] - first_child_[u]};
    }

    bool is_leaf(NodeId u) const { return children(u).empty(); }

    /// Depth of node u (root has depth 0).
    unsigned depth(NodeId u) const;

    /// Height of the whole tree (max depth over present nodes).
    unsigned height() const;

    /// Present nodes in a deterministic preorder (parent before child,
    /// children in id order); computed once at construction.
    std::span<const NodeId> preorder() const { return order_; }

    /// Present nodes so that every child appears before its parent.
    std::vector<NodeId> postorder() const;

    /// Number of nodes in the subtree rooted at each present node.
    std::vector<NodeId> subtree_sizes() const;

    /// The path root -> u as a node sequence.
    std::vector<NodeId> path_from_root(NodeId u) const;

    /// Checks that every tree edge is an edge of g (i.e. the tree is a
    /// subgraph of the network, as T_i(t) must be in Section 3).
    bool is_subgraph_of(const Graph& g) const;

private:
    NodeId root_ = kNoNode;
    NodeId size_ = 0;
    std::vector<NodeId> parent_;
    /// Children of u: children_[first_child_[u] .. first_child_[u + 1]),
    /// in id order (flat: three arrays whatever the tree's shape).
    std::vector<std::uint32_t> first_child_;
    std::vector<NodeId> children_;
    std::vector<NodeId> order_;  ///< Preorder of the present nodes.
};

}  // namespace fastnet::graph
