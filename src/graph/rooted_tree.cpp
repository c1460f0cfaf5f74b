#include "graph/rooted_tree.hpp"

#include <algorithm>

#include "graph/graph.hpp"

namespace fastnet::graph {

RootedTree::RootedTree(NodeId root, std::vector<NodeId> parent)
    : root_(root), parent_(std::move(parent)), first_child_(parent_.size() + 1, 0) {
    FASTNET_EXPECTS(root < parent_.size());
    FASTNET_EXPECTS_MSG(parent_[root] == kNoNode, "root must have no parent");
    // Count children per parent, then place them by a second pass in id
    // order.
    NodeId present = 1;  // root
    for (NodeId u = 0; u < parent_.size(); ++u) {
        if (u == root_ || parent_[u] == kNoNode) continue;
        FASTNET_EXPECTS_MSG(parent_[u] < parent_.size(), "parent id out of range");
        ++first_child_[parent_[u] + 1];
        ++present;
    }
    for (std::size_t u = 0; u < parent_.size(); ++u) first_child_[u + 1] += first_child_[u];
    children_.resize(present - 1);
    std::vector<std::uint32_t> next(first_child_.begin(), first_child_.end() - 1);
    for (NodeId u = 0; u < parent_.size(); ++u)
        if (u != root_ && parent_[u] != kNoNode) children_[next[parent_[u]]++] = u;
    // Preorder from the root, which also verifies acyclicity and
    // reachability: every present node must be visited exactly once. The
    // pending stack reuses `next` (one entry per present node at most).
    order_.reserve(present);
    std::size_t top = 0;
    next[top++] = root_;
    while (top != 0) {
        const NodeId u = next[--top];
        order_.push_back(u);
        FASTNET_ENSURES_MSG(order_.size() <= present, "cycle in tree");
        // Push children in reverse so the traversal visits them in order.
        for (std::uint32_t i = first_child_[u + 1]; i-- > first_child_[u];)
            next[top++] = children_[i];
    }
    size_ = static_cast<NodeId>(order_.size());
    FASTNET_EXPECTS_MSG(present == size_,
                        "parent vector contains a cycle or a node unreachable from root");
}

unsigned RootedTree::depth(NodeId u) const {
    unsigned d = 0;
    while (u != root_) {
        u = parent(u);
        ++d;
        FASTNET_ENSURES_MSG(d <= parent_.size(), "cycle in tree");
    }
    return d;
}

unsigned RootedTree::height() const {
    unsigned h = 0;
    std::vector<std::pair<NodeId, unsigned>> stack{{root_, 0}};
    while (!stack.empty()) {
        auto [u, d] = stack.back();
        stack.pop_back();
        h = std::max(h, d);
        for (NodeId c : children(u)) stack.emplace_back(c, d + 1);
    }
    return h;
}

std::vector<NodeId> RootedTree::postorder() const {
    // Reverse preorder: every child precedes its parent.
    return {order_.rbegin(), order_.rend()};
}

std::vector<NodeId> RootedTree::subtree_sizes() const {
    std::vector<NodeId> sizes(parent_.size(), 0);
    for (NodeId u : postorder()) {
        sizes[u] += 1;
        if (u != root_) sizes[parent_[u]] += sizes[u];
    }
    return sizes;
}

std::vector<NodeId> RootedTree::path_from_root(NodeId u) const {
    std::vector<NodeId> path;
    NodeId v = u;
    while (true) {
        path.push_back(v);
        if (v == root_) break;
        v = parent(v);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

bool RootedTree::is_subgraph_of(const Graph& g) const {
    for (NodeId u = 0; u < parent_.size(); ++u) {
        if (u == root_ || parent_[u] == kNoNode) continue;
        if (!g.has_edge(u, parent_[u])) return false;
    }
    return true;
}

}  // namespace fastnet::graph
