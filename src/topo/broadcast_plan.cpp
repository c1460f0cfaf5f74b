#include "topo/broadcast_plan.hpp"

#include <algorithm>
#include <memory>

#include "common/expect.hpp"

namespace fastnet::topo {
namespace {

/// Collects planned messages in planning order, then lays their routes
/// out grouped by injecting node, as views into one shared label buffer.
class PlanBuilder {
public:
    PlanBuilder(NodeId capacity, std::size_t messages, std::size_t labels)
        : capacity_(capacity) {
        starts_.reserve(messages);
        ends_.reserve(messages);
        labels_.reserve(labels);
    }

    /// Starts a message injected by `start`; append its labels to the
    /// returned buffer.
    std::vector<hw::AnrLabel>& open(NodeId start) {
        close();
        starts_.push_back(start);
        return labels_;
    }

    BroadcastPlan finish(unsigned time_units, unsigned root_label, std::size_t covered) && {
        close();
        BroadcastPlan plan;
        plan.time_units = time_units;
        plan.root_label = root_label;
        plan.covered_nodes = covered;
        // Counting sort by start node: count into first_route[s + 1], take
        // prefix sums, place each route at first_route[s]++ (which leaves
        // every entry one group ahead), then shift back.
        plan.first_route.assign(std::size_t{capacity_} + 1, 0);
        for (NodeId s : starts_) ++plan.first_route[s + 1];
        for (std::size_t u = 0; u < capacity_; ++u)
            plan.first_route[u + 1] += plan.first_route[u];
        const auto pool = std::make_shared<const std::vector<hw::AnrLabel>>(std::move(labels_));
        const std::shared_ptr<const void> owner = pool;
        plan.routes.resize(starts_.size());
        std::uint32_t begin = 0;
        for (std::size_t i = 0; i < starts_.size(); ++i) {
            plan.routes[plan.first_route[starts_[i]]++] =
                hw::Route(owner, std::span(pool->data() + begin, ends_[i] - begin));
            begin = ends_[i];
        }
        for (std::size_t u = capacity_; u > 0; --u) plan.first_route[u] = plan.first_route[u - 1];
        plan.first_route[0] = 0;
        return plan;
    }

private:
    void close() {
        if (ends_.size() < starts_.size())
            ends_.push_back(static_cast<std::uint32_t>(labels_.size()));
    }

    NodeId capacity_;
    std::vector<NodeId> starts_;       ///< Per message, in planning order.
    std::vector<std::uint32_t> ends_;  ///< Per message: end of its labels.
    std::vector<hw::AnrLabel> labels_;
};

/// Euler-tour node sequence of `tree` from the root (each edge twice),
/// with an optional per-node child reordering.
std::vector<NodeId> euler_sequence(const graph::RootedTree& tree,
                                   const ChildReorder& reorder = {}) {
    std::vector<NodeId> seq;
    // Iterative DFS producing the full tour. Each frame's (reordered)
    // children sit on one scratch stack, popped with the frame.
    struct Frame {
        NodeId node;
        std::size_t first;  ///< Its children: kids[first .. end).
        std::size_t end;
        std::size_t next;
    };
    std::vector<NodeId> kids;
    std::vector<Frame> stack;
    const auto enter = [&](NodeId u) {
        const std::span<const NodeId> cs = tree.children(u);
        const std::size_t first = kids.size();
        kids.insert(kids.end(), cs.begin(), cs.end());
        if (reorder) reorder(u, std::span<NodeId>(kids).subspan(first));
        stack.push_back({u, first, kids.size(), first});
        seq.push_back(u);
    };
    enter(tree.root());
    while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next < f.end) {
            enter(kids[f.next++]);
        } else {
            kids.resize(f.first);
            stack.pop_back();
            if (!stack.empty()) seq.push_back(stack.back().node);
        }
    }
    return seq;
}

void trim_after_last_first_visit(std::vector<NodeId>& seq, NodeId capacity) {
    std::vector<bool> seen(capacity, false);
    std::size_t last_first = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        if (!seen[seq[i]]) {
            seen[seq[i]] = true;
            last_first = i;
        }
    }
    seq.resize(last_first + 1);
}

/// Builds a single-message plan from a visit sequence: copies are dropped
/// at the first visit of every non-root node; the route terminates in the
/// final node's NCU.
BroadcastPlan plan_from_sequence(const graph::RootedTree& tree, std::vector<NodeId> seq,
                                 const hw::PortMap& ports) {
    if (tree.size() <= 1) return PlanBuilder(tree.node_capacity(), 0, 0).finish(0, 0, tree.size());

    trim_after_last_first_visit(seq, tree.node_capacity());
    PlanBuilder b(tree.node_capacity(), 1, seq.size());
    std::vector<hw::AnrLabel>& route = b.open(tree.root());
    std::vector<bool> seen(tree.node_capacity(), false);
    seen[tree.root()] = true;
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
        const hw::PortId p = ports(seq[i], seq[i + 1]);
        FASTNET_EXPECTS_MSG(p != hw::kNoPort, "port map lacks a tour hop");
        // A copy id here drops the packet at seq[i]'s own NCU — set it on
        // the label consumed at each node's first visit.
        const bool first_visit = !seen[seq[i]];
        seen[seq[i]] = true;
        route.push_back(first_visit ? hw::AnrLabel::copy(p) : hw::AnrLabel::normal(p));
    }
    // The trimmed sequence ends at a first visit; deliver there via the
    // NCU id.
    FASTNET_ENSURES(!seen[seq.back()]);
    route.push_back(hw::AnrLabel::normal(hw::kNcuPort));
    return std::move(b).finish(1, 0, tree.size());
}

}  // namespace

BroadcastPlan plan_branching_paths(const graph::RootedTree& tree, const hw::PortMap& ports) {
    const std::vector<unsigned> labels = label_tree(tree);
    const PathDecomposition d = decompose_paths(tree, labels);
    // A path of k nodes routes with k labels: k - 1 hops, then the NCU id.
    PlanBuilder b(tree.node_capacity(), d.paths.size(), d.nodes.size());
    for (const BroadcastPath& p : d.paths) {
        const std::span<const NodeId> nodes = d.nodes_of(p);
        hw::append_route(nodes, ports, hw::CopyMode::kIntermediates, b.open(nodes.front()));
    }
    return std::move(b).finish(d.time_units, tree.size() >= 1 ? labels[tree.root()] : 0,
                               tree.size());
}

BroadcastPlan plan_dfs_token(const graph::RootedTree& tree, const hw::PortMap& ports,
                             const ChildReorder& reorder) {
    return plan_from_sequence(tree, euler_sequence(tree, reorder), ports);
}

BroadcastPlan plan_layered_bfs(const graph::RootedTree& tree, const hw::PortMap& ports) {
    // Concatenate Euler tours of the depth-<=k truncations, k = 1..height.
    // (Jaffe's algorithm from the paper's footnote 1.)
    std::vector<NodeId> seq{tree.root()};
    const unsigned h = tree.height();
    for (unsigned k = 1; k <= h; ++k) {
        // Euler tour of the subtree of nodes at depth <= k.
        struct Frame {
            NodeId node;
            std::size_t next_child;
            unsigned depth;
        };
        std::vector<Frame> stack{{tree.root(), 0, 0}};
        for (; !stack.empty();) {
            Frame& f = stack.back();
            const auto cs = tree.children(f.node);
            if (f.depth < k && f.next_child < cs.size()) {
                const NodeId c = cs[f.next_child++];
                seq.push_back(c);
                stack.push_back({c, 0, f.depth + 1});
            } else {
                stack.pop_back();
                if (!stack.empty()) seq.push_back(stack.back().node);
            }
        }
    }
    return plan_from_sequence(tree, std::move(seq), ports);
}

BroadcastPlan plan_direct_unicast(const graph::RootedTree& tree, const hw::PortMap& ports) {
    const NodeId root = tree.root();
    PlanBuilder b(tree.node_capacity(), tree.size() > 0 ? tree.size() - 1 : 0, 0);
    std::vector<NodeId> path;
    for (NodeId u : tree.preorder()) {
        if (u == root) continue;
        path.clear();
        for (NodeId v = u; v != root; v = tree.parent(v)) path.push_back(v);
        path.push_back(root);
        std::reverse(path.begin(), path.end());
        hw::append_route(path, ports, hw::CopyMode::kNone, b.open(root));
    }
    return std::move(b).finish(tree.size() > 1 ? 1 : 0, 0, tree.size());
}

}  // namespace fastnet::topo
