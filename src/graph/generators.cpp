#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace fastnet::graph {

Graph make_path(NodeId n) {
    FASTNET_EXPECTS(n >= 1);
    GraphBuilder g(n);
    for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
    return std::move(g).build();
}

Graph make_cycle(NodeId n) {
    FASTNET_EXPECTS(n >= 3);
    GraphBuilder g(n);
    for (NodeId i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
    return std::move(g).build();
}

Graph make_star(NodeId n) {
    FASTNET_EXPECTS(n >= 1);
    GraphBuilder g(n);
    for (NodeId i = 1; i < n; ++i) g.add_edge(0, i);
    return std::move(g).build();
}

Graph make_complete(NodeId n) {
    FASTNET_EXPECTS(n >= 1);
    GraphBuilder g(n);
    for (NodeId i = 0; i < n; ++i)
        for (NodeId j = i + 1; j < n; ++j) g.add_edge(i, j);
    return std::move(g).build();
}

Graph make_complete_binary_tree(unsigned depth) {
    const NodeId n = static_cast<NodeId>((1ULL << (depth + 1)) - 1);
    GraphBuilder g(n);
    for (NodeId i = 1; i < n; ++i) g.add_edge((i - 1) / 2, i);
    return std::move(g).build();
}

Graph make_kary_tree(NodeId n, unsigned k) {
    FASTNET_EXPECTS(n >= 1 && k >= 1);
    GraphBuilder g(n);
    for (NodeId i = 1; i < n; ++i) g.add_edge((i - 1) / k, i);
    return std::move(g).build();
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
    FASTNET_EXPECTS(spine >= 1);
    const NodeId n = spine + spine * legs;
    GraphBuilder g(n);
    for (NodeId i = 0; i + 1 < spine; ++i) g.add_edge(i, i + 1);
    NodeId next = spine;
    for (NodeId i = 0; i < spine; ++i)
        for (NodeId l = 0; l < legs; ++l) g.add_edge(i, next++);
    return std::move(g).build();
}

Graph make_grid(NodeId width, NodeId height) {
    FASTNET_EXPECTS(width >= 1 && height >= 1);
    GraphBuilder g(width * height);
    auto id = [width](NodeId x, NodeId y) { return y * width + x; };
    for (NodeId y = 0; y < height; ++y)
        for (NodeId x = 0; x < width; ++x) {
            if (x + 1 < width) g.add_edge(id(x, y), id(x + 1, y));
            if (y + 1 < height) g.add_edge(id(x, y), id(x, y + 1));
        }
    return std::move(g).build();
}

Graph make_hypercube(unsigned dim) {
    FASTNET_EXPECTS(dim <= 20);
    const NodeId n = static_cast<NodeId>(1u << dim);
    GraphBuilder g(n);
    for (NodeId u = 0; u < n; ++u)
        for (unsigned b = 0; b < dim; ++b) {
            const NodeId v = u ^ (1u << b);
            if (u < v) g.add_edge(u, v);
        }
    return std::move(g).build();
}

Graph make_random_tree(NodeId n, Rng& rng) {
    FASTNET_EXPECTS(n >= 1);
    GraphBuilder g(n);
    if (n == 1) return std::move(g).build();
    if (n == 2) {
        g.add_edge(0, 1);
        return std::move(g).build();
    }
    // Decode a uniformly random Pruefer sequence of length n-2.
    std::vector<NodeId> pruefer(n - 2);
    for (auto& x : pruefer) x = static_cast<NodeId>(rng.below(n));
    std::vector<unsigned> deg(n, 1);
    for (NodeId x : pruefer) ++deg[x];
    // Min-heap free of <queue> noise: we need the smallest leaf each step.
    std::vector<NodeId> leaves;
    for (NodeId i = 0; i < n; ++i)
        if (deg[i] == 1) leaves.push_back(i);
    std::make_heap(leaves.begin(), leaves.end(), std::greater<>{});
    for (NodeId x : pruefer) {
        std::pop_heap(leaves.begin(), leaves.end(), std::greater<>{});
        const NodeId leaf = leaves.back();
        leaves.pop_back();
        g.add_edge(leaf, x);
        if (--deg[x] == 1) {
            leaves.push_back(x);
            std::push_heap(leaves.begin(), leaves.end(), std::greater<>{});
        }
    }
    std::pop_heap(leaves.begin(), leaves.end(), std::greater<>{});
    const NodeId a = leaves.back();
    leaves.pop_back();
    const NodeId b = leaves.front();
    g.add_edge(a, b);
    return std::move(g).build();
}

Graph make_random_connected(NodeId n, std::uint64_t p_num, std::uint64_t p_den, Rng& rng) {
    FASTNET_EXPECTS(n >= 1);
    Graph tree = make_random_tree(n, rng);
    GraphBuilder g(n);
    for (const Edge& e : tree.edges()) g.add_edge(e.a, e.b);
    for (NodeId i = 0; i < n; ++i)
        for (NodeId j = i + 1; j < n; ++j)
            if (!g.has_edge(i, j) && rng.chance(p_num, p_den)) g.add_edge(i, j);
    return std::move(g).build();
}

Graph make_podc_example() {
    GraphBuilder g(6);
    g.add_edge(0, 1);  // (u, v)
    g.add_edge(1, 2);  // (v, w)
    g.add_edge(2, 0);  // (w, u)
    g.add_edge(0, 3);  // (u, u1)
    g.add_edge(1, 4);  // (v, v1)
    g.add_edge(2, 5);  // (w, w1)
    return std::move(g).build();
}

Graph disjoint_union(const Graph& a, const Graph& b) {
    GraphBuilder g(a.node_count() + b.node_count());
    for (const Edge& e : a.edges()) g.add_edge(e.a, e.b);
    const NodeId off = a.node_count();
    for (const Edge& e : b.edges()) g.add_edge(e.a + off, e.b + off);
    return std::move(g).build();
}

RootedTree random_spanning_tree(const Graph& g, NodeId root, Rng& rng) {
    FASTNET_EXPECTS(root < g.node_count());
    std::vector<EdgeId> order(g.edge_count());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    // Union-find over nodes.
    std::vector<NodeId> dsu(g.node_count());
    std::iota(dsu.begin(), dsu.end(), 0u);
    auto find = [&dsu](NodeId x) {
        while (dsu[x] != x) {
            dsu[x] = dsu[dsu[x]];
            x = dsu[x];
        }
        return x;
    };
    GraphBuilder builder(g.node_count());
    for (EdgeId e : order) {
        const Edge& ed = g.edge(e);
        const NodeId ra = find(ed.a), rb = find(ed.b);
        if (ra != rb) {
            dsu[ra] = rb;
            builder.add_edge(ed.a, ed.b);
        }
    }
    const Graph tree = std::move(builder).build();
    // Orient the tree away from root by BFS.
    std::vector<NodeId> parent(g.node_count(), kNoNode);
    std::vector<NodeId> queue{root};
    std::vector<bool> seen(g.node_count(), false);
    seen[root] = true;
    for (std::size_t h = 0; h < queue.size(); ++h) {
        const NodeId u = queue[h];
        for (const IncidentEdge& ie : tree.incident(u)) {
            if (!seen[ie.neighbor]) {
                seen[ie.neighbor] = true;
                parent[ie.neighbor] = u;
                queue.push_back(ie.neighbor);
            }
        }
    }
    return RootedTree(root, std::move(parent));
}

}  // namespace fastnet::graph
