// Tests for BFS / trees / components / diameter, including RootedTree.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace fastnet::graph {
namespace {

TEST(Bfs, DistancesOnPath) {
    const Graph g = make_path(5);
    const BfsResult r = bfs(g, 0);
    for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(r.dist[u], u);
    EXPECT_EQ(r.parent[0], kNoNode);
    EXPECT_EQ(r.parent[4], 3u);
}

TEST(Bfs, FilterRestrictsEdges) {
    const Graph g = make_cycle(4);  // edges 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,0)
    const auto r = bfs(g, 0, [](EdgeId e) { return e != 3; });  // cut (3,0)
    EXPECT_EQ(r.dist[3], 3u);  // must go the long way round
}

TEST(Bfs, UnreachableNodesMarked) {
    GraphBuilder b(4);
    b.add_edge(0, 1);
    const Graph g = std::move(b).build();
    const auto r = bfs(g, 0);
    EXPECT_EQ(r.dist[2], BfsResult::kUnreached);
    EXPECT_EQ(r.parent[2], kNoNode);
}

TEST(MinHopTree, IsMinHopAndSubgraph) {
    Rng rng(3);
    const Graph g = make_random_connected(40, 2, 10, rng);
    const RootedTree t = min_hop_tree(g, 7);
    EXPECT_TRUE(t.is_subgraph_of(g));
    const BfsResult r = bfs(g, 7);
    for (NodeId u = 0; u < g.node_count(); ++u) EXPECT_EQ(t.depth(u), r.dist[u]);
}

TEST(MinHopTree, CoversOnlyReachableComponent) {
    const Graph g = disjoint_union(make_path(3), make_path(2));
    const RootedTree t = min_hop_tree(g, 0);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_TRUE(t.contains(2));
    EXPECT_FALSE(t.contains(3));
}

TEST(Components, LabelsByComponent) {
    const Graph g = disjoint_union(make_cycle(3), make_complete(4));
    const auto c = connected_components(g);
    EXPECT_EQ(c[0], 0u);
    EXPECT_EQ(c[1], 0u);
    EXPECT_EQ(c[3], 1u);
    EXPECT_EQ(c[6], 1u);
}

TEST(Connectivity, DetectsDisconnection) {
    EXPECT_TRUE(is_connected(make_cycle(5)));
    EXPECT_FALSE(is_connected(disjoint_union(make_path(2), make_path(2))));
}

TEST(IsTree, Recognition) {
    EXPECT_TRUE(is_tree(make_path(7)));
    EXPECT_TRUE(is_tree(make_star(5)));
    EXPECT_FALSE(is_tree(make_cycle(4)));
    EXPECT_FALSE(is_tree(disjoint_union(make_path(2), make_path(2))));
}

TEST(Diameter, KnownValues) {
    EXPECT_EQ(diameter(make_path(10)), 9u);
    EXPECT_EQ(diameter(make_star(10)), 2u);
    EXPECT_EQ(diameter(make_complete(10)), 1u);
    EXPECT_EQ(diameter(make_cycle(8)), 4u);
    EXPECT_EQ(diameter(make_cycle(9)), 4u);
    EXPECT_EQ(diameter(make_complete_binary_tree(3)), 6u);
}

TEST(Eccentricity, CenterVersusLeafOfPath) {
    const Graph g = make_path(9);
    EXPECT_EQ(eccentricity(g, 4), 4u);
    EXPECT_EQ(eccentricity(g, 0), 8u);
}

// ---- RootedTree -----------------------------------------------------

RootedTree chain_tree() {
    // 0 <- 1 <- 2 <- 3
    return RootedTree(0, {kNoNode, 0, 1, 2});
}

TEST(RootedTree, BasicAccessors) {
    const RootedTree t = chain_tree();
    EXPECT_EQ(t.root(), 0u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.parent(3), 2u);
    EXPECT_TRUE(t.is_leaf(3));
    EXPECT_FALSE(t.is_leaf(0));
    EXPECT_EQ(t.depth(3), 3u);
    EXPECT_EQ(t.height(), 3u);
}

TEST(RootedTree, RejectsCyclicParentVector) {
    // 1 <- 2 <- 1 cycle detached from root 0.
    EXPECT_THROW(RootedTree(0, {kNoNode, 2, 1}), ContractViolation);
}

TEST(RootedTree, RejectsRootWithParent) {
    EXPECT_THROW(RootedTree(0, {1, kNoNode}), ContractViolation);
}

TEST(RootedTree, PreorderParentBeforeChild) {
    Rng rng(5);
    const Graph g = make_random_tree(30, rng);
    const RootedTree t = min_hop_tree(g, 0);
    const auto order = t.preorder();
    ASSERT_EQ(order.size(), 30u);
    std::vector<int> pos(30, -1);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<int>(i);
    for (NodeId u = 0; u < 30; ++u) {
        if (u != t.root()) {
            EXPECT_LT(pos[t.parent(u)], pos[u]);
        }
    }
}

TEST(RootedTree, PostorderChildBeforeParent) {
    const RootedTree t = chain_tree();
    const auto order = t.postorder();
    std::vector<int> pos(4, -1);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<int>(i);
    for (NodeId u = 1; u < 4; ++u) EXPECT_LT(pos[u], pos[t.parent(u)]);
}

TEST(RootedTree, SubtreeSizes) {
    // Star rooted at 0.
    const RootedTree t(0, {kNoNode, 0, 0, 0});
    const auto sizes = t.subtree_sizes();
    EXPECT_EQ(sizes[0], 4u);
    EXPECT_EQ(sizes[1], 1u);
}

TEST(RootedTree, PathFromRoot) {
    const RootedTree t = chain_tree();
    const auto p = t.path_from_root(3);
    const std::vector<NodeId> want{0, 1, 2, 3};
    EXPECT_EQ(p, want);
}

TEST(RootedTree, DepthMatchesPathLength) {
    Rng rng(8);
    const Graph g = make_random_tree(50, rng);
    const RootedTree t = min_hop_tree(g, 10);
    for (NodeId u = 0; u < 50; ++u)
        EXPECT_EQ(t.depth(u) + 1, t.path_from_root(u).size());
}

}  // namespace
}  // namespace fastnet::graph
