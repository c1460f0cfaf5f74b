// Tests for the branching-paths decomposition (Section 3.1) and the
// Theorem 2 time bound, over structured and random trees.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "topo/paths.hpp"

namespace fastnet::topo {
namespace {

using graph::Graph;
using graph::RootedTree;

struct Decomposed {
    RootedTree tree;
    std::vector<unsigned> labels;
    PathDecomposition d;
};

Decomposed decompose(const Graph& g, NodeId root = 0) {
    RootedTree t = graph::min_hop_tree(g, root);
    auto labels = label_tree(t);
    auto d = decompose_paths(t, labels);
    return {std::move(t), std::move(labels), std::move(d)};
}

TEST(Paths, SingleNodeHasNoPaths) {
    const auto r = decompose(graph::make_path(1));
    EXPECT_TRUE(r.d.paths.empty());
    EXPECT_EQ(r.d.time_units, 0u);
}

TEST(Paths, PathGraphIsOnePath) {
    const auto r = decompose(graph::make_path(8));
    ASSERT_EQ(r.d.paths.size(), 1u);
    EXPECT_EQ(r.d.nodes_of(r.d.paths[0]).size(), 8u);
    EXPECT_EQ(r.d.time_units, 1u);
}

TEST(Paths, StarIsOnePathPlusBranches) {
    // Star rooted at the hub: every leaf chain is a separate path [hub, leaf],
    // all sent at wave 1.
    const auto r = decompose(graph::make_star(6));
    EXPECT_EQ(r.d.paths.size(), 5u);
    EXPECT_EQ(r.d.time_units, 1u);
    for (const auto& p : r.d.paths) {
        EXPECT_EQ(r.d.nodes_of(p).front(), 0u);
        EXPECT_EQ(r.d.nodes_of(p).size(), 2u);
    }
}

TEST(Paths, CompleteBinaryTreeNeedsDepthWaves) {
    // Every path is a single edge (all branches), so waves = depth.
    const auto r = decompose(graph::make_complete_binary_tree(5));
    EXPECT_EQ(r.d.time_units, 5u);
    EXPECT_EQ(r.d.paths.size(), r.tree.size() - 1);  // one path per edge
}

TEST(Paths, ValidatorAcceptsRealDecompositions) {
    const auto r = decompose(graph::make_caterpillar(5, 2));
    EXPECT_TRUE(valid_decomposition(r.tree, r.labels, r.d));
}

TEST(Paths, ValidatorRejectsDoubleCoverage) {
    auto r = decompose(graph::make_path(4));
    // Duplicate the only path: nodes now covered twice.
    r.d.paths.push_back(r.d.paths[0]);
    EXPECT_FALSE(valid_decomposition(r.tree, r.labels, r.d));
}

TEST(Paths, ValidatorRejectsNonTreeEdges) {
    auto r = decompose(graph::make_path(4));
    r.d.nodes = {0, 2, 1, 3};  // the only path: not parent-child chains
    EXPECT_FALSE(valid_decomposition(r.tree, r.labels, r.d));
}

class PathsProperty : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {
protected:
    Decomposed make() {
        auto [n, seed] = GetParam();
        Rng rng(seed);
        const Graph g = graph::make_random_tree(n, rng);
        return decompose(g, static_cast<NodeId>(rng.below(n)));
    }
};

TEST_P(PathsProperty, StructurallyValid) {
    const auto r = make();
    EXPECT_TRUE(valid_decomposition(r.tree, r.labels, r.d));
}

TEST_P(PathsProperty, EveryNonRootCoveredExactlyOnce) {
    const auto r = make();
    std::vector<int> covered(r.tree.node_capacity(), 0);
    for (const auto& p : r.d.paths) {
        const auto nodes = r.d.nodes_of(p);
        for (std::size_t i = 1; i < nodes.size(); ++i) covered[nodes[i]] += 1;
    }
    for (NodeId u : r.tree.preorder()) EXPECT_EQ(covered[u], u == r.tree.root() ? 0 : 1);
}

TEST_P(PathsProperty, Theorem2TimeBound) {
    const auto r = make();
    // time <= 1 + x where x = root label <= floor(log2 n).
    EXPECT_LE(r.d.time_units, 1 + r.labels[r.tree.root()]);
    EXPECT_LE(r.d.time_units, 1 + floor_log2(r.tree.size()));
}

TEST_P(PathsProperty, WaveRespects1PlusXMinusY) {
    const auto r = make();
    const unsigned x = r.labels[r.tree.root()];
    for (const auto& p : r.d.paths) EXPECT_LE(p.wave, 1 + x - p.label);
}

TEST_P(PathsProperty, PathStartsAreInformedBeforeTheirWave) {
    const auto r = make();
    // Reconstruct per-node informed-wave and check causality.
    std::vector<unsigned> informed(r.tree.node_capacity(), ~0u);
    informed[r.tree.root()] = 0;
    for (const auto& p : r.d.paths) {
        const auto nodes = r.d.nodes_of(p);
        ASSERT_NE(informed[nodes.front()], ~0u);
        ASSERT_LT(informed[nodes.front()], p.wave);
        for (std::size_t i = 1; i < nodes.size(); ++i) informed[nodes[i]] = p.wave;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, PathsProperty,
    ::testing::Combine(::testing::Values<NodeId>(2, 3, 5, 9, 17, 64, 255, 1024),
                       ::testing::Values<std::uint64_t>(7, 21, 63)));

}  // namespace
}  // namespace fastnet::topo
