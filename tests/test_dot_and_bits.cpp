// Tests for the DOT exporter and the ANR header-bit accounting
// (the k = O(log m) label width of Section 2).
#include <gtest/gtest.h>

#include "cost/metrics.hpp"
#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "hw/network.hpp"
#include "sim/simulator.hpp"

namespace fastnet {
namespace {

TEST(Dot, GraphExportContainsAllEdges) {
    const graph::Graph g = graph::make_cycle(3);
    const std::string dot = graph::to_dot(g);
    EXPECT_NE(dot.find("graph fastnet {"), std::string::npos);
    EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
    EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
    EXPECT_NE(dot.find("n2 -- n0"), std::string::npos);
}

TEST(Dot, TreeExportIsDirected) {
    const graph::RootedTree t(0, {kNoNode, 0, 0});
    const std::string dot = graph::to_dot(t);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
    EXPECT_EQ(dot.find("--"), std::string::npos);
}

TEST(Dot, AnnotationsAndHighlights) {
    const graph::Graph g = graph::make_path(3);
    graph::DotStyle style;
    style.node_annotations = {"root", "", "leaf"};
    style.highlighted_edges = {1};
    const std::string dot = graph::to_dot(g, style);
    EXPECT_NE(dot.find("0\\nroot"), std::string::npos);
    EXPECT_NE(dot.find("2\\nleaf"), std::string::npos);
    EXPECT_NE(dot.find("penwidth=3"), std::string::npos);
}

// ---- header-bit accounting ---------------------------------------------

struct BitFixture {
    explicit BitFixture(graph::Graph graph)
        : g(std::move(graph)), metrics(g.node_count()),
          net(sim, g, ModelParams::fast_network(), metrics) {
        net.set_ncu_dispatch([](NodeId, const hw::Delivery&) {});
    }
    sim::Simulator sim;
    graph::Graph g;
    cost::Metrics metrics;
    hw::Network net;
};

struct Nothing final : hw::TypedPayload<Nothing> {};

TEST(HeaderBits, LabelWidthIsLogOfMaxDegreePlusCopyBit) {
    // Path: max degree 2 -> ports 0..2 -> 2 bits + copy = 3.
    BitFixture path(graph::make_path(5));
    EXPECT_EQ(path.net.label_bits(), ceil_log2(3) + 1);
    // Star with 9 leaves: hub degree 9 -> ports 0..9 -> 4 bits + copy.
    BitFixture star(graph::make_star(10));
    EXPECT_EQ(star.net.label_bits(), ceil_log2(10) + 1);
}

TEST(HeaderBits, AccumulatePerHopRemainingHeader) {
    BitFixture f(graph::make_path(4));
    const std::vector<NodeId> path{0, 1, 2, 3};
    f.net.send(0, f.net.route(path), std::make_shared<Nothing>());
    f.sim.run();
    // Header after injection pop: 3 labels ride hop 1, 2 ride hop 2,
    // 1 rides hop 3: (3+2+1) * k bits.
    const std::uint64_t k = f.net.label_bits();
    EXPECT_EQ(f.metrics.net().header_bits, (3 + 2 + 1) * k);
}

TEST(HeaderBits, LongRoutesPayQuadraticallyOverall) {
    // The dmax rationale quantified: total header bits for one end-to-end
    // message grow quadratically with path length.
    auto bits_for = [](NodeId n) {
        BitFixture f(graph::make_path(n));
        std::vector<NodeId> path(n);
        for (NodeId i = 0; i < n; ++i) path[i] = i;
        f.net.send(0, f.net.route(path), std::make_shared<Nothing>());
        f.sim.run();
        return f.metrics.net().header_bits;
    };
    const auto b8 = bits_for(8);
    const auto b16 = bits_for(16);
    const auto b32 = bits_for(32);
    // Doubling the path roughly quadruples the header traffic.
    EXPECT_GT(b16, 3 * b8);
    EXPECT_GT(b32, 3 * b16);
}

TEST(HeaderBits, ZeroForLocalNcuDelivery) {
    BitFixture f(graph::make_path(2));
    f.net.send(0, {hw::AnrLabel::normal(hw::kNcuPort)}, std::make_shared<Nothing>());
    f.sim.run();
    EXPECT_EQ(f.metrics.net().header_bits, 0u);
}

}  // namespace
}  // namespace fastnet
