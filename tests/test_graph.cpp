// Tests for the immutable Graph container and its builder.
#include <gtest/gtest.h>

#include <utility>

#include "common/expect.hpp"
#include "graph/graph.hpp"

namespace fastnet::graph {
namespace {

TEST(Graph, EmptyGraph) {
    Graph g;
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, AddEdgeBasics) {
    GraphBuilder b(3);
    const EdgeId e = b.add_edge(0, 1);
    EXPECT_EQ(e, 0u);
    EXPECT_TRUE(b.has_edge(1, 0));
    EXPECT_EQ(b.edge_count(), 1u);
    const Graph g = std::move(b).build();
    EXPECT_EQ(g.node_count(), 3u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, EdgeOtherEndpoint) {
    GraphBuilder b(2);
    b.add_edge(0, 1);
    const Graph g = std::move(b).build();
    EXPECT_EQ(g.edge(0).other(0), 1u);
    EXPECT_EQ(g.edge(0).other(1), 0u);
    EXPECT_THROW(g.edge(0).other(5), ContractViolation);
}

TEST(Graph, RejectsSelfLoop) {
    GraphBuilder b(2);
    EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(Graph, RejectsParallelEdge) {
    GraphBuilder b(2);
    b.add_edge(0, 1);
    EXPECT_THROW(b.add_edge(0, 1), ContractViolation);
    EXPECT_THROW(b.add_edge(1, 0), ContractViolation);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
    GraphBuilder b(2);
    EXPECT_THROW(b.add_edge(0, 2), ContractViolation);
}

TEST(Graph, FindEdgeReturnsId) {
    GraphBuilder b(4);
    b.add_edge(0, 1);
    const EdgeId e = b.add_edge(2, 3);
    EXPECT_EQ(b.find_edge(3, 2), e);
    EXPECT_EQ(b.find_edge(0, 3), kNoEdge);
    const Graph g = std::move(b).build();
    EXPECT_EQ(g.find_edge(2, 3), e);
    EXPECT_EQ(g.find_edge(3, 2), e);
    EXPECT_EQ(g.find_edge(0, 3), kNoEdge);
}

TEST(Graph, IncidentOrderIsInsertionOrder) {
    GraphBuilder b(4);
    b.add_edge(0, 2);
    b.add_edge(0, 1);
    b.add_edge(0, 3);
    const Graph g = std::move(b).build();
    const auto inc = g.incident(0);
    ASSERT_EQ(inc.size(), 3u);
    EXPECT_EQ(inc[0].neighbor, 2u);
    EXPECT_EQ(inc[1].neighbor, 1u);
    EXPECT_EQ(inc[2].neighbor, 3u);
}

TEST(Graph, NeighborsMatchesIncident) {
    GraphBuilder b(5);
    b.add_edge(1, 0);
    b.add_edge(1, 4);
    const Graph g = std::move(b).build();
    const auto nb = g.neighbors(1);
    ASSERT_EQ(nb.size(), 2u);
    EXPECT_EQ(nb[0], 0u);
    EXPECT_EQ(nb[1], 4u);
}

TEST(Graph, DegreeSumIsTwiceEdges) {
    GraphBuilder b(6);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(3, 0);
    b.add_edge(4, 5);
    const Graph g = std::move(b).build();
    std::size_t sum = 0;
    for (NodeId u = 0; u < g.node_count(); ++u) sum += g.degree(u);
    EXPECT_EQ(sum, 2u * g.edge_count());
}

}  // namespace
}  // namespace fastnet::graph
