// Tests for the datagram router composed on topology maintenance:
// route computation from learned views, acks, retries across failures.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "topo/router.hpp"

namespace fastnet::topo {
namespace {

using graph::Graph;

struct Harness {
    Harness(Graph graph, std::map<NodeId, std::vector<SendRequest>> sends,
            RouterOptions opt = make_default_options())
        : g(std::move(graph)),
          cluster(g, make_routers(g.node_count(), opt, std::move(sends))) {
        cluster.start_all(0);
    }
    static RouterOptions make_default_options() {
        RouterOptions opt;
        opt.topology.rounds = 10;
        opt.topology.period = 50;
        opt.retry_period = 200;
        return opt;
    }
    RouterProtocol& router(NodeId u) { return cluster.protocol_as<RouterProtocol>(u); }
    Graph g;
    node::ParallelCluster cluster;
};

TEST(Router, DeliversAfterConvergence) {
    // The send fires before node 0's view can possibly reach node 7
    // (cold start): the datagram waits in the pending queue until the
    // maintenance rounds have spread the topology, then goes through.
    Harness h(graph::make_cycle(8), {{0, {{/*at=*/5, /*dst=*/4, /*tag=*/99}}}});
    h.cluster.run();
    ASSERT_EQ(h.router(4).received().size(), 1u);
    EXPECT_EQ(h.router(4).received()[0], (std::pair<NodeId, std::uint64_t>{0, 99}));
    EXPECT_EQ(h.router(0).delivered_and_acked(), 1u);
    EXPECT_EQ(h.router(0).still_pending(), 0u);
}

TEST(Router, ImmediateNeighborNeedsNoConvergence) {
    Harness h(graph::make_path(3), {{0, {{1, 1, 7}}}});
    h.cluster.run();
    ASSERT_EQ(h.router(1).received().size(), 1u);
    EXPECT_EQ(h.router(0).delivered_and_acked(), 1u);
}

TEST(Router, ManyToManyAllDelivered) {
    Rng rng(3);
    const Graph g = graph::make_random_connected(16, 2, 10, rng);
    std::map<NodeId, std::vector<SendRequest>> sends;
    unsigned expected = 0;
    for (NodeId u = 0; u < 16; ++u) {
        sends[u].push_back({static_cast<Tick>(10 + u), (u + 5) % 16, u * 100ull});
        ++expected;
    }
    Harness h(g, std::move(sends));
    h.cluster.run();
    unsigned acked = 0, received = 0;
    for (NodeId u = 0; u < 16; ++u) {
        acked += h.router(u).delivered_and_acked();
        received += static_cast<unsigned>(h.router(u).received().size());
        EXPECT_EQ(h.router(u).still_pending(), 0u) << u;
    }
    EXPECT_EQ(acked, expected);
    EXPECT_EQ(received, expected);
}

TEST(Router, RetriesAcrossLinkFailure) {
    // The only 0 -> 3 route on a path graph is broken when the datagram
    // first flies; after the link is restored and the view re-converges,
    // a retry delivers it.
    RouterOptions opt = Harness::make_default_options();
    opt.topology.rounds = 30;
    opt.topology.period = 50;
    opt.retry_period = 120;
    Harness h(graph::make_path(4), {{0, {{/*at=*/600, 3, 42}}}}, opt);
    // Break (1,2) before the send; repair later.
    h.cluster.fail_link(500, 1);
    h.cluster.restore_link(800, 1);
    h.cluster.run();
    ASSERT_EQ(h.router(3).received().size(), 1u);
    EXPECT_EQ(h.router(0).delivered_and_acked(), 1u);
    EXPECT_EQ(h.router(0).given_up(), 0u);
}

TEST(Router, ReroutesAroundPermanentFailure) {
    // On a cycle there are two routes; killing one mid-flight forces the
    // retry onto the other side once the view updates.
    RouterOptions opt = Harness::make_default_options();
    opt.topology.rounds = 30;
    opt.retry_period = 150;
    Harness h(graph::make_cycle(8), {{0, {{/*at=*/600, 4, 5}}}}, opt);
    // Kill the clockwise route's first link just before the send.
    h.cluster.fail_link(590, h.g.find_edge(0, 1));
    h.cluster.run();
    ASSERT_EQ(h.router(4).received().size(), 1u);
    EXPECT_EQ(h.router(0).given_up(), 0u);
}

TEST(Router, GivesUpOnUnreachableDestination) {
    RouterOptions opt = Harness::make_default_options();
    opt.topology.rounds = 6;
    opt.retry_period = 60;
    opt.max_retries = 3;
    Graph g = graph::disjoint_union(graph::make_path(3), graph::make_path(2));
    Harness h(std::move(g), {{0, {{10, 4, 1}}}}, opt);
    h.cluster.run();
    EXPECT_EQ(h.router(0).delivered_and_acked(), 0u);
    // Never routable: stays pending until retries exhaust, then dropped.
    EXPECT_EQ(h.router(0).still_pending(), 0u);
    EXPECT_EQ(h.router(0).given_up(), 1u);
}

TEST(Router, DuplicateRetriesAreFilteredAtTheReceiver) {
    // Force a lost ACK by cutting the reverse path right after delivery
    // is impossible to time externally; instead use an aggressive retry
    // period so retries overlap the first ack in flight with C > 0.
    RouterOptions opt = Harness::make_default_options();
    opt.retry_period = 2;    // retries fire long before the ack round-trip
    opt.max_retries = 1000;  // ...but the sender must not give up early
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 40;  // C = 40: several retries race the ack
    const Graph g = graph::make_path(3);
    std::map<NodeId, std::vector<SendRequest>> sends{{0, {{300, 2, 9}}}};
    node::ParallelCluster cluster(g, make_routers(3, opt, std::move(sends)), cfg);
    cluster.start_all(0);
    cluster.run();
    auto& receiver = cluster.protocol_as<RouterProtocol>(2);
    // Exactly one logical delivery despite duplicate transmissions.
    ASSERT_EQ(receiver.received().size(), 1u);
    EXPECT_EQ(receiver.received()[0].second, 9u);
    auto& sender = cluster.protocol_as<RouterProtocol>(0);
    EXPECT_EQ(sender.delivered_and_acked(), 1u);
    EXPECT_EQ(sender.still_pending(), 0u);
}

TEST(Router, EmbeddedMaintenanceStillConverges) {
    Harness h(graph::make_cycle(10), {});
    h.cluster.run();
    for (NodeId u = 0; u < 10; ++u)
        EXPECT_TRUE(view_converged(h.router(u).topology(), h.cluster.mirror(0), u)) << u;
}

}  // namespace
}  // namespace fastnet::topo
