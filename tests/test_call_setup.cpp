// Tests for the PARIS call setup/take-down application — the selective
// copy use-case Section 2 cites. Covers: one-shot parallel setup,
// accept/reject, capacity accounting, teardown, contention and link
// failures under active calls.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "paris/call_setup.hpp"

namespace fastnet::paris {
namespace {

using graph::Graph;

struct Harness {
    explicit Harness(Graph graph, std::uint32_t capacity,
                     std::map<NodeId, std::vector<CallRequest>> scripts)
        : g(std::move(graph)),
          cluster(g, make_call_agents(g, capacity, std::move(scripts))) {
        cluster.start_all(0);
    }
    CallAgentProtocol& agent(NodeId u) {
        return cluster.protocol_as<CallAgentProtocol>(u);
    }
    Graph g;
    node::ParallelCluster cluster;
};

TEST(CallSetup, SimpleCallActivatesEndToEnd) {
    Harness h(graph::make_path(4), 4, {{0, {{/*at=*/1, /*dst=*/3, /*demand=*/2, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_active(), 1u);
    EXPECT_EQ(h.agent(0).calls_rejected(), 0u);
    // Every hop holds the reservation.
    const CallId id{0, 1};
    EXPECT_EQ(h.agent(0).state_of(id), CallState::kActive);
    EXPECT_EQ(h.agent(1).state_of(id), CallState::kActive);
    EXPECT_EQ(h.agent(2).state_of(id), CallState::kActive);
    EXPECT_EQ(h.agent(3).state_of(id), CallState::kActive);
    EXPECT_EQ(h.agent(1).free_capacity(h.g.find_edge(1, 2)), 2u);
}

TEST(CallSetup, SetupCostsOneSystemCallPerOnPathNode) {
    // The headline: establishing a call over a k-hop path costs one
    // setup message (k system calls via copies) + one accept message.
    Harness h(graph::make_path(6), 4, {{0, {{1, 5, 1, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_active(), 1u);
    // setup (5 receptions: nodes 1..5) + accept with copies (5 receptions
    // at nodes 4..0).
    EXPECT_EQ(h.cluster.merged_metrics().total_message_system_calls(), 10u);
    EXPECT_EQ(h.cluster.merged_metrics().total_direct_messages(), 2u);
}

TEST(CallSetup, InsufficientCapacityRejectsAndReleasesEverywhere) {
    // Capacity 1; demand 2 -> the source itself cannot reserve.
    Harness h1(graph::make_path(3), 1, {{0, {{1, 2, 2, -1}}}});
    h1.cluster.run();
    EXPECT_EQ(h1.agent(0).calls_rejected(), 1u);
    EXPECT_EQ(h1.agent(0).calls_active(), 0u);

    // Two sequential calls, capacity 1 each hop: the second is rejected
    // and every partial reservation is released.
    Harness h2(graph::make_path(4), 1,
               {{0, {{1, 3, 1, -1}, {50, 3, 1, -1}}}});
    h2.cluster.run();
    EXPECT_EQ(h2.agent(0).calls_active(), 1u);
    EXPECT_EQ(h2.agent(0).calls_rejected(), 1u);
    // The winner's reservation is intact; nothing leaked on top of it.
    EXPECT_EQ(h2.agent(1).free_capacity(h2.g.find_edge(1, 2)), 0u);
    const CallId second{0, 2};
    EXPECT_EQ(h2.agent(0).state_of(second), CallState::kRejected);
    // The source's own first hop was the bottleneck, so no setup packet
    // ever left: downstream nodes never heard of the call.
    EXPECT_EQ(h2.agent(1).state_of(second), CallState::kIdle);
}

TEST(CallSetup, MidPathBottleneckTriggersRejectFromThatNode) {
    // Node 2's outgoing hop is saturated by a cross call 2 -> 3 first;
    // the long call 0 -> 3 then bottlenecks exactly at node 2.
    Harness h(graph::make_path(4), 1,
              {{2, {{1, 3, 1, -1}}}, {0, {{30, 3, 1, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(2).calls_active(), 1u);
    EXPECT_EQ(h.agent(0).calls_rejected(), 1u);
    const CallId longcall{0, 1};
    EXPECT_EQ(h.agent(2).state_of(longcall), CallState::kRejected);
    // Node 1 reserved in parallel and must have been released by the
    // reject-teardown.
    EXPECT_EQ(h.agent(1).state_of(longcall), CallState::kRejected);
    EXPECT_EQ(h.agent(1).free_capacity(h.g.find_edge(1, 2)), 1u);
}

TEST(CallSetup, HoldTimeTearsDownAndFreesCapacity) {
    Harness h(graph::make_path(3), 2, {{0, {{1, 2, 2, /*hold=*/100}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_active(), 0u);  // no longer up...
    EXPECT_EQ(h.agent(0).calls_released(), 1u);  // ...because it completed
    const CallId id{0, 1};
    EXPECT_EQ(h.agent(0).state_of(id), CallState::kReleased);
    EXPECT_EQ(h.agent(1).state_of(id), CallState::kReleased);
    EXPECT_EQ(h.agent(2).state_of(id), CallState::kReleased);
    EXPECT_EQ(h.agent(0).free_capacity(h.g.find_edge(0, 1)), 2u);
    EXPECT_EQ(h.agent(1).free_capacity(h.g.find_edge(1, 2)), 2u);
}

TEST(CallSetup, SequentialCallsReuseReleasedCapacity) {
    // Hold 60 then a second call at t=200 over the same saturated hop.
    Harness h(graph::make_path(3), 1,
              {{0, {{1, 2, 1, /*hold=*/60}, {200, 2, 1, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_active(), 1u);    // the second, still up
    EXPECT_EQ(h.agent(0).calls_released(), 1u);  // the first
    EXPECT_EQ(h.agent(0).calls_rejected(), 0u);
}

TEST(CallSetup, ContendingSourcesShareByCapacity) {
    // Star: center 0. Leaves 1 and 2 both call leaf 3 through the hub;
    // the hub's outgoing link to 3 has capacity 1: exactly one wins.
    Harness h(graph::make_star(4), 1,
              {{1, {{1, 3, 1, -1}}}, {2, {{1, 3, 1, -1}}}});
    h.cluster.run();
    const unsigned active = h.agent(1).calls_active() + h.agent(2).calls_active();
    const unsigned rejected = h.agent(1).calls_rejected() + h.agent(2).calls_rejected();
    EXPECT_EQ(active, 1u);
    EXPECT_EQ(rejected, 1u);
    EXPECT_EQ(h.agent(0).free_capacity(h.g.find_edge(0, 3)), 0u);
}

TEST(CallSetup, LinkFailureDisconnectsActiveCall) {
    Harness h(graph::make_path(5), 4, {{0, {{1, 4, 1, -1}}}});
    // Fail the middle hop after the call is up.
    h.cluster.fail_link(100, h.g.find_edge(2, 3));
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_failed(), 1u);
    EXPECT_EQ(h.agent(0).calls_active(), 0u);
    const CallId id{0, 1};
    // Every node released; upstream learned via the disconnect toward
    // the source, downstream via the disconnect toward the destination.
    for (NodeId u = 0; u < 5; ++u)
        EXPECT_EQ(h.agent(u).state_of(id), CallState::kFailed) << u;
    EXPECT_EQ(h.agent(0).free_capacity(h.g.find_edge(0, 1)), 4u);
    EXPECT_EQ(h.agent(1).free_capacity(h.g.find_edge(1, 2)), 4u);
    EXPECT_EQ(h.agent(3).free_capacity(h.g.find_edge(3, 4)), 4u);
}

TEST(CallSetup, FailureOfOffPathLinkIsHarmless) {
    Harness h(graph::make_cycle(6), 4, {{0, {{1, 2, 1, -1}}}});
    h.cluster.fail_link(100, h.g.find_edge(3, 4));
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_active(), 1u);
    EXPECT_EQ(h.agent(0).calls_failed(), 0u);
}

TEST(CallSetup, UnreachableDestinationRejectsLocally) {
    Graph g = graph::disjoint_union(graph::make_path(2), graph::make_path(2));
    Harness h(std::move(g), 4, {{0, {{1, 3, 1, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_rejected(), 1u);
    EXPECT_EQ(h.cluster.merged_metrics().total_direct_messages(), 0u);
}

TEST(CallSetup, ManyCallsRandomizedNoCapacityLeaks) {
    // Property: after all calls are released/torn down/failed, every
    // node's reservations return to zero.
    Rng rng(5);
    Graph g = graph::make_random_connected(16, 2, 10, rng);
    std::map<NodeId, std::vector<CallRequest>> scripts;
    for (int i = 0; i < 30; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(16));
        NodeId dst = static_cast<NodeId>(rng.below(16));
        if (dst == src) dst = (dst + 1) % 16;
        scripts[src].push_back(CallRequest{static_cast<Tick>(1 + rng.below(400)), dst, 1,
                                           static_cast<Tick>(50 + rng.below(200))});
    }
    Harness h(std::move(g), 2, std::move(scripts));
    h.cluster.run();
    unsigned active = 0, rejected = 0, released = 0;
    for (NodeId u = 0; u < 16; ++u) {
        active += h.agent(u).calls_active();
        rejected += h.agent(u).calls_rejected();
        released += h.agent(u).calls_released();
        for (EdgeId e = 0; e < h.g.edge_count(); ++e)
            EXPECT_EQ(h.agent(u).free_capacity(e), 2u) << "node " << u << " edge " << e;
    }
    EXPECT_EQ(active, 0u);  // every call had a hold time
    EXPECT_EQ(released + rejected, 30u);
    EXPECT_GT(released, 0u);
}

// ---- ablation A5: hop-by-hop (pre-PARIS) setup --------------------------

struct SeqHarness {
    explicit SeqHarness(Graph graph, std::uint32_t capacity,
                        std::map<NodeId, std::vector<CallRequest>> scripts)
        : g(std::move(graph)),
          cluster(g, make_call_agents(g, capacity, std::move(scripts),
                                      /*selective_copy=*/false)) {
        cluster.start_all(0);
    }
    CallAgentProtocol& agent(NodeId u) {
        return cluster.protocol_as<CallAgentProtocol>(u);
    }
    Graph g;
    node::ParallelCluster cluster;
};

TEST(CallSetupSequential, StillActivatesEndToEnd) {
    SeqHarness h(graph::make_path(5), 4, {{0, {{1, 4, 1, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_active(), 1u);
    const CallId id{0, 1};
    for (NodeId u = 1; u < 4; ++u)
        EXPECT_EQ(h.agent(u).state_of(id), CallState::kReserved) << u;
    EXPECT_EQ(h.agent(4).state_of(id), CallState::kActive);
}

TEST(CallSetupSequential, TeardownReleasesHopByHop) {
    SeqHarness h(graph::make_path(5), 1, {{0, {{1, 4, 1, /*hold=*/100}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_released(), 1u);
    for (NodeId u = 0; u + 1 < 5; ++u)
        EXPECT_EQ(h.agent(u).free_capacity(h.g.find_edge(u, u + 1)), 1u) << u;
}

TEST(CallSetupSequential, SelectiveCopyIsFasterSameSystemCalls) {
    // The quantitative point of the ablation: same path, same number of
    // NCU involvements for setup, but establishment latency grows with
    // the path length without the copy mechanism.
    auto run_mode = [](bool copy) {
        const Graph g = graph::make_path(10);
        std::map<NodeId, std::vector<CallRequest>> scripts{{0, {{1, 9, 1, -1}}}};
        node::ParallelCluster c(g, make_call_agents(g, 4, scripts, copy));
        c.start_all(0);
        const Tick done = c.run();
        struct R {
            Tick done;
            std::uint64_t calls;
            bool active;
        };
        return R{done, c.merged_metrics().total_message_system_calls(),
                 c.protocol_as<CallAgentProtocol>(0).calls_active() == 1};
    };
    const auto fast = run_mode(true);
    const auto slow = run_mode(false);
    ASSERT_TRUE(fast.active);
    ASSERT_TRUE(slow.active);
    // 9 hops: parallel setup finishes ~2 units after launch; sequential
    // needs ~9 units for the setup chain alone.
    EXPECT_LT(fast.done + 5, slow.done);
    // System calls: copy mode pays setup(9) + accept copies(9);
    // sequential pays setup relays(9) + direct accept(1).
    EXPECT_EQ(slow.calls, 10u);
    EXPECT_EQ(fast.calls, 18u);
}

TEST(CallSetupSequential, MidPathRejectReleasesUpstreamOnly) {
    SeqHarness h(graph::make_path(4), 1,
                 {{2, {{1, 3, 1, -1}}}, {0, {{30, 3, 1, -1}}}});
    h.cluster.run();
    EXPECT_EQ(h.agent(0).calls_rejected(), 1u);
    const CallId longcall{0, 1};
    // Downstream of the bottleneck never heard of the call.
    EXPECT_EQ(h.agent(3).state_of(longcall), CallState::kIdle);
    // Upstream reservation was released by the relayed teardown.
    EXPECT_EQ(h.agent(1).free_capacity(h.g.find_edge(1, 2)), 1u);
}

}  // namespace
}  // namespace fastnet::paris
