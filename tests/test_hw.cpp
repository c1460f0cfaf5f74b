// Tests for the hardware model: labels, switch matching, ANR routing,
// selective copy, reverse routes, failures and dmax — the Section 2 model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cost/metrics.hpp"
#include "graph/generators.hpp"
#include "hw/network.hpp"
#include "hw/switch.hpp"
#include "sim/simulator.hpp"

namespace fastnet::hw {
namespace {

using graph::Graph;

struct TextPayload final : TypedPayload<TextPayload> {
    explicit TextPayload(std::string s) : text(std::move(s)) {}
    std::string text;
};

TEST(AnrLabel, NormalAndCopyEncoding) {
    const AnrLabel n = AnrLabel::normal(3);
    EXPECT_EQ(n.port(), 3u);
    EXPECT_FALSE(n.is_copy());
    const AnrLabel c = AnrLabel::copy(3);
    EXPECT_EQ(c.port(), 3u);
    EXPECT_TRUE(c.is_copy());
    EXPECT_FALSE(n == c);
}

TEST(AnrLabel, NcuPortHasNoCopyId) {
    EXPECT_THROW(AnrLabel::copy(kNcuPort), ContractViolation);
}

TEST(Switch, NormalIdMatchesExactlyItsPort) {
    const SwitchingSubsystem ss(4);
    const auto d = ss.match(AnrLabel::normal(2));
    EXPECT_FALSE(d.to_ncu);
    ASSERT_TRUE(d.forward_port.has_value());
    EXPECT_EQ(*d.forward_port, 2u);
}

TEST(Switch, NcuIdMatchesNcuOnly) {
    const SwitchingSubsystem ss(4);
    const auto d = ss.match(AnrLabel::normal(kNcuPort));
    EXPECT_TRUE(d.to_ncu);
    EXPECT_FALSE(d.forward_port.has_value());
}

TEST(Switch, CopyIdFansOutToLinkAndNcu) {
    const SwitchingSubsystem ss(4);
    const auto d = ss.match(AnrLabel::copy(1));
    EXPECT_TRUE(d.to_ncu);
    ASSERT_TRUE(d.forward_port.has_value());
    EXPECT_EQ(*d.forward_port, 1u);
}

TEST(Switch, UnknownPortMatchesNothing) {
    const SwitchingSubsystem ss(2);
    EXPECT_FALSE(ss.match(AnrLabel::normal(9)).matched());
    EXPECT_FALSE(ss.match(AnrLabel::copy(9)).matched());
}

TEST(Anr, SpliceRemovesIntermediateNcuStop) {
    AnrHeader a{AnrLabel::normal(1), AnrLabel::normal(kNcuPort)};
    const AnrHeader b{AnrLabel::normal(2), AnrLabel::normal(kNcuPort)};
    const AnrHeader s = splice(std::move(a), b);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].port(), 1u);
    EXPECT_EQ(s[1].port(), 2u);
    EXPECT_EQ(s[2].port(), kNcuPort);
}

TEST(Anr, SpliceRequiresNcuTerminatedPrefix) {
    AnrHeader a{AnrLabel::normal(1)};
    EXPECT_THROW(splice(std::move(a), {}), ContractViolation);
}

// ---- transport fixture ----------------------------------------------

/// One network on one event queue: shard 0 of a one-shard fabric.
struct Fixture {
    explicit Fixture(Graph graph, ModelParams params = ModelParams::fast_network(),
                     NetworkConfig cfg = {}, std::uint64_t seed = 1)
        : g(std::move(graph)),
          metrics(g.node_count()),
          fabric(g, params, cfg, graph::partition_bfs(g, 1), seed),
          net(sim, fabric, 0, metrics, nullptr, nullptr) {
        net.set_ncu_dispatch([this](NodeId u, const Delivery& d) { inbox[u].push_back(d); });
        inbox.resize(g.node_count());
    }
    sim::Simulator sim;
    Graph g;
    cost::Metrics metrics;
    Fabric fabric;
    Network net;
    std::vector<std::vector<Delivery>> inbox;
};

TEST(Network, RelaysAlongPathWithoutIntermediateDeliveries) {
    Fixture f(graph::make_path(4));
    const std::vector<NodeId> path{0, 1, 2, 3};
    f.net.send(0, f.net.route(path), std::make_shared<TextPayload>("hi"));
    f.sim.run();
    EXPECT_TRUE(f.inbox[1].empty());
    EXPECT_TRUE(f.inbox[2].empty());
    ASSERT_EQ(f.inbox[3].size(), 1u);
    const Delivery& d = f.inbox[3][0];
    EXPECT_EQ(d.at, 3u);
    EXPECT_EQ(d.hops, 3u);
    EXPECT_EQ(d.remaining_len(), 0u);
    EXPECT_EQ(payload_as<TextPayload>(d)->text, "hi");
}

TEST(Network, SelectiveCopyDropsAtIntermediates) {
    Fixture f(graph::make_path(4));
    const std::vector<NodeId> path{0, 1, 2, 3};
    f.net.send(0, f.net.route(path, CopyMode::kIntermediates),
               std::make_shared<TextPayload>("bcast"));
    f.sim.run();
    ASSERT_EQ(f.inbox[1].size(), 1u);
    ASSERT_EQ(f.inbox[2].size(), 1u);
    ASSERT_EQ(f.inbox[3].size(), 1u);
    EXPECT_TRUE(f.inbox[0].empty()) << "sender must not receive its own copy";
    // A mid-route copy still shows the remaining route.
    EXPECT_GT(f.inbox[1][0].remaining_len(), 0u);
    EXPECT_EQ(f.inbox[3][0].remaining_len(), 0u);
}

TEST(Network, ReverseRouteReachesSender) {
    Fixture f(graph::make_path(5));
    const std::vector<NodeId> path{0, 1, 2, 3, 4};
    f.net.send(0, f.net.route(path), std::make_shared<TextPayload>("ping"));
    f.sim.run();
    ASSERT_EQ(f.inbox[4].size(), 1u);
    f.net.send(4, f.inbox[4][0].reverse(), std::make_shared<TextPayload>("pong"));
    f.sim.run();
    ASSERT_EQ(f.inbox[0].size(), 1u);
    EXPECT_EQ(payload_as<TextPayload>(f.inbox[0][0])->text, "pong");
    EXPECT_EQ(f.inbox[0][0].hops, 4u);
}

TEST(Network, RouteSendSharesLabelsAndMatchesHeaderSend) {
    // The same labels sent as a prebuilt Route and as a plain header
    // reach the same NCUs with the same bookkeeping.
    Fixture f(graph::make_path(4));
    const std::vector<NodeId> path{0, 1, 2, 3};
    const AnrHeader header = f.net.route(path, CopyMode::kIntermediates);
    const Route route(header);
    EXPECT_EQ(route.size(), header.size());
    EXPECT_TRUE(std::ranges::equal(route.labels(), header));
    f.net.send(0, route, std::make_shared<TextPayload>("r"));
    f.net.send(0, header, std::make_shared<TextPayload>("h"));
    f.sim.run();
    for (NodeId u = 1; u < 4; ++u) {
        ASSERT_EQ(f.inbox[u].size(), 2u) << u;
        EXPECT_EQ(f.inbox[u][0].hops, f.inbox[u][1].hops);
        EXPECT_EQ(f.inbox[u][0].remaining_len(), f.inbox[u][1].remaining_len());
        EXPECT_TRUE(f.inbox[u][0].reverse() == f.inbox[u][1].reverse());
    }
    EXPECT_EQ(f.net.packets_in_flight(), 0u);
}

TEST(Network, ArrivalPortIsTheFirstReverseLabel) {
    Fixture f(graph::make_path(8));
    std::vector<NodeId> path(8);
    for (NodeId u = 0; u < 8; ++u) path[u] = u;
    f.net.send(0, f.net.route(path, CopyMode::kIntermediates),
               std::make_shared<TextPayload>("x"));
    f.sim.run();
    for (NodeId u = 1; u < 8; ++u) {
        ASSERT_EQ(f.inbox[u].size(), 1u);
        const Delivery& d = f.inbox[u][0];
        const AnrHeader back = d.reverse();
        ASSERT_EQ(back.size(), d.hops + 1);
        EXPECT_EQ(d.arrival_port(), back.front().port());
        EXPECT_EQ(d.arrival_port(), f.net.port_to_neighbor(u, u - 1));
        // Copies and moves keep every label, inline or on the heap.
        Delivery copy = d;
        const Delivery moved = std::move(copy);
        EXPECT_TRUE(moved.reverse() == back) << u;
        copy = moved;
        EXPECT_TRUE(copy.reverse() == back) << u;
    }
    // A delivery at the sender's own switch never crossed a link.
    f.net.send(5, AnrHeader{AnrLabel::normal(kNcuPort)}, std::make_shared<TextPayload>("me"));
    f.sim.run();
    ASSERT_EQ(f.inbox[5].size(), 2u);
    EXPECT_EQ(f.inbox[5][1].arrival_port(), kNcuPort);
    EXPECT_TRUE(f.inbox[5][1].reverse() == AnrHeader{AnrLabel::normal(kNcuPort)});
}

TEST(Network, ReverseRouteOfCopyDeliveryWorksMidPath) {
    Fixture f(graph::make_path(4));
    const std::vector<NodeId> path{0, 1, 2, 3};
    f.net.send(0, f.net.route(path, CopyMode::kIntermediates),
               std::make_shared<TextPayload>("x"));
    f.sim.run();
    ASSERT_EQ(f.inbox[2].size(), 1u);
    f.net.send(2, f.inbox[2][0].reverse(), std::make_shared<TextPayload>("back"));
    f.sim.run();
    ASSERT_EQ(f.inbox[0].size(), 1u);
    EXPECT_EQ(payload_as<TextPayload>(f.inbox[0][0])->text, "back");
}

TEST(Network, HopDelayAccumulates) {
    ModelParams p;
    p.hop_delay = 7;
    p.ncu_delay = 1;
    Fixture f(graph::make_path(4), p);
    const std::vector<NodeId> path{0, 1, 2, 3};
    f.net.send(0, f.net.route(path), std::make_shared<TextPayload>(""));
    f.sim.run();
    EXPECT_EQ(f.sim.now(), 21);  // 3 hops * C
}

TEST(Network, InactiveLinkDropsPacket) {
    Fixture f(graph::make_path(3));
    f.net.fail_link(f.g.find_edge(1, 2));
    const std::vector<NodeId> path{0, 1, 2};
    f.net.send(0, f.net.route(path), std::make_shared<TextPayload>(""));
    f.sim.run();
    EXPECT_TRUE(f.inbox[2].empty());
    EXPECT_EQ(f.metrics.net().drops_inactive_link, 1u);
}

TEST(Network, PacketInFlightAcrossFailureIsDropped) {
    ModelParams p;
    p.hop_delay = 10;
    Fixture f(graph::make_path(2), p);
    const std::vector<NodeId> path{0, 1};
    f.net.send(0, f.net.route(path), std::make_shared<TextPayload>(""));
    // Fail the link while the packet is on the wire.
    f.sim.at(5, [&] { f.net.fail_link(0); });
    f.sim.run();
    EXPECT_TRUE(f.inbox[1].empty());
    EXPECT_EQ(f.metrics.net().drops_inactive_link, 1u);
}

TEST(Network, FailRestoreCycleStillDropsInFlight) {
    ModelParams p;
    p.hop_delay = 10;
    Fixture f(graph::make_path(2), p);
    const std::vector<NodeId> path{0, 1};
    f.net.send(0, f.net.route(path), std::make_shared<TextPayload>(""));
    f.sim.at(3, [&] { f.net.fail_link(0); });
    f.sim.at(5, [&] { f.net.restore_link(0); });
    f.sim.run();
    EXPECT_TRUE(f.inbox[1].empty()) << "flapped link must not resurrect old packets";
}

TEST(Network, DmaxRejectsOverlongHeaders) {
    ModelParams p = ModelParams::fast_network();
    p.dmax = 3;
    Fixture f(graph::make_path(6), p);
    const std::vector<NodeId> ok{0, 1, 2};
    EXPECT_NO_THROW(f.net.send(0, f.net.route(ok), std::make_shared<TextPayload>("")));
    const std::vector<NodeId> toolong{0, 1, 2, 3, 4, 5};
    EXPECT_THROW(f.net.send(0, f.net.route(toolong), std::make_shared<TextPayload>("")),
                 ContractViolation);
}

TEST(Network, MisrouteIsCountedNotFatal) {
    Fixture f(graph::make_path(2));
    // Port 5 does not exist at node 0 (degree 1).
    f.net.send(0, {AnrLabel::normal(5)}, std::make_shared<TextPayload>(""));
    f.sim.run();
    EXPECT_EQ(f.metrics.net().drops_no_match, 1u);
}

TEST(Network, LinkNotificationReachesBothEndpointsAfterDetectionDelay) {
    NetworkConfig cfg;
    cfg.detection_delay = 4;
    Fixture f(graph::make_path(3), ModelParams::fast_network(), cfg);
    std::vector<std::tuple<NodeId, EdgeId, bool>> events;
    f.net.set_link_sink([&](NodeId at, EdgeId e, bool up) { events.emplace_back(at, e, up); });
    f.sim.at(10, [&] { f.net.fail_link(0); });
    f.sim.run();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(f.sim.now(), 14);
    EXPECT_EQ(std::get<2>(events[0]), false);
}

TEST(Network, FlappingLinkSuppressesStaleNotification) {
    NetworkConfig cfg;
    cfg.detection_delay = 10;
    Fixture f(graph::make_path(2), ModelParams::fast_network(), cfg);
    std::vector<bool> states;
    f.net.set_link_sink([&](NodeId, EdgeId, bool up) { states.push_back(up); });
    f.sim.at(0, [&] { f.net.fail_link(0); });
    f.sim.at(5, [&] { f.net.restore_link(0); });
    f.sim.run();
    // Only the final (persistent) state is reported, to both endpoints.
    ASSERT_EQ(states.size(), 2u);
    EXPECT_TRUE(states[0]);
    EXPECT_TRUE(states[1]);
}

TEST(Network, FifoPreservedUnderJitter) {
    ModelParams p;
    p.hop_delay = 20;
    NetworkConfig cfg;
    cfg.hop_delay_min = 1;
    Fixture f(graph::make_path(2), p, cfg, /*seed=*/5);
    const std::vector<NodeId> path{0, 1};
    for (int i = 0; i < 50; ++i)
        f.net.send(0, f.net.route(path), std::make_shared<TextPayload>(std::to_string(i)));
    f.sim.run();
    ASSERT_EQ(f.inbox[1].size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(payload_as<TextPayload>(f.inbox[1][i])->text, std::to_string(i));
}

TEST(Network, MetricsCountHopsAndDeliveries) {
    Fixture f(graph::make_path(4));
    const std::vector<NodeId> path{0, 1, 2, 3};
    f.net.send(0, f.net.route(path, CopyMode::kIntermediates),
               std::make_shared<TextPayload>(""));
    f.sim.run();
    EXPECT_EQ(f.metrics.net().injections, 1u);
    EXPECT_EQ(f.metrics.net().hops, 3u);
    EXPECT_EQ(f.metrics.net().ncu_deliveries, 3u);
    EXPECT_EQ(f.metrics.net().max_header_len, 4u);
}

TEST(Network, NodeFailureDeactivatesAllIncidentLinks) {
    Fixture f(graph::make_star(4));
    f.net.fail_node(0);
    for (EdgeId e = 0; e < f.g.edge_count(); ++e) EXPECT_FALSE(f.net.link_active(e));
    f.net.restore_node(0);
    for (EdgeId e = 0; e < f.g.edge_count(); ++e) EXPECT_TRUE(f.net.link_active(e));
}

TEST(Network, PortGeometryRoundTrips) {
    Fixture f(graph::make_star(5));
    for (NodeId u = 0; u < 5; ++u) {
        for (const auto& ie : f.g.incident(u)) {
            const PortId p = f.net.port_for_edge(u, ie.edge);
            EXPECT_NE(p, kNoPort);
            EXPECT_EQ(f.net.edge_at_port(u, p), ie.edge);
            EXPECT_EQ(f.net.port_to_neighbor(u, ie.neighbor), p);
        }
    }
    EXPECT_EQ(f.net.port_to_neighbor(1, 2), kNoPort);  // leaves not adjacent
}

}  // namespace
}  // namespace fastnet::hw
