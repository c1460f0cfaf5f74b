// Randomized property sweeps over the hardware fabric: arbitrary routes
// on arbitrary graphs deliver to exactly the intended NCUs, reverse
// routes always work, determinism holds.
#include <gtest/gtest.h>

#include <set>

#include "cost/metrics.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "hw/network.hpp"
#include "sim/simulator.hpp"

namespace fastnet::hw {
namespace {

struct Mark final : TypedPayload<Mark> {
    explicit Mark(int v) : value(v) {}
    int value;
};

/// One network on one event queue: shard 0 of a one-shard fabric.
struct Fixture {
    explicit Fixture(graph::Graph graph, NetworkConfig cfg = {}, std::uint64_t seed = 1)
        : g(std::move(graph)),
          metrics(g.node_count()),
          fabric(g, ModelParams::fast_network(), cfg, graph::partition_bfs(g, 1), seed),
          net(sim, fabric, 0, metrics, nullptr, nullptr) {
        inbox.resize(g.node_count());
        net.set_ncu_dispatch([this](NodeId u, const Delivery& d) { inbox[u].push_back(d); });
    }
    sim::Simulator sim;
    graph::Graph g;
    cost::Metrics metrics;
    Fabric fabric;
    Network net;
    std::vector<std::vector<Delivery>> inbox;
};

/// A random simple path in g starting at `from` with <= max_len hops.
std::vector<NodeId> random_simple_path(const graph::Graph& g, NodeId from,
                                       std::size_t max_len, Rng& rng) {
    std::vector<NodeId> path{from};
    std::set<NodeId> used{from};
    NodeId cur = from;
    while (path.size() <= max_len) {
        std::vector<NodeId> candidates;
        for (const graph::IncidentEdge& ie : g.incident(cur))
            if (!used.count(ie.neighbor)) candidates.push_back(ie.neighbor);
        if (candidates.empty()) break;
        cur = candidates[rng.below(candidates.size())];
        used.insert(cur);
        path.push_back(cur);
    }
    return path;
}

class HwRouteProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HwRouteProperty, RelayRouteDeliversOnlyAtDestination) {
    Rng rng(GetParam());
    Fixture f(graph::make_random_connected(24, 2, 10, rng));
    for (int trial = 0; trial < 20; ++trial) {
        const NodeId from = static_cast<NodeId>(rng.below(24));
        const auto path = random_simple_path(f.g, from, 8, rng);
        if (path.size() < 2) continue;
        for (auto& box : f.inbox) box.clear();
        f.net.send(from, f.net.route(path), std::make_shared<Mark>(trial));
        f.sim.run();
        for (NodeId u = 0; u < 24; ++u) {
            const std::size_t want = (u == path.back()) ? 1 : 0;
            ASSERT_EQ(f.inbox[u].size(), want) << "trial " << trial << " node " << u;
        }
        EXPECT_EQ(f.inbox[path.back()][0].hops, path.size() - 1);
    }
}

TEST_P(HwRouteProperty, CopyRouteDeliversAtEveryPathNodeOnce) {
    Rng rng(GetParam() ^ 0xabcd);
    Fixture f(graph::make_random_connected(24, 2, 10, rng));
    for (int trial = 0; trial < 20; ++trial) {
        const NodeId from = static_cast<NodeId>(rng.below(24));
        const auto path = random_simple_path(f.g, from, 8, rng);
        if (path.size() < 2) continue;
        for (auto& box : f.inbox) box.clear();
        f.net.send(from, f.net.route(path, CopyMode::kIntermediates),
                   std::make_shared<Mark>(trial));
        f.sim.run();
        const std::set<NodeId> on_path(path.begin() + 1, path.end());
        for (NodeId u = 0; u < 24; ++u) {
            const std::size_t want = on_path.count(u) ? 1 : 0;
            ASSERT_EQ(f.inbox[u].size(), want) << "trial " << trial << " node " << u;
        }
    }
}

TEST_P(HwRouteProperty, ReverseRouteAlwaysReturnsToSender) {
    Rng rng(GetParam() ^ 0x1234);
    Fixture f(graph::make_random_connected(20, 2, 10, rng));
    for (int trial = 0; trial < 15; ++trial) {
        const NodeId from = static_cast<NodeId>(rng.below(20));
        const auto path = random_simple_path(f.g, from, 7, rng);
        if (path.size() < 2) continue;
        for (auto& box : f.inbox) box.clear();
        f.net.send(from, f.net.route(path), std::make_shared<Mark>(1));
        f.sim.run();
        ASSERT_EQ(f.inbox[path.back()].size(), 1u);
        const Delivery d = f.inbox[path.back()][0];
        for (auto& box : f.inbox) box.clear();
        f.net.send(path.back(), d.reverse(), std::make_shared<Mark>(2));
        f.sim.run();
        ASSERT_EQ(f.inbox[from].size(), 1u) << "trial " << trial;
        EXPECT_EQ(payload_as<Mark>(f.inbox[from][0])->value, 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwRouteProperty,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5));

// ---- epoch-drop and fault-injection properties ------------------------

class HwFaultProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HwFaultProperty, PacketsConservedUnderChurnLossAndDuplication) {
    // Conservation under arbitrary faults: every injected cursor (and
    // every injected duplicate) terminates in exactly one of delivery or
    // a counted drop, and the pool drains — no packet survives a link
    // epoch bump, none leaks.
    Rng rng(GetParam() ^ 0xfau);
    NetworkConfig cfg;
    cfg.hop_delay_min = 0;  // jittered hops: packets linger mid-flight
    if (GetParam() % 2 == 1) cfg.loss_ppm = 50'000;
    if (GetParam() % 3 == 0) cfg.dup_ppm = 50'000;
    Fixture f(graph::make_random_connected(16, 2, 10, rng), cfg, /*seed=*/GetParam());
    for (int i = 0; i < 40; ++i) {
        const NodeId from = static_cast<NodeId>(rng.below(16));
        const auto path = random_simple_path(f.g, from, 6, rng);
        if (path.size() < 2) continue;
        const Tick at = static_cast<Tick>(rng.below(150));
        f.sim.at(at, [&f, from, r = f.net.route(path), i] {
            f.net.send(from, r, std::make_shared<Mark>(i));
        });
    }
    for (int i = 0; i < 30; ++i) {
        const EdgeId e = static_cast<EdgeId>(rng.below(f.g.edge_count()));
        const Tick at = static_cast<Tick>(rng.below(200));
        const bool down = rng.chance(1, 2);
        f.sim.at(at, [&f, e, down] { f.net.set_link_active(e, !down); });
    }
    f.sim.run();
    const auto& n = f.metrics.net();
    EXPECT_EQ(f.net.packets_in_flight(), 0u) << "a dropped packet leaked its cursor";
    EXPECT_EQ(n.injections + n.dup_copies,
              n.ncu_deliveries + n.drops_inactive_link + n.drops_no_match +
                  n.drops_empty_header + n.drops_injected);
}

TEST_P(HwFaultProperty, FlapDropsThePacketInFlightOnTheFlappedLink) {
    // A packet mid-flight on a link that fails — or fails and is restored
    // before the nominal arrival — never arrives, for any hop position.
    Rng rng(GetParam() ^ 0x5eedu);
    const graph::Graph g = graph::make_path(6);
    ModelParams p = ModelParams::fast_network();
    p.hop_delay = 4;
    for (int trial = 0; trial < 10; ++trial) {
        sim::Simulator sim;
        cost::Metrics m(6);
        Fabric fabric(g, p, {}, graph::partition_bfs(g, 1), 1);
        Network net(sim, fabric, 0, m, nullptr, nullptr);
        std::vector<Delivery> inbox;
        net.set_ncu_dispatch([&inbox](NodeId, const Delivery& d) { inbox.push_back(d); });
        const std::size_t hop = rng.below(5);  // kill the packet on this hop
        const EdgeId e = g.find_edge(static_cast<NodeId>(hop), static_cast<NodeId>(hop + 1));
        const bool restore = rng.chance(1, 2);
        net.send(0, net.route(std::vector<NodeId>{0, 1, 2, 3, 4, 5}),
                 std::make_shared<Mark>(trial));
        // The packet occupies link `hop` during [4*hop, 4*hop + 4).
        sim.at(static_cast<Tick>(4 * hop + 1), [&net, e] { net.fail_link(e); });
        if (restore)
            sim.at(static_cast<Tick>(4 * hop + 2), [&net, e] { net.restore_link(e); });
        sim.run();
        EXPECT_TRUE(inbox.empty()) << "trial " << trial << " hop " << hop
                                   << (restore ? " (fail+restore)" : " (fail)");
        EXPECT_EQ(m.net().drops_inactive_link, 1u);
        EXPECT_EQ(net.packets_in_flight(), 0u);
    }
}

TEST_P(HwFaultProperty, DetectionDelayReportsExactlyThePersistentStates) {
    // Random alternating flap schedules: an NCU hears about exactly the
    // states that persist for detection_delay — a flap-back within the
    // window suppresses the stale notification, and the last state is
    // always reported.
    Rng rng(GetParam() ^ 0xde7ecu);
    constexpr Tick kDetect = 16;
    for (int trial = 0; trial < 10; ++trial) {
        std::set<Tick> times;
        while (times.size() < 6) times.insert(static_cast<Tick>(rng.below(120)));
        const std::vector<Tick> ts(times.begin(), times.end());
        bool tied = false;  // a gap of exactly kDetect would race the queue
        for (std::size_t i = 0; i + 1 < ts.size(); ++i)
            tied |= ts[i + 1] - ts[i] == kDetect;
        if (tied) continue;

        NetworkConfig cfg;
        cfg.detection_delay = kDetect;
        sim::Simulator sim;
        cost::Metrics m(2);
        const graph::Graph g = graph::make_path(2);  // Fabric keeps a reference
        Fabric fabric(g, ModelParams::fast_network(), cfg, graph::partition_bfs(g, 1), 1);
        Network net(sim, fabric, 0, m, nullptr, nullptr);
        std::vector<std::vector<bool>> heard(2);
        net.set_link_sink([&heard](NodeId u, EdgeId, bool up) { heard[u].push_back(up); });

        std::vector<bool> expected;
        for (std::size_t i = 0; i < ts.size(); ++i) {
            const bool up = i % 2 == 1;  // fail, restore, fail, ...
            sim.at(ts[i], [&net, up] { net.set_link_active(0, up); });
            if (i + 1 == ts.size() || ts[i + 1] - ts[i] > kDetect) expected.push_back(up);
        }
        sim.run();
        for (NodeId u = 0; u < 2; ++u)
            EXPECT_EQ(heard[u], expected) << "trial " << trial << " node " << u;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwFaultProperty,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6));

TEST(HwDeterminism, IdenticalRunsProduceIdenticalMetrics) {
    auto run_once = [] {
        Rng rng(9);
        Fixture f(graph::make_random_connected(16, 3, 10, rng));
        for (int i = 0; i < 10; ++i) {
            const NodeId from = static_cast<NodeId>(rng.below(16));
            const auto path = random_simple_path(f.g, from, 6, rng);
            if (path.size() < 2) continue;
            f.net.send(from, f.net.route(path, CopyMode::kIntermediates),
                       std::make_shared<Mark>(i));
        }
        f.sim.run();
        return std::tuple{f.metrics.net().hops, f.metrics.net().ncu_deliveries,
                          f.metrics.net().header_bits};
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fastnet::hw
