// The crash-recovery story end to end: hard crash semantics at the NCU,
// selective node restore at the link layer, seeded loss/duplication,
// the fault injector's determinism, and the convergence oracle — both
// on hand-built clusters and on the real protocols (maintenance, router,
// election) surviving scripted crash churn.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "election/election.hpp"
#include "fault/injector.hpp"
#include "fault/oracle.hpp"
#include "graph/generators.hpp"
#include "node/scenario.hpp"
#include "topo/router.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet::fault {
namespace {

struct Ping final : hw::TypedPayload<Ping> {};

/// Records handler invocations across protocol instances: the shared
/// block survives the crash that destroys the instance, so tests can see
/// both lives of a node.
struct Probe final : node::Protocol {
    struct Shared {
        int starts = 0;
        int restarts = 0;
        int timer_fires = 0;
        int deliveries = 0;
        std::vector<std::uint64_t> incarnations;
        bool ping_on_start = false;  ///< Send one Ping over the first link.
    };

    explicit Probe(std::shared_ptr<Shared> s, Tick timer_delay = 0)
        : s_(std::move(s)), timer_delay_(timer_delay) {}

    void on_start(node::Context& ctx) override {
        s_->starts += 1;
        s_->incarnations.push_back(ctx.incarnation());
        if (timer_delay_ > 0) ctx.set_timer(timer_delay_, 7);
        if (s_->ping_on_start) {
            hw::AnrHeader h{hw::AnrLabel::normal(ctx.links()[0].port),
                            hw::AnrLabel::normal(hw::kNcuPort)};
            ctx.send(std::move(h), std::make_shared<Ping>());
        }
    }
    void on_restart(node::Context& ctx) override {
        s_->restarts += 1;
        s_->incarnations.push_back(ctx.incarnation());
    }
    void on_timer(node::Context&, std::uint64_t) override { s_->timer_fires += 1; }
    void on_message(node::Context&, const hw::Delivery&) override { s_->deliveries += 1; }

    std::shared_ptr<Shared> s_;
    Tick timer_delay_;
};

struct ProbeCluster {
    ProbeCluster(graph::Graph g, node::ParallelClusterConfig cfg = {}, Tick timer_delay = 0)
        : shared(g.node_count()) {
        for (auto& s : shared) s = std::make_shared<Probe::Shared>();
        cluster = std::make_unique<node::ParallelCluster>(
            std::move(g),
            [this, timer_delay](NodeId u) {
                return std::make_unique<Probe>(shared[u], timer_delay);
            },
            cfg);
    }
    std::vector<std::shared_ptr<Probe::Shared>> shared;
    std::unique_ptr<node::ParallelCluster> cluster;
};

node::ProtocolFactory idle_factory() {
    return [](NodeId) { return std::make_unique<node::Protocol>(); };
}

// ---- crash semantics at the NCU ---------------------------------------

TEST(Crash, WipesPendingTimers) {
    ProbeCluster pc(graph::make_path(2), {}, /*timer_delay=*/1000);
    pc.cluster->start(0, 0);
    pc.cluster->schedule(node::Scenario().crash_node(10, 0));
    pc.cluster->run();
    EXPECT_EQ(pc.shared[0]->starts, 1);
    EXPECT_EQ(pc.shared[0]->timer_fires, 0) << "a crashed node's timers must not fire";
    EXPECT_TRUE(pc.cluster->crashed(0));
    EXPECT_EQ(pc.cluster->merged_metrics().node(0).crashes, 1u);
}

TEST(Crash, RestartBuildsFreshInstanceUnderBumpedIncarnation) {
    ProbeCluster pc(graph::make_path(2), {}, /*timer_delay=*/1000);
    pc.cluster->start(0, 0);
    pc.cluster->schedule(node::Scenario().crash_node(10, 0).restart_node(20, 0));
    pc.cluster->run();
    EXPECT_EQ(pc.shared[0]->starts, 1);
    EXPECT_EQ(pc.shared[0]->restarts, 1);
    ASSERT_EQ(pc.shared[0]->incarnations.size(), 2u);
    EXPECT_EQ(pc.shared[0]->incarnations[0], 0u);
    EXPECT_EQ(pc.shared[0]->incarnations[1], 1u);
    EXPECT_FALSE(pc.cluster->crashed(0));
    EXPECT_EQ(pc.cluster->merged_metrics().node(0).restarts, 1u);
    // The first life's timer died with the first instance.
    EXPECT_EQ(pc.shared[0]->timer_fires, 0);
}

TEST(Crash, IdempotentAndRestartIsNoopOnLiveNodes) {
    ProbeCluster pc(graph::make_path(2));
    pc.cluster->crash_node(0, 0);
    pc.cluster->crash_node(0, 0);  // second crash of a dead node: no-op
    pc.cluster->run_until(0);
    EXPECT_EQ(pc.cluster->merged_metrics().node(0).crashes, 1u);
    pc.cluster->restart_node(1, 0);
    pc.cluster->restart_node(1, 0);  // already live again: no-op
    pc.cluster->restart_node(1, 1);  // never crashed: no-op
    pc.cluster->run();
    EXPECT_EQ(pc.cluster->merged_metrics().node(0).restarts, 1u);
    EXPECT_EQ(pc.cluster->merged_metrics().node(1).restarts, 0u);
    EXPECT_EQ(pc.shared[1]->restarts, 0);
}

TEST(Crash, DropsInFlightPacketsViaEpochBump) {
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 10;
    ProbeCluster pc(graph::make_path(2), cfg);
    auto& c = *pc.cluster;
    pc.shared[0]->ping_on_start = true;
    c.start(0, 0);        // the ping leaves at 1 and would arrive at 11
    c.crash_node(5, 1);   // packet is mid-link
    c.run();
    EXPECT_EQ(pc.shared[1]->deliveries, 0) << "packet must die with the epoch";
    EXPECT_EQ(c.merged_metrics().net().ncu_deliveries, 0u);
    EXPECT_EQ(c.packets_in_flight(), 0u) << "dropped packet leaked its cursor";
}

// ---- selective node restore at the link layer -------------------------

TEST(NodeRestore, SkipsLinksThatFailedIndependently) {
    node::ParallelCluster c(graph::make_complete(3), idle_factory());
    const EdgeId e01 = c.graph().find_edge(0, 1);
    const EdgeId e02 = c.graph().find_edge(0, 2);
    c.fail_link(0, e01);  // independent failure, not the crash's doing
    c.crash_node(0, 0);   // downs e02 (e01 was already down)
    c.restart_node(0, 0);
    c.run();
    EXPECT_TRUE(c.mirror(0).link_active(e02)) << "the crash's own link must come back";
    EXPECT_FALSE(c.mirror(0).link_active(e01)) << "an independent failure must persist";
}

TEST(NodeRestore, SkipsLinksTouchedSinceTheCrash) {
    node::ParallelCluster c(graph::make_path(2), idle_factory());
    const EdgeId e01 = c.graph().find_edge(0, 1);
    c.crash_node(0, 1);      // downs e01, records its epoch
    c.restore_link(0, e01);  // repaired by someone else meanwhile
    c.run_until(0);
    EXPECT_TRUE(c.mirror(0).link_active(e01));
    c.restart_node(1, 1);    // stale record: epoch moved on, skip
    c.run();
    EXPECT_TRUE(c.mirror(0).link_active(e01));
}

TEST(NodeRestore, DefersSharedLinkUntilBothEndpointsAreBack) {
    node::ParallelCluster c(graph::make_path(3), idle_factory());
    const EdgeId e01 = c.graph().find_edge(0, 1);
    const EdgeId e12 = c.graph().find_edge(1, 2);
    c.crash_node(0, 1);  // downs e01 and e12
    c.crash_node(0, 2);  // e12 already down; attributed to node 1's record
    c.restart_node(0, 1);
    c.run_until(0);
    EXPECT_TRUE(c.mirror(0).link_active(e01));
    EXPECT_FALSE(c.mirror(0).link_active(e12)) << "peer still down: link must wait";
    c.restart_node(1, 2);
    c.run_until(1);
    EXPECT_TRUE(c.mirror(0).link_active(e12));
    c.run();
}

// ---- seeded packet-level faults ---------------------------------------

TEST(PacketFaults, CertainLossDropsEveryTransmission) {
    node::ParallelClusterConfig cfg;
    cfg.net.loss_ppm = 1'000'000;
    ProbeCluster pc(graph::make_path(2), cfg);
    auto& c = *pc.cluster;
    pc.shared[0]->ping_on_start = true;
    c.start(0, 0);
    c.run();
    EXPECT_EQ(pc.shared[1]->deliveries, 0);
    EXPECT_EQ(c.merged_metrics().net().drops_injected, 1u);
    EXPECT_EQ(c.packets_in_flight(), 0u);
}

TEST(PacketFaults, CertainDuplicationDeliversTwiceAndIsAccounted) {
    node::ParallelClusterConfig cfg;
    cfg.net.dup_ppm = 1'000'000;
    ProbeCluster pc(graph::make_path(2), cfg);
    auto& c = *pc.cluster;
    pc.shared[0]->ping_on_start = true;
    c.start(0, 0);
    c.run();
    EXPECT_EQ(pc.shared[1]->deliveries, 2) << "dup_ppm=100% must deliver both copies";
    EXPECT_EQ(c.merged_metrics().net().dup_copies, 1u);
    EXPECT_EQ(c.packets_in_flight(), 0u);
}

// ---- NCU stalls -------------------------------------------------------

TEST(Stall, InflatesProcessingDelayDeterministically) {
    auto timed_run = [](Tick stall) {
        ProbeCluster pc(graph::make_path(2));
        pc.cluster->stall_node(0, 0, stall);
        pc.cluster->start(0, 0);
        return pc.cluster->run();
    };
    const Tick base = timed_run(0);
    EXPECT_EQ(timed_run(50), base + 50);
}

// ---- the fault injector ----------------------------------------------

bool same_actions(const node::Scenario& a, const node::Scenario& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto& x = a.actions()[i];
        const auto& y = b.actions()[i];
        if (x.at != y.at || x.kind != y.kind || x.edge != y.edge || x.node != y.node ||
            x.amount != y.amount)
            return false;
    }
    return true;
}

FaultModel busy_model() {
    FaultModel m;
    m.link_flaps = 6;
    m.node_crashes = 3;
    m.stalls = 2;
    m.stall_max = 5;
    m.window_from = 10;
    m.window_to = 200;
    m.heal_at = 250;
    return m;
}

TEST(Injector, CompileIsPureInModelSeedGraph) {
    const graph::Graph g = graph::make_cycle(8);
    const FaultInjector inj(busy_model(), 77);
    EXPECT_TRUE(same_actions(inj.compile(g), inj.compile(g)));
    const FaultInjector twin(busy_model(), 77);
    EXPECT_TRUE(same_actions(inj.compile(g), twin.compile(g)));
    const FaultInjector other(busy_model(), 78);
    EXPECT_FALSE(same_actions(inj.compile(g), other.compile(g)));
}

TEST(Injector, HealLeavesTheNetworkWhole) {
    node::ParallelCluster c(graph::make_cycle(8), idle_factory());
    const FaultInjector inj(busy_model(), 5);
    const node::Scenario s = inj.compile(c.graph());
    EXPECT_EQ(s.last_action_at(), busy_model().heal_at);
    c.schedule(s);
    c.run();
    for (EdgeId e = 0; e < c.graph().edge_count(); ++e)
        EXPECT_TRUE(c.mirror(0).link_active(e)) << "edge " << e;
    for (NodeId u = 0; u < c.node_count(); ++u) {
        EXPECT_FALSE(c.crashed(u)) << "node " << u;
        EXPECT_FALSE(c.mirror(0).node_failed(u)) << "node " << u;
    }
}

TEST(Injector, RespectsProtectionAndWindow) {
    const graph::Graph g = graph::make_cycle(6);
    FaultModel m;
    m.node_crashes = 8;
    m.window_from = 100;
    m.window_to = 300;
    m.protect_nodes = {0, 3};
    const node::Scenario s = FaultInjector(m, 9).compile(g);
    ASSERT_GT(s.size(), 0u);
    for (const auto& a : s.actions()) {
        EXPECT_TRUE(a.kind == node::ScenarioAction::Kind::kCrashNode ||
                    a.kind == node::ScenarioAction::Kind::kRestartNode);
        EXPECT_NE(a.node, NodeId{0});
        EXPECT_NE(a.node, NodeId{3});
        EXPECT_GE(a.at, m.window_from);
        EXPECT_LE(a.at, m.window_to);
    }
}

TEST(Injector, CrashNodesFalseYieldsSoftLinkLayerEvents) {
    const graph::Graph g = graph::make_cycle(6);
    FaultModel m;
    m.node_crashes = 6;
    m.window_from = 10;
    m.window_to = 100;
    m.crash_nodes = false;
    const node::Scenario s = FaultInjector(m, 4).compile(g);
    ASSERT_GT(s.size(), 0u);
    for (const auto& a : s.actions())
        EXPECT_TRUE(a.kind == node::ScenarioAction::Kind::kFailNode ||
                    a.kind == node::ScenarioAction::Kind::kRestoreNode);
}

TEST(Injector, ConfigureAppliesPacketFaults) {
    FaultModel m;
    m.loss_ppm = 123;
    m.dup_ppm = 456;
    node::ParallelClusterConfig cfg;
    FaultInjector(m, 0).configure(cfg);
    EXPECT_EQ(cfg.net.loss_ppm, 123u);
    EXPECT_EQ(cfg.net.dup_ppm, 456u);
}

// ---- the convergence oracle -------------------------------------------

topo::TopologyOptions quick_topo() {
    topo::TopologyOptions o;
    o.rounds = 10;
    o.period = 50;
    return o;
}

TEST(OracleCheck, AcceptsAConvergedMaintenanceCluster) {
    node::ParallelCluster c(graph::make_cycle(6),
                            topo::make_topology_maintenance(6, quick_topo()));
    c.start_all(0);
    c.run();
    const OracleReport rep = check_theorem1(c);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.summary(), "ok");
}

TEST(OracleCheck, FlagsAStaleViewAndPendingWork) {
    node::ParallelCluster c(graph::make_cycle(4),
                            topo::make_topology_maintenance(4, quick_topo()));
    c.start_all(0);
    const Tick done = c.run();
    // A failure after the protocol's last round: nobody will re-learn.
    c.fail_link(done + 1, 0);
    c.run_until(done + 1);
    Oracle o(c);
    o.require_views_converged();
    EXPECT_FALSE(o.ok());
    EXPECT_FALSE(o.report().summary().empty());
}

TEST(OracleCheck, FlagsAMissingDelivery) {
    topo::RouterOptions ropt;
    ropt.topology = quick_topo();
    node::ParallelCluster c(graph::make_path(2), topo::make_routers(2, ropt));
    c.start_all(0);
    c.run();
    Oracle o(c);
    o.require_quiescent().require_no_inflight().require_received(1, 0, 999);
    EXPECT_FALSE(o.ok());
}

// ---- Theorem 1 and friends under real crash churn ---------------------

TEST(Recovery, MaintenanceReconvergesAfterCrashRestart) {
    topo::TopologyOptions topt;
    topt.rounds = 20;
    topt.period = 50;
    node::ParallelCluster c(graph::make_cycle(6), topo::make_topology_maintenance(6, topt));
    c.start_all(0);
    c.schedule(node::Scenario().crash_node(100, 2).restart_node(400, 2));
    c.run();
    EXPECT_EQ(c.merged_metrics().node(2).crashes, 1u);
    EXPECT_EQ(c.merged_metrics().node(2).restarts, 1u);
    const OracleReport rep = check_theorem1(c);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Recovery, RouterDeliversAcrossACrashedRelay) {
    topo::RouterOptions ropt;
    ropt.topology.rounds = 20;
    ropt.topology.period = 50;
    ropt.topology.full_knowledge = true;
    ropt.retry_period = 64;
    ropt.max_retries = 30;
    std::map<NodeId, std::vector<topo::SendRequest>> sends;
    sends[0] = {{40, 5, 42}};
    node::ParallelCluster c(graph::make_cycle(6), topo::make_routers(6, ropt, sends));
    c.start_all(0);
    c.schedule(node::Scenario().crash_node(60, 2).restart_node(300, 2));
    c.run();
    Oracle o(c);
    o.require_quiescent().require_no_inflight().require_views_converged()
        .require_received(5, 0, 42);
    EXPECT_TRUE(o.ok()) << o.report().summary();
}

TEST(Recovery, ElectionStaysSafeUnderCrashRestart) {
    node::ParallelCluster c(graph::make_cycle(6),
                            [](NodeId) { return std::make_unique<elect::ElectionProtocol>(); });
    c.start_all(0);
    c.schedule(node::Scenario().crash_node(30, 1).restart_node(200, 1));
    c.run();
    Oracle o(c);
    o.require_quiescent().require_no_inflight().require_at_most_one_leader();
    EXPECT_TRUE(o.ok()) << o.report().summary();
}

}  // namespace
}  // namespace fastnet::fault
