// Tests for the declarative Scenario scripts, including a chaos run of
// the full topology maintenance protocol under a random healed churn.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "node/scenario.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet::node {
namespace {

struct Idle final : Protocol {};

TEST(Scenario, BuilderAccumulatesActions) {
    Scenario s;
    s.fail_link(10, 0).restore_link(20, 0).fail_node(30, 2).restore_node(40, 2).start(0, 1);
    EXPECT_EQ(s.size(), 5u);
    EXPECT_EQ(s.actions()[0].kind, ScenarioAction::Kind::kFailLink);
    EXPECT_EQ(s.actions()[4].kind, ScenarioAction::Kind::kStart);
}

TEST(Scenario, ApplyDrivesTheNetwork) {
    ParallelCluster c(graph::make_path(3), [](NodeId) { return std::make_unique<Idle>(); });
    Scenario s;
    s.fail_link(5, 0).restore_link(9, 0).fail_node(12, 2);
    c.schedule(s);
    c.run_until(6);
    EXPECT_FALSE(c.mirror(0).link_active(0));
    c.run_until(10);
    EXPECT_TRUE(c.mirror(0).link_active(0));
    c.run();
    EXPECT_FALSE(c.mirror(0).link_active(1));  // node 2's only link
}

TEST(Scenario, StartActionStartsProtocols) {
    ParallelCluster c(graph::make_path(2), [](NodeId) { return std::make_unique<Idle>(); });
    Scenario s;
    s.start(4, 0).start(7, 1);
    c.schedule(s);
    c.run();
    EXPECT_EQ(c.merged_metrics().node(0).starts, 1u);
    EXPECT_EQ(c.merged_metrics().node(1).starts, 1u);
}

TEST(Scenario, RandomChurnRespectsProtectedEdges) {
    Rng rng(4);
    const graph::Graph g = graph::make_cycle(8);
    const std::vector<EdgeId> protect{0, 1, 2};
    const Scenario s = Scenario::random_churn(g, 50, 10, 100, rng, protect);
    EXPECT_EQ(s.size(), 50u);
    for (const auto& a : s.actions()) {
        EXPECT_GE(a.at, 10);
        EXPECT_LE(a.at, 100);
        EXPECT_TRUE(std::find(protect.begin(), protect.end(), a.edge) == protect.end());
    }
}

TEST(Scenario, HealAllRestoresEveryFailedLink) {
    Scenario s;
    s.fail_link(10, 3).fail_link(20, 5).restore_link(30, 3).fail_link(40, 7);
    s.heal_all(100);
    // 3 was restored already; 5 and 7 get healing restores.
    unsigned heals = 0;
    for (const auto& a : s.actions())
        if (a.at == 100 && a.kind == ScenarioAction::Kind::kRestoreLink) {
            ++heals;
            EXPECT_TRUE(a.edge == 5 || a.edge == 7);
        }
    EXPECT_EQ(heals, 2u);
}

TEST(Scenario, HealAllUsesTimeOrderNotInsertionOrder) {
    Scenario s;
    // Inserted out of order: the restore at t=50 comes *after* the fail
    // at t=10 in simulated time, so edge 1 ends up healthy.
    s.restore_link(50, 1);
    s.fail_link(10, 1);
    s.heal_all(100);
    for (const auto& a : s.actions()) EXPECT_NE(a.at, 100);
}

TEST(Scenario, RandomChurnSameSeedSameActions) {
    const graph::Graph g = graph::make_grid(4, 4);
    Rng a(31), b(31);
    const Scenario s1 = Scenario::random_churn(g, 40, 5, 200, a, {2, 3});
    const Scenario s2 = Scenario::random_churn(g, 40, 5, 200, b, {2, 3});
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1.actions()[i].at, s2.actions()[i].at);
        EXPECT_EQ(s1.actions()[i].kind, s2.actions()[i].kind);
        EXPECT_EQ(s1.actions()[i].edge, s2.actions()[i].edge);
    }
    // And a different seed actually changes the script.
    Rng c(32);
    const Scenario s3 = Scenario::random_churn(g, 40, 5, 200, c, {2, 3});
    bool differs = false;
    for (std::size_t i = 0; i < s1.size(); ++i)
        differs |= s1.actions()[i].at != s3.actions()[i].at ||
                   s1.actions()[i].edge != s3.actions()[i].edge ||
                   s1.actions()[i].kind != s3.actions()[i].kind;
    EXPECT_TRUE(differs);
}

TEST(Scenario, RandomChurnHealedLeavesEveryLinkActive) {
    // The property heal_all guarantees, checked against the network truth
    // (not just the action list): after schedule + run, every link is up,
    // protected links included (they were never touched at all).
    const graph::Graph g = graph::make_cycle(10);
    const std::vector<EdgeId> protect{0, 4};
    Rng chaos(91);
    Scenario s = Scenario::random_churn(g, 30, 10, 400, chaos, protect);
    s.heal_all(450);
    ParallelCluster c(g, [](NodeId) { return std::make_unique<Idle>(); });
    c.schedule(s);
    c.run();
    for (EdgeId e = 0; e < g.edge_count(); ++e)
        EXPECT_TRUE(c.mirror(0).link_active(e)) << "edge " << e;
}

TEST(Scenario, HealAllIsIdempotent) {
    Rng chaos(17);
    const graph::Graph g = graph::make_cycle(6);
    Scenario s = Scenario::random_churn(g, 12, 0, 100, chaos);
    s.heal_all(200);
    const std::size_t after_first = s.size();
    // Every link's last action is now a restore, so a second heal pass
    // must add nothing.
    s.heal_all(300);
    EXPECT_EQ(s.size(), after_first);
}

TEST(Scenario, RandomChurnThrowsWhenEveryEdgeIsProtected) {
    // Regression: this used to rejection-sample forever. An impossible
    // request must fail loudly instead of hanging the harness.
    Rng rng(1);
    const graph::Graph g = graph::make_path(3);  // edges 0, 1
    EXPECT_THROW(Scenario::random_churn(g, 5, 0, 100, rng, {0, 1}), ContractViolation);
    ChurnSpec spec;
    spec.node_events = 5;
    spec.to = 100;
    spec.protect_nodes = {0, 1, 2};
    EXPECT_THROW(Scenario::random_churn(g, spec, rng), ContractViolation);
}

TEST(Scenario, ChurnSpecNodeEventsAreCrashRestartAndRespectProtection) {
    Rng rng(23);
    const graph::Graph g = graph::make_cycle(8);
    ChurnSpec spec;
    spec.node_events = 40;
    spec.from = 10;
    spec.to = 300;
    spec.protect_nodes = {0, 5};
    const Scenario s = Scenario::random_churn(g, spec, rng);
    EXPECT_EQ(s.size(), 40u);
    bool saw_crash = false;
    bool saw_restart = false;
    for (const auto& a : s.actions()) {
        ASSERT_TRUE(a.kind == ScenarioAction::Kind::kCrashNode ||
                    a.kind == ScenarioAction::Kind::kRestartNode);
        saw_crash |= a.kind == ScenarioAction::Kind::kCrashNode;
        saw_restart |= a.kind == ScenarioAction::Kind::kRestartNode;
        EXPECT_NE(a.node, NodeId{0});
        EXPECT_NE(a.node, NodeId{5});
        EXPECT_GE(a.at, 10);
        EXPECT_LE(a.at, 300);
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_restart);
}

TEST(Scenario, ChurnSpecSoftModeEmitsLinkLayerNodeEvents) {
    Rng rng(7);
    const graph::Graph g = graph::make_cycle(6);
    ChurnSpec spec;
    spec.node_events = 12;
    spec.to = 100;
    spec.crash_nodes = false;
    const Scenario s = Scenario::random_churn(g, spec, rng);
    for (const auto& a : s.actions())
        ASSERT_TRUE(a.kind == ScenarioAction::Kind::kFailNode ||
                    a.kind == ScenarioAction::Kind::kRestoreNode);
}

TEST(Scenario, LastActionAt) {
    EXPECT_EQ(Scenario().last_action_at(), 0);
    Scenario s;
    s.fail_link(120, 0).crash_node(40, 1).stall_node(80, 2, 5);
    EXPECT_EQ(s.last_action_at(), 120);
}

TEST(Scenario, HealAllCoversNodesAndStalls) {
    Scenario s;
    s.fail_node(10, 1)        // left failed -> needs restore
        .crash_node(20, 2)    // left crashed -> needs restart
        .crash_node(30, 3)
        .restart_node(40, 3)  // already recovered -> nothing to add
        .stall_node(50, 4, 9) // left stalled -> needs a stall-clear
        .stall_node(60, 5, 9)
        .stall_node(70, 5, 0);  // already cleared -> nothing to add
    s.heal_all(100);
    unsigned restores = 0, restarts = 0, clears = 0;
    for (const auto& a : s.actions()) {
        if (a.at != 100) continue;
        switch (a.kind) {
            case ScenarioAction::Kind::kRestoreNode:
                ++restores;
                EXPECT_EQ(a.node, NodeId{1});
                break;
            case ScenarioAction::Kind::kRestartNode:
                ++restarts;
                EXPECT_EQ(a.node, NodeId{2});
                break;
            case ScenarioAction::Kind::kStallNode:
                ++clears;
                EXPECT_EQ(a.node, NodeId{4});
                EXPECT_EQ(a.amount, 0);
                break;
            default:
                ADD_FAILURE() << "unexpected heal action kind";
        }
    }
    EXPECT_EQ(restores, 1u);
    EXPECT_EQ(restarts, 1u);
    EXPECT_EQ(clears, 1u);
}

TEST(Scenario, NodeChurnHealedLeavesEveryNodeLive) {
    // heal_all's node guarantee against the cluster truth: after a healed
    // crash/restart churn nothing is left crashed, failed or stalled.
    const graph::Graph g = graph::make_cycle(8);
    ChurnSpec spec;
    spec.link_events = 10;
    spec.node_events = 14;
    spec.from = 10;
    spec.to = 400;
    Rng chaos(41);
    Scenario s = Scenario::random_churn(g, spec, chaos);
    s.heal_all(450);
    ParallelCluster c(g, [](NodeId) { return std::make_unique<Idle>(); });
    c.schedule(s);
    c.run();
    for (NodeId u = 0; u < g.node_count(); ++u) {
        EXPECT_FALSE(c.crashed(u)) << "node " << u;
        EXPECT_FALSE(c.mirror(0).node_failed(u)) << "node " << u;
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e)
        EXPECT_TRUE(c.mirror(0).link_active(e)) << "edge " << e;
}

TEST(Scenario, ChaosChurnThenHealConvergesMaintenance) {
    // End-to-end chaos test: random churn over a ring, healed at t=600,
    // maintenance keeps broadcasting — Theorem 1 requires convergence.
    Rng rng(11);
    const graph::Graph g = graph::make_cycle(12);
    topo::TopologyOptions opt;
    opt.rounds = 24;
    opt.period = 50;
    ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), opt));
    c.start_all(0);
    Rng chaos(77);
    Scenario s = Scenario::random_churn(g, 25, 20, 550, chaos);
    s.heal_all(600);
    c.schedule(s);
    c.run();
    EXPECT_TRUE(topo::all_views_converged(c));
    for (EdgeId e = 0; e < g.edge_count(); ++e) EXPECT_TRUE(c.mirror(0).link_active(e));
}

}  // namespace
}  // namespace fastnet::node
