// Cross-module integration: the paper's pieces composed into pipelines
// a real network control plane would run.
//
//  1. elect a leader (Section 4), then broadcast over the leader's own
//     INOUT spanning tree with the Section 3 branching-paths planner;
//  2. run topology maintenance until convergence, then source-route a
//     direct message using only one node's learned database;
//  3. elect a leader, then let it orchestrate an optimal Section 5
//     gather tree for the measured (C, P).
#include <gtest/gtest.h>

#include "fastnet.hpp"

namespace fastnet {
namespace {

TEST(Integration, ElectionYieldsABroadcastReadySpanningTree) {
    Rng rng(1);
    const graph::Graph g = graph::make_random_connected(48, 2, 10, rng);

    // Phase 1: election.
    node::ParallelCluster c(g, [](NodeId) { return std::make_unique<elect::ElectionProtocol>(); });
    c.start_all(0);
    c.run();
    NodeId leader = kNoNode;
    for (NodeId u = 0; u < g.node_count(); ++u)
        if (c.protocol_as<elect::ElectionProtocol>(u).role() == elect::Role::kLeader)
            leader = u;
    ASSERT_NE(leader, kNoNode);

    // Phase 2: the leader's domain tree is a spanning subgraph...
    const auto& p = c.protocol_as<elect::ElectionProtocol>(leader);
    const graph::RootedTree tree = p.inout().to_rooted_tree(g.node_count());
    EXPECT_EQ(tree.size(), g.node_count());
    EXPECT_TRUE(tree.is_subgraph_of(g));

    // ...so the Section 3 planner can broadcast over it directly: n-1
    // system calls, log-bounded time.
    const auto plan = topo::plan_branching_paths(tree, hw::canonical_ports(g));
    EXPECT_EQ(plan.covered_nodes, g.node_count());
    EXPECT_LE(plan.time_units, 1 + floor_log2(g.node_count()));
    // And the decomposition is structurally sound on this tree.
    const auto labels = topo::label_tree(tree);
    EXPECT_TRUE(topo::valid_decomposition(tree, labels, topo::decompose_paths(tree, labels)));
}

TEST(Integration, LearnedTopologySupportsSourceRouting) {
    Rng rng(2);
    const graph::Graph g = graph::make_random_connected(24, 2, 10, rng);

    topo::TopologyOptions opt;
    opt.rounds = 8;
    node::ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), opt));
    c.start_all(0);
    c.run();
    ASSERT_TRUE(topo::all_views_converged(c));

    // Node 0 routes a packet to the farthest node using only its DB.
    const auto& db = c.protocol_as<topo::TopologyMaintenance>(0);
    const graph::BfsResult bfs = graph::bfs(g, 0);
    NodeId far = 0;
    for (NodeId u = 0; u < g.node_count(); ++u)
        if (bfs.dist[u] != graph::BfsResult::kUnreached && bfs.dist[u] > bfs.dist[far])
            far = u;
    ASSERT_NE(far, 0u);

    // Build the route from learned records: ports straight out of the DB.
    std::vector<NodeId> path;
    for (NodeId v = far; v != kNoNode; v = bfs.parent[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    hw::PortMap learned_ports = [&db](NodeId u, NodeId v) -> hw::PortId {
        for (const auto& r : db.view_of(u).links)
            if (r.neighbor == v) return r.port;
        return hw::kNoPort;
    };
    const hw::AnrHeader route = hw::route_for_path(path, learned_ports);

    // Send it on a fresh fabric of the same graph and confirm
    // single-system-call delivery.
    struct Probe final : hw::TypedPayload<Probe> {};
    struct RouteProbe final : node::Protocol {
        RouteProbe(const hw::AnrHeader* route, bool* delivered)
            : route(route), delivered(delivered) {}
        void on_start(node::Context& ctx) override {
            ctx.send(*route, std::make_shared<Probe>());
        }
        void on_message(node::Context&, const hw::Delivery& d) override {
            *delivered = hw::payload_as<Probe>(d) != nullptr;
        }
        const hw::AnrHeader* route;
        bool* delivered;
    };
    bool delivered = false;
    node::ParallelCluster probe(g, [&route, &delivered](NodeId) {
        return std::make_unique<RouteProbe>(&route, &delivered);
    });
    probe.start(0, 0);
    probe.run();
    EXPECT_TRUE(delivered);
    const cost::Metrics m = probe.merged_metrics();
    EXPECT_EQ(m.net().ncu_deliveries, 1u);
    EXPECT_EQ(m.net().hops, bfs.dist[far]);
}

TEST(Integration, LeaderOrchestratesOptimalGather) {
    // A complete "control plane" flow: elect on a complete graph, then
    // the leader plans the optimal aggregation tree for the deployment's
    // (C, P) and the cluster executes it.
    const NodeId n = 32;
    const Tick C = 2, P = 1;
    node::ParallelClusterConfig ecfg;
    ecfg.params.hop_delay = C;
    ecfg.params.ncu_delay = P;
    const auto election = elect::run_election(graph::make_complete(n), {}, {}, ecfg);
    ASSERT_TRUE(election.unique_leader);

    // The leader plans; the plan is optimal for the same model.
    const auto plan = gsf::build_optimal_tree(n, C, P);
    ModelParams params;
    params.hop_delay = C;
    params.ncu_delay = P;
    const auto gather = gsf::run_tree_gather(plan.tree, params, gsf::combine_max());
    EXPECT_TRUE(gather.correct);
    EXPECT_EQ(gather.completion, plan.predicted_time);
    // The optimal plan beats the naive star the leader might have used.
    EXPECT_LT(gather.completion,
              gsf::predicted_completion(gsf::make_star_tree(n), C, P));
}

TEST(Integration, MaintenanceThenElectionOnSurvivingComponent) {
    // Failures partition the network; maintenance converges per
    // component; an election on the survivors still elects one leader
    // per component.
    const graph::Graph g = graph::make_cycle(12);
    topo::TopologyOptions opt;
    opt.rounds = 12;
    opt.period = 32;
    node::ParallelCluster c(g, topo::make_topology_maintenance(g.node_count(), opt));
    c.start_all(0);
    c.fail_link(40, g.find_edge(0, 1));
    c.fail_link(40, g.find_edge(6, 7));
    c.run();
    ASSERT_TRUE(topo::all_views_converged(c));

    // Fresh cluster with the same failure pattern, running the election.
    node::ParallelCluster e(g, [](NodeId) { return std::make_unique<elect::ElectionProtocol>(); });
    e.fail_link(0, g.find_edge(0, 1));
    e.fail_link(0, g.find_edge(6, 7));
    e.start_all(1);
    e.run();
    int leaders = 0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const auto& p = e.protocol_as<elect::ElectionProtocol>(u);
        if (p.role() == elect::Role::kLeader) ++leaders;
        EXPECT_NE(p.role(), elect::Role::kUndecided) << u;
    }
    EXPECT_EQ(leaders, 2);  // one per surviving arc
}

TEST(Integration, LatticeContainsEveryOptimalTime) {
    // Section 5.2: optimal times always lie on the iP + jC lattice.
    for (auto [c, p] : std::vector<std::pair<Tick, Tick>>{{0, 1}, {1, 1}, {3, 2}, {5, 3}}) {
        for (std::uint64_t n : {2ull, 7ull, 50ull, 300ull}) {
            const Tick t = gsf::optimal_gather_time(n, c, p);
            const auto lattice = gsf::time_lattice(n, c, p, t);
            EXPECT_FALSE(lattice.empty());
            EXPECT_TRUE(std::find(lattice.begin(), lattice.end(), t) != lattice.end())
                << "C=" << c << " P=" << p << " n=" << n << " t=" << t;
            // ... and the lattice is quadratically bounded, as claimed.
            EXPECT_LE(lattice.size(), (n + 1) * (n + 1));
        }
    }
}

}  // namespace
}  // namespace fastnet
