// Theorem 1 (eventual consistency) and the Section 3 non-convergence
// example, exercised end-to-end through the maintenance protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "fnv1a.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/trace_export.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet::topo {
namespace {

using graph::Graph;
using test_util::fnv1a;

node::ParallelCluster make_cluster(const Graph& g, TopologyOptions opt,
                                   node::ParallelClusterConfig cfg = {}) {
    return node::ParallelCluster(g, make_topology_maintenance(g.node_count(), opt), cfg);
}

TEST(TopologyMaintenance, StaticNetworkConvergesQuickly) {
    Rng rng(1);
    const Graph g = graph::make_random_connected(20, 2, 10, rng);
    TopologyOptions opt;
    opt.rounds = 6;  // O(d) rounds suffice; d is small here
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    c.run();
    EXPECT_TRUE(all_views_converged(c));
}

TEST(TopologyMaintenance, RingNeedsAboutDiameterRounds) {
    const Graph g = graph::make_cycle(16);  // diameter 8
    TopologyOptions opt;
    opt.rounds = 3;
    node::ParallelCluster few = make_cluster(g, opt);
    few.start_all(0);
    few.run();
    EXPECT_FALSE(all_views_converged(few)) << "3 rounds cannot cover diameter 8";

    opt.rounds = 10;
    node::ParallelCluster enough = make_cluster(g, opt);
    enough.start_all(0);
    enough.run();
    EXPECT_TRUE(all_views_converged(enough));
}

TEST(TopologyMaintenance, FullKnowledgeModeConvergesInLogRounds) {
    // The comment after Theorem 1: broadcasting everything known halves
    // the rounds to O(log d).
    const Graph g = graph::make_cycle(32);  // diameter 16
    TopologyOptions opt;
    opt.full_knowledge = true;
    opt.rounds = 6;  // ~ 1 + log2(16)
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    c.run();
    EXPECT_TRUE(all_views_converged(c));
}

TEST(TopologyMaintenance, LocalModeSlowerThanFullKnowledgeOnRing) {
    const Graph g = graph::make_cycle(32);
    TopologyOptions local;
    local.rounds = 6;
    node::ParallelCluster c = make_cluster(g, local);
    c.start_all(0);
    c.run();
    EXPECT_FALSE(all_views_converged(c));
}

TEST(TopologyMaintenance, ConvergesAfterSingleFailure) {
    Rng rng(9);
    const Graph g = graph::make_random_connected(16, 3, 10, rng);
    TopologyOptions opt;
    opt.rounds = 12;
    opt.period = 64;
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    // Fail one non-cut edge mid-run.
    c.fail_link(100, 2);
    c.run();
    EXPECT_TRUE(all_views_converged(c));
}

TEST(TopologyMaintenance, ConvergesPerComponentAfterPartition) {
    // Path 0-1-2-3: cutting (1,2) splits into {0,1} and {2,3}; each side
    // must converge on its own component.
    const Graph g = graph::make_path(4);
    TopologyOptions opt;
    opt.rounds = 10;
    opt.period = 32;
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    c.fail_link(50, g.find_edge(1, 2));
    c.run();
    EXPECT_TRUE(all_views_converged(c));
}

TEST(TopologyMaintenance, ConvergesUnderFailureBurstThenQuiesce) {
    Rng rng(31);
    const Graph g = graph::make_random_connected(18, 4, 10, rng);
    TopologyOptions opt;
    opt.rounds = 20;
    opt.period = 50;
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    // Random fail/restore burst during the first rounds; quiet afterwards.
    Rng chaos(99);
    for (int i = 0; i < 10; ++i) {
        const Tick at = 20 + static_cast<Tick>(chaos.below(200));
        const EdgeId e = static_cast<EdgeId>(chaos.below(g.edge_count()));
        const bool fail = chaos.chance(1, 2);
        if (fail)
            c.fail_link(at, e);
        else
            c.restore_link(at, e);
    }
    c.run();
    EXPECT_TRUE(all_views_converged(c));
}

/// Builds the paper's Section 3 deadlock scenario: run the DFS-token (or
/// other) scheme on the healthy 6-node example until views converge,
/// then fail all three pendant edges at once and keep broadcasting.
std::unique_ptr<node::ParallelCluster> run_podc_deadlock_scenario(TopologyOptions opt) {
    const Graph g = graph::make_podc_example();
    // Each triangle node's tour dives into the *next* triangle node's
    // (dead) pendant branch first — the paper's adversarial path choice.
    opt.dfs_preference = {{1}, {2}, {0}, {}, {}, {}};
    opt.period = 64;
    auto c = std::make_unique<node::ParallelCluster>(
        g, make_topology_maintenance(g.node_count(), opt));
    c->start_all(0);
    // Rounds happen roughly every `period`; after four of them the
    // healthy network (diameter 3) has converged. Fail the pendants
    // between rounds.
    c->fail_link(300, g.find_edge(0, 3));
    c->fail_link(300, g.find_edge(1, 4));
    c->fail_link(300, g.find_edge(2, 5));
    c->run();
    return c;
}

TEST(TopologyMaintenance, PaperExampleDfsDeadlocksForever) {
    // With local-topology payloads and the adversarial tours, u only
    // ever hears w, v only hears u, w only hears v — the dead pendant
    // links are never learned. No convergence, ever (Section 3 example).
    TopologyOptions opt;
    opt.scheme = BroadcastScheme::kDfsToken;
    opt.rounds = 40;  // "forever" for test purposes
    auto c = run_podc_deadlock_scenario(opt);
    EXPECT_FALSE(all_views_converged(*c));
    // The deadlock is specific: node 0 never learns that (1,4) is down.
    const auto& p0 = c->protocol_as<TopologyMaintenance>(0);
    const auto view = p0.active_view();
    const bool thinks_14_alive =
        std::find(view.begin(), view.end(), std::make_pair(NodeId{1}, NodeId{4})) != view.end();
    EXPECT_TRUE(thinks_14_alive);
}

TEST(TopologyMaintenance, PaperExampleBranchingPathsConverges) {
    // Same failure pattern, same adversarial setting — the one-way
    // branching-paths broadcast converges (Theorem 1).
    TopologyOptions opt;
    opt.scheme = BroadcastScheme::kBranchingPaths;
    opt.rounds = 12;
    auto c = run_podc_deadlock_scenario(opt);
    EXPECT_TRUE(all_views_converged(*c));
}

TEST(TopologyMaintenance, PaperExampleFullKnowledgeRescuesDfs) {
    // Ablation: with full-knowledge payloads the relayed third-party
    // topologies break the deadlock cycle even under the DFS scheme.
    TopologyOptions opt;
    opt.scheme = BroadcastScheme::kDfsToken;
    opt.full_knowledge = true;
    opt.rounds = 40;
    auto c = run_podc_deadlock_scenario(opt);
    EXPECT_TRUE(all_views_converged(*c));
}

TEST(TopologyMaintenance, SystemCallsPerRoundAreLinear) {
    // On a diameter-2 graph: round 1 trees span only the (sole-known)
    // local stars, costing deg(i) receptions each, i.e. 2m in total;
    // from round 2 on every tree spans all n nodes and a full sweep
    // costs exactly n(n-1) — the paper's O(n) per broadcast, compared
    // with flooding's O(m).
    Rng rng(13);
    const Graph g = graph::make_random_connected(24, 5, 10, rng);  // dense
    ASSERT_EQ(graph::diameter(g), 2u);
    TopologyOptions opt;
    opt.rounds = 2;
    opt.period = 64;
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    c.run();
    const auto n = static_cast<std::uint64_t>(g.node_count());
    const auto m = static_cast<std::uint64_t>(g.edge_count());
    EXPECT_EQ(c.merged_metrics().total_message_system_calls(), 2 * m + n * (n - 1));
}

TEST(TopologyMaintenance, KnowledgeRadiusGrowsOnePerRound) {
    // The comment after Theorem 1: "a node's topology knowledge covers
    // at least a distance k just before its k-th broadcast". After r
    // full rounds on a path, a node knows every topology within r hops.
    const Graph g = graph::make_path(12);
    for (unsigned rounds : {1u, 2u, 4u}) {
        TopologyOptions opt;
        opt.rounds = rounds;
        opt.period = 64;
        node::ParallelCluster c = make_cluster(g, opt);
        c.start_all(0);
        c.run();
        const auto& p0 = c.protocol_as<TopologyMaintenance>(0);
        for (NodeId u = 1; u <= rounds && u < g.node_count(); ++u)
            EXPECT_TRUE(p0.view_of(u).known) << "rounds=" << rounds << " u=" << u;
        // And the frontier is tight on a path: distance rounds+1 is
        // still unknown.
        if (rounds + 1 < g.node_count()) {
            EXPECT_FALSE(p0.view_of(rounds + 1).known) << rounds;
        }
    }
}

TEST(TopologyMaintenance, RouteToUsesLearnedView) {
    const Graph g = graph::make_cycle(10);
    TopologyOptions opt;
    opt.rounds = 8;
    node::ParallelCluster c = make_cluster(g, opt);
    c.start_all(0);
    c.run();
    const auto& p = c.protocol_as<TopologyMaintenance>(0);
    const auto route = p.route_to(0, 5);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->size(), 6u);  // 5 min-hops + NCU label
    EXPECT_FALSE(p.route_to(0, 0)->empty());
}

TEST(TopologyMaintenance, IsolatedNodeStaysQuietAndSelfConsistent) {
    const Graph g = graph::make_star(4);
    TopologyOptions opt;
    opt.rounds = 5;
    opt.period = 16;
    node::ParallelCluster c = make_cluster(g, opt);
    c.fail_node(0, 3);
    c.start_all(4);
    c.run();
    // Node 3 is its own component and knows its links are down.
    EXPECT_TRUE(view_converged(c.protocol_as<TopologyMaintenance>(3), c.mirror(0), 3));
    // The rest converge among themselves.
    EXPECT_TRUE(all_views_converged(c));
}

/// A seeded 64-node maintenance storm with one link flap on the sharded
/// kernel at one shard, traced: the P1 storm's shape at toy size.
std::unique_ptr<node::ParallelCluster> make_pinned_storm() {
    constexpr NodeId kNodes = 64;
    Rng rng(1988);
    Graph g = graph::make_random_connected(kNodes, 2, 7, rng);
    TopologyOptions opt;
    opt.period = 64;
    opt.rounds = 4;
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 1;
    cfg.seed = 7919;
    cfg.shards = 1;
    cfg.trace_capacity = std::size_t{1} << 18;
    auto c = std::make_unique<node::ParallelCluster>(
        std::move(g), make_topology_maintenance(kNodes, opt), cfg);
    c->start_all(0);
    c->fail_link(70, 0);
    c->restore_link(130, 0);
    return c;
}

TEST(TopologyMaintenance, PinnedStormScheduleAndTrace) {
    // Pinned values: a change to how topology records are stored or
    // relayed must not move the schedule, the hardware counters or a
    // single traced byte.
    auto c = make_pinned_storm();
    const Tick completion = c->run();
    ASSERT_EQ(c->trace_dropped(), 0u) << "ring too small for a complete trace";
    const cost::NetCounters net = c->merged_metrics().net();
    const std::string trace = obs::canonical_trace_json(
        c->merged_trace(), obs::make_meta(c->graph(), "pinned_storm"),
        c->trace_total_recorded(), c->trace_dropped(), c->trace_detail_dropped());
    EXPECT_EQ(completion, 262);
    EXPECT_EQ(net.hops, 13328u);
    EXPECT_EQ(net.ncu_deliveries, 13328u);
    EXPECT_EQ(net.header_bits, 83100u);
    EXPECT_EQ(fnv1a(trace), 3072120583495677042ULL);
}

TEST(TopologyMaintenance, NodesShareOneSnapshotPerOwnerAndSeq) {
    // Merges keep the received snapshot and relays forward the received
    // payload, so every (owner, seq) exists once however many databases
    // hold it.
    auto c = make_pinned_storm();
    c->run();
    const NodeId n = c->node_count();
    std::size_t shared = 0;
    for (NodeId w = 0; w < n; ++w) {
        std::map<std::uint64_t, const LocalTopology*> holder;
        for (NodeId u = 0; u < n; ++u) {
            if (u == w) continue;
            const LocalTopology& view = c->protocol_as<TopologyMaintenance>(u).view_of(w);
            if (!view.known) continue;
            const auto [it, first] = holder.emplace(view.seq, &view);
            if (first) continue;
            EXPECT_EQ(it->second, &view) << "owner " << w << " seq " << view.seq << " at " << u;
            ++shared;
        }
    }
    EXPECT_GT(shared, std::size_t{n} * (n - 2) / 2) << "most views should be shared";
}

TEST(TopologyMaintenance, MemoryCountsEachSnapshotOnce) {
    // A node's figure is its slot array plus its own current record;
    // records learned from others are counted at their owner. The
    // cluster total grows as n^2 pointers, not n^2 records.
    auto c = make_pinned_storm();
    c->run();
    const NodeId n = c->node_count();
    std::size_t total = 0;
    std::size_t per_copy = 0;  // every known record counted at every holder
    for (NodeId u = 0; u < n; ++u) {
        const auto& p = c->protocol_as<TopologyMaintenance>(u);
        const std::size_t own =
            sizeof(LocalTopology) + c->graph().degree(u) * sizeof(NeighborRecord);
        EXPECT_EQ(p.memory_bytes(),
                  sizeof(TopologyMaintenance) + n * sizeof(TopologySnapshot) + own)
            << "node " << u;
        total += p.memory_bytes();
        for (NodeId w = 0; w < n; ++w) {
            const LocalTopology& view = p.view_of(w);
            if (view.known)
                per_copy += sizeof(LocalTopology) + view.links.size() * sizeof(NeighborRecord);
        }
    }
    EXPECT_LT(total * 10, per_copy) << "learned records must not be counted per holder";
}


/// The usable-view BFS spelled out over view_of(): expand known nodes
/// only, and take a link when its owner reports it active and its far
/// side, if known, has a record back to the owner that is active too.
/// Ports come from the owner's record, else from the far side's.
std::optional<hw::AnrHeader> reference_route(const TopologyMaintenance& p, NodeId n,
                                             NodeId self, NodeId dst) {
    if (self == dst) return hw::AnrHeader{hw::AnrLabel::normal(hw::kNcuPort)};
    const auto record = [&p](NodeId owner, NodeId neighbor) -> const NeighborRecord* {
        for (const NeighborRecord& r : p.view_of(owner).links)
            if (r.neighbor == neighbor) return &r;
        return nullptr;
    };
    std::vector<NodeId> parent(n, kNoNode);
    std::vector<bool> seen(n, false);
    std::vector<NodeId> queue{self};
    seen[self] = true;
    for (std::size_t h = 0; h < queue.size(); ++h) {
        const NodeId u = queue[h];
        for (const NeighborRecord& r : p.view_of(u).links) {
            if (!r.active || r.neighbor >= n || seen[r.neighbor]) continue;
            if (p.view_of(r.neighbor).known) {
                const NeighborRecord* back = record(r.neighbor, u);
                if (back == nullptr || !back->active) continue;
            }
            seen[r.neighbor] = true;
            parent[r.neighbor] = u;
            queue.push_back(r.neighbor);
        }
    }
    if (!seen[dst]) return std::nullopt;
    std::vector<NodeId> path{dst};
    while (path.back() != self) path.push_back(parent[path.back()]);
    std::reverse(path.begin(), path.end());
    hw::AnrHeader h;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const NodeId u = path[i], v = path[i + 1];
        const NeighborRecord* r = record(u, v);
        h.push_back(hw::AnrLabel::normal(r != nullptr ? r->port : record(v, u)->far_port));
    }
    h.push_back(hw::AnrLabel::normal(hw::kNcuPort));
    return h;
}

TEST(TopologyMaintenance, RouteToMatchesReferenceOnPartialAndStaleViews) {
    // Mid-storm views: stop a flapping storm at several instants and
    // check every node's route to every node against the reference BFS.
    // The instants are chosen so that views hold links whose far side is
    // still unknown and links whose endpoints' snapshots disagree (one
    // reports the link down, the other up) — the two cases where the
    // far-side lookup decides.
    constexpr NodeId kNodes = 48;
    Rng rng(1988);
    const Graph g = graph::make_random_connected(kNodes, 3, 40, rng);
    TopologyOptions opt;
    opt.period = 64;
    opt.rounds = 6;
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 1;
    node::ParallelCluster c = make_cluster(g, opt, cfg);
    c.start_all(0);
    for (EdgeId e = 0; e < 6; ++e) {
        c.fail_link(90 + 7 * static_cast<Tick>(e), e);
        c.restore_link(200 + 5 * static_cast<Tick>(e), e);
    }
    std::size_t unknown_far = 0, disagreeing = 0, routes = 0;
    for (Tick until : {20, 40, 100, 140, 210, 250}) {
        c.run_until(until);
        for (NodeId w = 0; w < kNodes; ++w) {
            const auto& p = c.protocol_as<TopologyMaintenance>(w);
            for (NodeId u = 0; u < kNodes; ++u) {
                for (const NeighborRecord& r : p.view_of(u).links) {
                    if (!p.view_of(r.neighbor).known) {
                        ++unknown_far;
                        continue;
                    }
                    for (const NeighborRecord& b : p.view_of(r.neighbor).links)
                        if (b.neighbor == u && b.active != r.active) ++disagreeing;
                }
            }
            for (NodeId dst = 0; dst < kNodes; ++dst) {
                const auto got = p.route_to(w, dst);
                const auto want = reference_route(p, kNodes, w, dst);
                ASSERT_EQ(got.has_value(), want.has_value()) << w << " -> " << dst << " @" << until;
                if (got) {
                    ++routes;
                    EXPECT_TRUE(*got == *want) << w << " -> " << dst << " @" << until;
                }
            }
        }
    }
    EXPECT_GT(unknown_far, 0u) << "no view held a link with an unknown far side";
    EXPECT_GT(disagreeing, 0u) << "no view held a link its endpoints disagree on";
    EXPECT_GT(routes, std::size_t{kNodes} * kNodes);
}

/// Builds a two-record view by hand: node 0 with rounds = 0 learns
/// node 1's and node 2's snapshots from one crafted message.
struct ScriptedContext final : node::Context {
    NodeId id = 0;
    ModelParams model;
    std::vector<node::LocalLink> local;
    Rng random{1};
    NodeId self() const override { return id; }
    Tick now() const override { return 0; }
    const ModelParams& params() const override { return model; }
    std::span<const node::LocalLink> links() const override { return local; }
    void send(const hw::AnrHeader&, std::shared_ptr<const hw::Payload>) override {
        ADD_FAILURE();
    }
    void send(const hw::Route&, std::shared_ptr<const hw::Payload>) override { ADD_FAILURE(); }
    void reply(const hw::Delivery&, std::shared_ptr<const hw::Payload>) override {
        ADD_FAILURE();
    }
    node::TimerId set_timer(Tick, std::uint64_t) override { return 0; }
    void cancel_timer(node::TimerId) override {}
    Rng& rng() override { return random; }
};

TEST(TopologyMaintenance, KnownTreeChecksTheFarSideRecord) {
    // Triangle 0-1-2 plus pendant 3 on node 2. Node 0's own record has
    // every link up; node 1 reports 1-2 down while node 2 reports it up,
    // and node 3 is unknown. The tree from 0 must reach 1 and 2 directly,
    // never use 1-2, and reach 3 through 2 as a leaf.
    graph::GraphBuilder b(4);
    b.add_edge(0, 1);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    const Graph g = std::move(b).build();
    const hw::PortMap ports = hw::canonical_ports(g);
    const auto snapshot = [&](NodeId u, std::uint64_t seq, EdgeId down) {
        auto t = std::make_shared<LocalTopology>();
        t->known = true;
        t->seq = seq;
        for (const graph::IncidentEdge& ie : g.incident(u))
            t->links.push_back(NeighborRecord{ie.neighbor, ports(u, ie.neighbor),
                                              ports(ie.neighbor, u), ie.edge != down});
        return TopologySnapshot(std::move(t));
    };
    TopologyOptions opt;
    opt.rounds = 0;
    TopologyMaintenance p(4, opt);
    ScriptedContext ctx;
    for (const graph::IncidentEdge& ie : g.incident(0))
        ctx.local.push_back(node::LocalLink{ie.edge, ie.neighbor, ports(0, ie.neighbor),
                                            ports(ie.neighbor, 0), true});
    p.on_start(ctx);
    const hw::Delivery d = [&] {
        auto msg = std::make_shared<TopologyMessage>();
        msg->origin = 1;
        msg->seq = 1;
        msg->topologies.emplace_back(1, snapshot(1, 1, g.find_edge(1, 2)));
        msg->topologies.emplace_back(2, snapshot(2, 1, kNoEdge));
        auto plan = std::make_shared<BroadcastPlan>(plan_direct_unicast(
            graph::RootedTree(1, std::vector<NodeId>(4, kNoNode)), ports));
        msg->plan = std::move(plan);
        hw::Delivery out;
        out.at = 0;
        out.payload = std::move(msg);
        return out;
    }();
    p.on_message(ctx, d);
    ASSERT_TRUE(p.view_of(1).known && p.view_of(2).known && !p.view_of(3).known);

    const auto hops = [&](NodeId dst) { return p.route_to(0, dst)->size() - 1; };
    EXPECT_EQ(hops(1), 1u);
    EXPECT_EQ(hops(2), 1u);
    EXPECT_EQ(hops(3), 2u);
    for (NodeId dst = 0; dst < 4; ++dst)
        EXPECT_TRUE(*p.route_to(0, dst) == *reference_route(p, 4, 0, dst)) << dst;
    // From 1's side the link it reports down is unusable; 2's report
    // alone would not make it usable either.
    EXPECT_EQ(p.route_to(1, 2)->size() - 1, 2u);
    EXPECT_EQ(p.route_to(2, 1)->size() - 1, 2u);
    EXPECT_EQ(p.active_view(),
              (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}, {2, 3}}));
}

}  // namespace
}  // namespace fastnet::topo
