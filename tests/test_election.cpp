// End-to-end tests of the Section 4 election: Theorem 4 (exactly one
// leader), Theorem 5 (<= 6n system calls) and the supporting lemmas.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fnv1a.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "election/election.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/trace_export.hpp"

namespace fastnet::elect {
namespace {

using graph::Graph;
using test_util::fnv1a;

TEST(Election, SingleNodeElectsItself) {
    const auto out = run_election(graph::make_path(1));
    EXPECT_TRUE(out.unique_leader);
    EXPECT_EQ(out.leader, 0u);
    EXPECT_TRUE(out.all_decided);
    EXPECT_EQ(out.election_messages, 0u);
}

TEST(Election, TwoNodes) {
    const auto out = run_election(graph::make_path(2));
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
}

TEST(Election, Triangle) {
    const auto out = run_election(graph::make_cycle(3));
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
}

TEST(Election, PaperExampleGraph) {
    const auto out = run_election(graph::make_podc_example());
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
    EXPECT_LE(out.election_messages, 6ull * 6);
}

TEST(Election, SingleInitiatorStillElectsAndInformsAll) {
    Rng rng(2);
    const Graph g = graph::make_random_connected(30, 2, 10, rng);
    const auto out = run_election(g, {}, /*initiators=*/{17});
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
}

TEST(Election, StaggeredStartsStillUnique) {
    Rng rng(3);
    const Graph g = graph::make_random_connected(40, 2, 10, rng);
    const auto out = run_election(g, {}, {}, {}, /*stagger=*/7);
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
}

TEST(Election, Theorem5SixNBoundOnManyTopologies) {
    struct Case {
        const char* name;
        Graph g;
    };
    Rng rng(10);
    std::vector<Case> cases;
    cases.push_back({"path64", graph::make_path(64)});
    cases.push_back({"cycle65", graph::make_cycle(65)});
    cases.push_back({"star64", graph::make_star(64)});
    cases.push_back({"complete32", graph::make_complete(32)});
    cases.push_back({"grid8x8", graph::make_grid(8, 8)});
    cases.push_back({"hypercube6", graph::make_hypercube(6)});
    cases.push_back({"tree100", graph::make_random_tree(100, rng)});
    cases.push_back({"sparse100", graph::make_random_connected(100, 1, 50, rng)});
    ElectionOptions opt;
    opt.announce = false;
    for (auto& c : cases) {
        const auto out = run_election(c.g, opt);
        EXPECT_TRUE(out.unique_leader) << c.name;
        EXPECT_LE(out.election_messages, 6ull * c.g.node_count()) << c.name;
    }
}

TEST(Election, Lemma6DomainCountPerPhase) {
    // At most n / 2^p captures can happen at phase p (a capture at phase
    // p is performed by a domain of size >= 2^p, and a node joins at most
    // one domain per phase).
    Rng rng(21);
    const Graph g = graph::make_random_connected(128, 1, 30, rng);
    const auto out = run_election(g);
    for (std::size_t p = 0; p < out.captures_by_phase.size(); ++p)
        EXPECT_LE(out.captures_by_phase[p], 128ull >> p) << "phase " << p;
}

TEST(Election, TimeIsLinearInN) {
    // O(n) time units (P = 1, C = 0): generous constant-factor check.
    for (NodeId n : {16u, 64u, 128u}) {
        Rng rng(n);
        const Graph g = graph::make_random_connected(n, 1, 20, rng);
        const auto out = run_election(g);
        EXPECT_TRUE(out.unique_leader);
        EXPECT_LE(out.cost.completion_time, 20ll * n) << n;
    }
}

TEST(Election, HeaderLengthsStayLinear) {
    // Every ANR header ever injected stays <= 2n + O(1) labels — the
    // paper's "linear length ANR" requirement (splice of two
    // tree routes).
    for (NodeId n : {20u, 60u}) {
        Rng rng(n + 1);
        const Graph g = graph::make_random_connected(n, 1, 10, rng);
        const auto out = run_election(g);
        EXPECT_TRUE(out.unique_leader);
        EXPECT_LE(out.cost.max_header_len, 2ull * n + 2) << n;
    }
}

TEST(Election, WorksUnderHardwareDelays) {
    Rng rng(5);
    const Graph g = graph::make_random_connected(30, 2, 10, rng);
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 3;  // C = 3, P = 1
    const auto out = run_election(g, {}, {}, cfg);
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
}

TEST(Election, WorksUnderRandomizedDelays) {
    Rng rng(6);
    const Graph g = graph::make_random_connected(25, 2, 10, rng);
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 8;
    cfg.params.ncu_delay = 5;
    cfg.net.hop_delay_min = 0;
    cfg.ncu_delay_min = 1;
    cfg.seed = 1234;
    const auto out = run_election(g, {}, {}, cfg);
    EXPECT_TRUE(out.unique_leader);
    EXPECT_TRUE(out.all_decided);
}

TEST(Election, DisconnectedGraphElectsPerComponent) {
    const Graph g = graph::disjoint_union(graph::make_cycle(5), graph::make_path(4));
    node::ParallelCluster cluster(g, [](NodeId) { return std::make_unique<ElectionProtocol>(); });
    cluster.start_all(0);
    cluster.run();
    int leaders_left = 0, leaders_right = 0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const auto& p = cluster.protocol_as<ElectionProtocol>(u);
        EXPECT_NE(p.role(), Role::kUndecided) << u;
        if (p.role() == Role::kLeader) (u < 5 ? leaders_left : leaders_right) += 1;
    }
    EXPECT_EQ(leaders_left, 1);
    EXPECT_EQ(leaders_right, 1);
}

TEST(Election, EveryNodeLearnsTheSameLeader) {
    Rng rng(9);
    const Graph g = graph::make_random_connected(40, 2, 10, rng);
    node::ParallelCluster cluster(g, [](NodeId) { return std::make_unique<ElectionProtocol>(); });
    cluster.start_all(0);
    cluster.run();
    NodeId leader = kNoNode;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const auto& p = cluster.protocol_as<ElectionProtocol>(u);
        ASSERT_NE(p.known_leader(), kNoNode) << u;
        if (leader == kNoNode) leader = p.known_leader();
        EXPECT_EQ(p.known_leader(), leader) << u;
    }
}

TEST(Election, LeaderDomainSpansComponent) {
    Rng rng(11);
    const Graph g = graph::make_random_connected(35, 2, 10, rng);
    node::ParallelCluster cluster(g, [](NodeId) { return std::make_unique<ElectionProtocol>(); });
    cluster.start_all(0);
    cluster.run();
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const auto& p = cluster.protocol_as<ElectionProtocol>(u);
        if (p.role() == Role::kLeader) {
            EXPECT_EQ(p.domain_size(), g.node_count());
            EXPECT_EQ(p.inout().in_count(), g.node_count());
            EXPECT_EQ(p.inout().out_count(), 0u);
        }
    }
}

// ---- pinned schedule -----------------------------------------------------

TEST(Election, PinnedScheduleAndTrace) {
    // Pinned values: a change to how the INOUT tree is stored or merged
    // must not move the schedule, the hardware counters, the leaders or
    // a single traced byte. Three seeded sparse components in one
    // network on the sharded kernel at one shard, traced: the
    // election_cgk benchmark's shape at toy size.
    constexpr NodeId kPerComponent = 48;
    constexpr unsigned kComponents = 3;
    Rng rng(1988);
    Graph g = graph::make_random_connected(kPerComponent, 4, kPerComponent, rng);
    for (unsigned k = 1; k < kComponents; ++k)
        g = graph::disjoint_union(
            g, graph::make_random_connected(kPerComponent, 4, kPerComponent, rng));
    node::ParallelClusterConfig cfg;
    cfg.seed = 7919;
    cfg.shards = 1;
    cfg.trace_capacity = std::size_t{1} << 18;
    node::ParallelCluster c(
        std::move(g), [](NodeId) { return std::make_unique<ElectionProtocol>(); }, cfg);
    c.start_all(0);
    const Tick completion = c.run();
    ASSERT_EQ(c.trace_dropped(), 0u) << "ring too small for a complete trace";

    std::vector<NodeId> leaders;
    for (NodeId u = 0; u < c.node_count(); ++u)
        if (c.protocol_as<ElectionProtocol>(u).role() == Role::kLeader) leaders.push_back(u);
    const cost::NetCounters net = c.merged_metrics().net();
    const std::string trace = obs::canonical_trace_json(
        c.merged_trace(), obs::make_meta(c.graph(), "pinned_election"),
        c.trace_total_recorded(), c.trace_dropped(), c.trace_detail_dropped());
    EXPECT_EQ(completion, 79);
    EXPECT_EQ(net.hops, 2339u);
    EXPECT_EQ(net.ncu_deliveries, 794u);
    EXPECT_EQ(net.header_bits, 37955u);
    EXPECT_EQ(leaders, (std::vector<NodeId>{47, 94, 135}));
    EXPECT_EQ(fnv1a(trace), 12121474531908096533ULL);
}

// ---- randomized sweep: Theorem 4 under many seeds / shapes -------------

class ElectionProperty
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {};

TEST_P(ElectionProperty, ExactlyOneLeaderAlwaysAndWithin6N) {
    const auto [n, seed] = GetParam();
    Rng rng(seed);
    const Graph g = graph::make_random_connected(n, 2, 10, rng);
    ElectionOptions opt;
    opt.announce = false;
    // Random initiator subset (at least one).
    std::vector<NodeId> initiators;
    for (NodeId u = 0; u < n; ++u)
        if (rng.chance(1, 3)) initiators.push_back(u);
    if (initiators.empty()) initiators.push_back(static_cast<NodeId>(rng.below(n)));
    node::ParallelClusterConfig cfg;
    cfg.seed = seed * 7 + 1;
    const auto out = run_election(g, opt, initiators, cfg, /*stagger=*/3);
    EXPECT_TRUE(out.unique_leader);
    EXPECT_LE(out.election_messages, 6ull * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElectionProperty,
    ::testing::Combine(::testing::Values<NodeId>(4, 9, 16, 33, 64, 120),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace fastnet::elect
