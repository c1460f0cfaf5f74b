// Final stress sweeps: the paper's correctness claims under the full
// adversarial envelope — randomized hardware and software delays,
// randomized start patterns, randomized (healed) link churn — across a
// grid of topologies and seeds.
//
// The grids run through the parallel experiment engine (exec::sweep_map /
// exec::SweepRunner) at hardware_concurrency workers, and every grid is
// additionally executed serially and compared row-by-row: the stress
// sweep doubles as an end-to-end determinism check of the engine on real
// protocol workloads (ISSUE 2's headline requirement).
#include <gtest/gtest.h>

#include "election/election.hpp"
#include "exec/result.hpp"
#include "exec/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "node/scenario.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet {
namespace {

enum class Shape { kRing, kGrid, kRandom, kTree, kHypercube };

const char* shape_name(Shape s) {
    switch (s) {
        case Shape::kRing: return "ring";
        case Shape::kGrid: return "grid";
        case Shape::kRandom: return "random";
        case Shape::kTree: return "tree";
        case Shape::kHypercube: return "hypercube";
    }
    return "?";
}

graph::Graph make_shape(Shape s, std::uint64_t seed) {
    Rng rng(seed);
    switch (s) {
        case Shape::kRing: return graph::make_cycle(32);
        case Shape::kGrid: return graph::make_grid(6, 6);
        case Shape::kRandom: return graph::make_random_connected(40, 2, 10, rng);
        case Shape::kTree: return graph::make_random_tree(40, rng);
        case Shape::kHypercube: return graph::make_hypercube(5);
    }
    return graph::make_path(2);
}

// ---- election envelope --------------------------------------------------

struct ElectionPoint {
    Shape shape;
    std::uint64_t seed;
};

struct ElectionRow {
    bool unique_leader = false;
    bool all_decided = false;
    std::uint64_t election_messages = 0;
    std::uint64_t n = 0;
    Tick completion = 0;
};

ElectionRow run_election_point(const ElectionPoint& p) {
    const graph::Graph g = make_shape(p.shape, p.seed);
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 6;   // C jittered in [0, 6]
    cfg.params.ncu_delay = 4;   // P jittered in [1, 4]
    cfg.net.hop_delay_min = 0;
    cfg.ncu_delay_min = 1;
    cfg.seed = p.seed * 1337 + 1;
    // Random initiator subset with staggered starts.
    Rng rng(p.seed + 5);
    std::vector<NodeId> initiators;
    for (NodeId u = 0; u < g.node_count(); ++u)
        if (rng.chance(1, 4)) initiators.push_back(u);
    if (initiators.empty()) initiators.push_back(0);
    const auto out = elect::run_election(g, {}, initiators, cfg, /*stagger=*/11);
    ElectionRow row;
    row.unique_leader = out.unique_leader;
    row.all_decided = out.all_decided;
    row.election_messages = out.election_messages;
    row.n = g.node_count();
    row.completion = out.cost.completion_time;
    return row;
}

TEST(StressSweeps, ElectionEnvelopeOneLeaderUnderFullJitter) {
    std::vector<ElectionPoint> grid;
    for (Shape s : {Shape::kRing, Shape::kGrid, Shape::kRandom, Shape::kTree,
                    Shape::kHypercube})
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) grid.push_back({s, seed});

    exec::SweepOptions wide;
    wide.threads = 0;  // hardware_concurrency
    const auto rows = exec::sweep_map(
        grid, [](const ElectionPoint& p, exec::TaskContext&) { return run_election_point(p); },
        wide);

    ASSERT_EQ(rows.size(), grid.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE(std::string(shape_name(grid[i].shape)) + "/seed" +
                     std::to_string(grid[i].seed));
        EXPECT_TRUE(rows[i].unique_leader);
        EXPECT_TRUE(rows[i].all_decided);
        // The 6n bound is a worst-case count: it holds under jitter too.
        EXPECT_LE(rows[i].election_messages, 6ull * rows[i].n);
    }

    // The parallel rows must equal the serial rows, field for field.
    exec::SweepOptions serial;
    serial.threads = 1;
    const auto serial_rows = exec::sweep_map(
        grid, [](const ElectionPoint& p, exec::TaskContext&) { return run_election_point(p); },
        serial);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].election_messages, serial_rows[i].election_messages);
        EXPECT_EQ(rows[i].completion, serial_rows[i].completion);
    }
}

// ---- maintenance envelope -----------------------------------------------

exec::SweepRunner make_maintenance_envelope(unsigned threads) {
    exec::SweepOptions opt;
    opt.threads = threads;
    opt.master_seed = 4242;
    exec::SweepRunner runner(opt);
    for (Shape shape : {Shape::kRing, Shape::kGrid, Shape::kRandom, Shape::kHypercube}) {
        for (std::uint64_t seed : {4ull, 5ull}) {
            const graph::Graph g = make_shape(shape, seed);
            topo::TopologyOptions topo_opt;
            topo_opt.rounds = 50;
            topo_opt.period = 60;
            node::ParallelClusterConfig cfg;
            cfg.params.hop_delay = 3;
            cfg.params.ncu_delay = 2;
            cfg.net.hop_delay_min = 0;
            cfg.ncu_delay_min = 1;
            cfg.seed = seed * 99 + 7;
            Rng chaos(seed * 31 + 3);
            node::Scenario s = node::Scenario::random_churn(g, 15, 50, 900, chaos);
            s.heal_all(1000);

            exec::ClusterCase c;
            c.name = std::string(shape_name(shape)) + "/seed" + std::to_string(seed);
            c.graph = g;
            c.protocol = topo::make_topology_maintenance(g.node_count(), topo_opt);
            c.config = cfg;
            c.scenario = std::move(s);
            // Keep the historical pinned seeds: this sweep reproduces the
            // exact pre-engine runs, jitter and all.
            c.derive_seed = false;
            c.probe = [](node::ParallelCluster& cluster, const cost::Metrics&,
                         exec::CaseResult& r) {
                r.ok = topo::all_views_converged(cluster);
            };
            runner.add(std::move(c));
        }
    }
    return runner;
}

TEST(StressSweeps, MaintenanceEnvelopeConvergesAfterHealedChurnUnderJitter) {
    const auto rows = make_maintenance_envelope(0).run();
    ASSERT_EQ(rows.size(), 8u);
    for (const auto& r : rows) {
        SCOPED_TRACE(r.name);
        EXPECT_TRUE(r.ok);
    }
    // Serial/parallel agreement, down to the serialized bytes.
    const auto serial_rows = make_maintenance_envelope(1).run();
    EXPECT_EQ(exec::sweep_json("maintenance_envelope", 4242, rows),
              exec::sweep_json("maintenance_envelope", 4242, serial_rows));
}

}  // namespace
}  // namespace fastnet
