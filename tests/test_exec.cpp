// Tests for the parallel experiment engine: the work-stealing pool, the
// deterministic sweep map, result aggregation, and the headline contract
// — the same sweep at 1, 2 and hardware_concurrency threads serializes
// to byte-identical JSON.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "exec/result.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet::exec {
namespace {

TEST(ThreadPool, RunsEveryTask) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i) pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ReusableAfterWaitIdle) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
        pool.wait_idle();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, TasksMaySubmitTasks) {
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&pool, &count] {
            for (int j = 0; j < 10; ++j) pool.submit([&count] { ++count; });
        });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 80);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i) pool.submit([&count] { ++count; });
        // No wait_idle: the destructor must still run everything.
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
    EXPECT_GE(ThreadPool::hardware_threads(), 1u);
    ThreadPool pool(0);  // 0 = hardware default
    EXPECT_GE(pool.thread_count(), 1u);
}

TEST(SweepMap, ResultsInSubmissionOrder) {
    std::vector<int> items;
    for (int i = 0; i < 64; ++i) items.push_back(i);
    SweepOptions opt;
    opt.threads = 4;
    const auto out = sweep_map(
        items, [](int v, TaskContext& ctx) { return v * 10 + static_cast<int>(ctx.index % 10); },
        opt);
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * 10 + i % 10);
}

TEST(SweepMap, TaskStreamsDependOnIndexNotThreads) {
    std::vector<int> items(32, 0);
    auto draw = [](int, TaskContext& ctx) { return ctx.rng.next(); };
    SweepOptions serial;
    serial.threads = 1;
    SweepOptions wide;
    wide.threads = 4;
    const auto a = sweep_map(items, draw, serial);
    const auto b = sweep_map(items, draw, wide);
    EXPECT_EQ(a, b);
    // And the streams are pairwise distinct.
    std::set<std::uint64_t> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), a.size());
}

TEST(SweepMap, FirstExceptionByIndexPropagates) {
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    SweepOptions opt;
    opt.threads = 4;
    try {
        sweep_map(
            items,
            [](int v, TaskContext&) -> int {
                if (v == 3 || v == 6) throw std::runtime_error("task " + std::to_string(v));
                return v;
            },
            opt);
        FAIL() << "should have thrown";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 3");  // lowest index wins, not completion order
    }
}

TEST(Result, AggregateKnownValues) {
    const Aggregate odd = aggregate({5, 1, 9, 3, 7});
    EXPECT_EQ(odd.count, 5u);
    EXPECT_DOUBLE_EQ(odd.min, 1);
    EXPECT_DOUBLE_EQ(odd.max, 9);
    EXPECT_DOUBLE_EQ(odd.mean, 5);
    EXPECT_DOUBLE_EQ(odd.median, 5);
    const Aggregate even = aggregate({4, 1, 3, 2});
    EXPECT_DOUBLE_EQ(even.median, 2.5);
    EXPECT_EQ(aggregate({}).count, 0u);
}

TEST(Result, FormatDoubleIsCanonical) {
    EXPECT_EQ(format_double(7), "7");
    EXPECT_EQ(format_double(2.5), "2.5");
    EXPECT_EQ(format_double(0.1), "0.1");  // shortest round-trip, not 0.1000000...
}

// ---- the headline determinism contract ---------------------------------

/// A small but non-trivial sweep: topology maintenance under jittered
/// delays and seeded link churn across four topology families. Scenario
/// randomness is generated here, serially, from fixed seeds; cluster
/// jitter seeds are derived per task by the runner.
SweepRunner make_maintenance_sweep(unsigned threads) {
    SweepOptions opt;
    opt.threads = threads;
    opt.master_seed = 2026;
    SweepRunner runner(opt);
    struct Shape {
        const char* name;
        graph::Graph graph;
    };
    std::vector<Shape> shapes;
    shapes.push_back({"ring12", graph::make_cycle(12)});
    shapes.push_back({"grid4x4", graph::make_grid(4, 4)});
    {
        Rng g1(7);
        shapes.push_back({"random16", graph::make_random_connected(16, 2, 6, g1)});
        shapes.push_back({"tree16", graph::make_random_tree(16, g1)});
    }
    for (const Shape& s : shapes) {
        for (std::uint64_t chaos_seed : {1ull, 2ull}) {
            topo::TopologyOptions topo_opt;
            topo_opt.rounds = 30;
            topo_opt.period = 50;
            node::ParallelClusterConfig cfg;
            cfg.params.hop_delay = 3;
            cfg.params.ncu_delay = 2;
            cfg.net.hop_delay_min = 0;
            cfg.ncu_delay_min = 1;
            Rng chaos(chaos_seed * 31 + 3);
            node::Scenario scenario =
                node::Scenario::random_churn(s.graph, 8, 40, 500, chaos);
            scenario.heal_all(600);

            ClusterCase c;
            c.name = std::string(s.name) + "/chaos" + std::to_string(chaos_seed);
            c.graph = s.graph;
            c.protocol = topo::make_topology_maintenance(s.graph.node_count(), topo_opt);
            c.config = cfg;
            c.scenario = std::move(scenario);
            c.probe = [](node::ParallelCluster& cluster, const cost::Metrics& m, CaseResult& r) {
                r.ok = topo::all_views_converged(cluster);
                r.set("invocations", static_cast<double>(m.total_invocations()));
            };
            runner.add(std::move(c));
        }
    }
    return runner;
}

TEST(SweepDeterminism, ByteIdenticalJsonAtOneTwoAndNThreads) {
    const unsigned hw = ThreadPool::hardware_threads();
    const auto rows1 = make_maintenance_sweep(1).run();
    const auto rows2 = make_maintenance_sweep(2).run();
    const auto rowsN = make_maintenance_sweep(hw).run();

    // Every case must actually pass (the sweep is a real Theorem 1 check,
    // not just a determinism fixture).
    for (const CaseResult& r : rows1) EXPECT_TRUE(r.ok) << r.name;

    const std::string j1 = sweep_json("maintenance_envelope", 2026, rows1);
    const std::string j2 = sweep_json("maintenance_envelope", 2026, rows2);
    const std::string jN = sweep_json("maintenance_envelope", 2026, rowsN);
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, jN);
}

TEST(SweepRunner, DerivedSeedsVaryByCaseAndMasterSeed) {
    auto build = [](std::uint64_t master) {
        SweepOptions opt;
        opt.threads = 1;
        opt.master_seed = master;
        SweepRunner runner(opt);
        for (int i = 0; i < 2; ++i) {
            ClusterCase c;
            c.name = "ring";
            c.graph = graph::make_cycle(8);
            topo::TopologyOptions topo_opt;
            topo_opt.rounds = 4;
            topo_opt.period = 32;
            c.protocol = topo::make_topology_maintenance(8, topo_opt);
            c.config.params.hop_delay = 4;
            c.config.params.ncu_delay = 3;
            c.config.net.hop_delay_min = 0;
            c.config.ncu_delay_min = 1;
            runner.add(std::move(c));
        }
        return runner.run();
    };
    const auto a = build(1);
    const auto b = build(1);
    const auto c = build(99);
    ASSERT_EQ(a.size(), 2u);
    // Same master seed: identical rows. Different master seed: the
    // jittered schedules (and hence completion times) should differ for
    // at least one case.
    EXPECT_EQ(a[0].completion, b[0].completion);
    EXPECT_EQ(a[1].completion, b[1].completion);
    EXPECT_TRUE(a[0].completion != c[0].completion || a[1].completion != c[1].completion);
    // Two identical case descriptions still get distinct derived seeds
    // (per-index streams), so their jitter differs.
    EXPECT_NE(a[0].completion, a[1].completion);
}

}  // namespace
}  // namespace fastnet::exec
