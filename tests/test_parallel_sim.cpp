// Determinism and correctness of the parallel event kernel.
//
// The contract (node/parallel_cluster.hpp): one scripted run, executed
// at any shard count and any worker-thread count, merges to the SAME
// bytes — canonical trace, metrics JSON, violations JSON — and to the
// same completion time. These tests sweep shards {1, 2, 7, 16} x
// threads {1, 2, hardware} over an irregular topology under churn and
// byte-compare every serialization, then hand the quiesced cluster to
// the convergence oracle (Theorem 1 must survive the partitioning).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/oracle.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/metrics_export.hpp"
#include "obs/monitor.hpp"
#include "obs/trace_export.hpp"
#include "topo/topology_maintenance.hpp"

namespace fastnet::node {
namespace {

graph::Graph irregular_graph() {
    Rng rng(0xfeedULL);
    return graph::make_random_connected(23, 1, 3, rng);
}

ParallelClusterConfig base_config(unsigned shards, unsigned threads) {
    ParallelClusterConfig cfg;
    cfg.params.hop_delay = 3;   // C = 3, fixed -> lookahead 3
    cfg.params.ncu_delay = 2;   // P = 2
    cfg.net.hop_delay_min = -1;
    cfg.net.detection_delay = 2;
    cfg.seed = 99;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.trace_capacity = std::size_t{1} << 17;
    cfg.sample_window = 64;
    cfg.monitor_setup = [](obs::MonitorHub& hub) {
        obs::add_standard_monitors(hub, obs::StandardMonitorOptions{});
    };
    return cfg;
}

topo::TopologyOptions maintenance_options() {
    topo::TopologyOptions opt;
    opt.period = 48;
    opt.rounds = 6;
    return opt;
}

/// Scripts the shared churn timeline: link flaps, a crash + restart, a
/// stall, and phase marks. Every action heals well before quiescence so
/// Theorem 1 applies to the full graph.
void script_churn(ParallelCluster& c) {
    const graph::Graph& g = c.graph();
    c.start_all(0);
    c.mark_phase(1, 1);
    c.fail_link(40, 0);
    c.fail_link(55, g.edge_count() / 2);
    c.stall_node(60, 3, 7);
    c.restore_link(90, 0);
    c.crash_node(100, 5);
    c.restore_link(110, g.edge_count() / 2);
    c.mark_phase(120, 2);
    c.restart_node(140, 5);
}

struct RunResult {
    Tick completion = 0;
    std::string trace_json;
    std::string metrics_json;
    std::string violations_json;
    fault::OracleReport oracle;
};

RunResult run_config(unsigned shards, unsigned threads) {
    ParallelCluster c(irregular_graph(),
                      topo::make_topology_maintenance(23, maintenance_options()),
                      base_config(shards, threads));
    script_churn(c);

    RunResult r;
    r.completion = c.run();
    EXPECT_EQ(c.trace_dropped(), 0u) << "ring too small for byte-stable merge";
    const obs::ExportMeta meta = obs::make_meta(c.graph(), "parallel_sweep");
    r.trace_json =
        obs::canonical_trace_json(c.merged_trace(), meta, c.trace_total_recorded(),
                                  c.trace_dropped(), c.trace_detail_dropped());
    r.metrics_json = obs::metrics_json(c.merged_metrics(), "parallel_sweep");
    r.violations_json = obs::violations_json(c.monitor_count(), c.violation_count(),
                                             c.merged_violations(), "parallel_sweep");
    r.oracle = fault::check_theorem1(c);
    return r;
}

TEST(ParallelSim, ByteIdenticalAcrossShardAndThreadCounts) {
    const RunResult baseline = run_config(1, 1);
    EXPECT_GT(baseline.completion, 0);
    EXPECT_TRUE(baseline.oracle.ok()) << baseline.oracle.summary();

    const unsigned shard_counts[] = {2, 7, 16};
    // 0 = min(shards, hardware threads): shards really run at once.
    const unsigned thread_counts[] = {1, 2, 0};
    for (unsigned s : shard_counts) {
        for (unsigned t : thread_counts) {
            SCOPED_TRACE("shards=" + std::to_string(s) + " threads=" + std::to_string(t));
            const RunResult r = run_config(s, t);
            EXPECT_EQ(r.completion, baseline.completion);
            EXPECT_EQ(r.trace_json, baseline.trace_json);
            EXPECT_EQ(r.metrics_json, baseline.metrics_json);
            EXPECT_EQ(r.violations_json, baseline.violations_json);
            EXPECT_TRUE(r.oracle.ok()) << r.oracle.summary();
        }
    }
}

/// The churn run with the per-node monitors set to fire: a queue ceiling,
/// a link spacing and a send gap the run does not keep, and a memory
/// budget below a node's footprint, checked by samples between run_until
/// steps. Each fires more often than MonitorHub keeps.
RunResult run_firing_monitors(unsigned shards, unsigned threads) {
    ParallelClusterConfig cfg = base_config(shards, threads);
    cfg.trace_capacity = std::size_t{1} << 18;
    cfg.trace_detail_capacity = std::size_t{1} << 22;
    cfg.monitor_setup = [](obs::MonitorHub& hub) {
        obs::StandardMonitorOptions opt;
        opt.queue_ceiling = 12;
        opt.link_spacing = 4;  // the network keeps none
        opt.min_send_gap = 3;  // sends are free (free_multisend)
        obs::add_standard_monitors(hub, opt);
        hub.add(std::make_unique<obs::MemoryBudgetMonitor>(1000));
    };
    ParallelCluster c(irregular_graph(),
                      topo::make_topology_maintenance(23, maintenance_options()), cfg);
    script_churn(c);
    for (Tick t = 25; t <= 300; t += 25) {
        c.run_until(t);
        c.sample_memory();
    }

    RunResult r;
    r.completion = c.run();
    EXPECT_EQ(c.trace_dropped(), 0u);
    EXPECT_EQ(c.trace_detail_dropped(), 0u);
    const obs::ExportMeta meta = obs::make_meta(c.graph(), "firing_monitors");
    r.trace_json = obs::canonical_trace_json(c.merged_trace(), meta, c.trace_total_recorded(),
                                             c.trace_dropped(), c.trace_detail_dropped());
    r.violations_json = obs::violations_json(c.monitor_count(), c.violation_count(),
                                             c.merged_violations(), "firing_monitors");
    return r;
}

TEST(ParallelSim, FiringMonitorsByteIdenticalAcrossShardAndThreadCounts) {
    const RunResult baseline = run_firing_monitors(1, 1);
    for (const char* monitor : {"queue_depth", "link_fifo", "serialized_send", "memory_budget"})
        EXPECT_NE(baseline.violations_json.find(std::string("\"monitor\": \"") + monitor + "\""),
                  std::string::npos)
            << monitor << " never fired:\n"
            << baseline.violations_json;
    EXPECT_NE(baseline.trace_json.find("\"kind\":\"violation\""), std::string::npos);

    const unsigned shard_counts[] = {2, 7, 16};
    const unsigned thread_counts[] = {1, 2, 0};
    for (unsigned s : shard_counts) {
        for (unsigned t : thread_counts) {
            SCOPED_TRACE("shards=" + std::to_string(s) + " threads=" + std::to_string(t));
            const RunResult r = run_firing_monitors(s, t);
            EXPECT_EQ(r.completion, baseline.completion);
            EXPECT_EQ(r.trace_json, baseline.trace_json);
            EXPECT_EQ(r.violations_json, baseline.violations_json);
        }
    }
}

TEST(ParallelSim, MonitorsStayCleanUnderChurn) {
    const RunResult r = run_config(4, 2);
    EXPECT_NE(r.violations_json.find("\"violation_count\": 0"), std::string::npos)
        << r.violations_json;
}

TEST(ParallelSim, LookaheadIsMinBoundaryHopDelay) {
    const auto factory = topo::make_topology_maintenance(23, maintenance_options());

    {  // Fixed C = 3: window width 3.
        ParallelClusterConfig cfg = base_config(4, 1);
        ParallelCluster c(irregular_graph(), factory, cfg);
        ASSERT_GT(c.shard_count(), 1u);
        EXPECT_EQ(c.lookahead(), 3);
    }
    {  // Jittered delays in [1, 4]: the conservative bound is the min.
        ParallelClusterConfig cfg = base_config(4, 1);
        cfg.params.hop_delay = 4;
        cfg.net.hop_delay_min = 1;
        ParallelCluster c(irregular_graph(), factory, cfg);
        ASSERT_GT(c.shard_count(), 1u);
        EXPECT_EQ(c.lookahead(), 1);
    }
    {  // Single shard: no boundary, one unbounded window.
        ParallelClusterConfig cfg = base_config(1, 1);
        ParallelCluster c(irregular_graph(), factory, cfg);
        EXPECT_EQ(c.shard_count(), 1u);
        EXPECT_EQ(c.lookahead(), kNever);
        EXPECT_TRUE(c.partition().boundary_edges.empty());
    }
}

TEST(ParallelSim, ZeroLookaheadFallsBackToOneShard) {
    const auto factory = topo::make_topology_maintenance(23, maintenance_options());
    {  // Jitter floor 0 with C > 0: a boundary packet could arrive "now".
        ParallelClusterConfig cfg = base_config(4, 1);
        cfg.params.hop_delay = 3;
        cfg.net.hop_delay_min = 0;
        ParallelCluster c(irregular_graph(), factory, cfg);
        EXPECT_EQ(c.shard_count(), 1u);
    }
    {  // The limiting model (C = 0) has no lookahead at all.
        ParallelClusterConfig cfg = base_config(4, 1);
        cfg.params = ModelParams::fast_network();
        cfg.net.hop_delay_min = -1;
        ParallelCluster c(irregular_graph(), factory, cfg);
        EXPECT_EQ(c.shard_count(), 1u);
    }
}

TEST(ParallelSim, PartitionBoundaryDelaysAreNeverBelowWindowWidth) {
    // The conservative-safety property the whole kernel rests on: every
    // boundary edge's minimum delay >= the window width (lookahead).
    ParallelClusterConfig cfg = base_config(5, 1);
    cfg.params.hop_delay = 4;
    cfg.net.hop_delay_min = 2;
    ParallelCluster c(irregular_graph(),
                      topo::make_topology_maintenance(23, maintenance_options()), cfg);
    ASSERT_GT(c.shard_count(), 1u);
    const Tick link_min = cfg.net.hop_delay_min;  // uniform delays: min is global
    for (EdgeId e : c.partition().boundary_edges) {
        EXPECT_TRUE(c.partition().boundary(c.graph(), e));
        EXPECT_GE(link_min, c.lookahead());
    }
    EXPECT_EQ(c.lookahead(), link_min);
}

TEST(ParallelSim, RunUntilAdvancesInWindows) {
    ParallelCluster c(irregular_graph(),
                      topo::make_topology_maintenance(23, maintenance_options()),
                      base_config(3, 1));
    c.start_all(0);
    c.run_until(50);
    EXPECT_LE(c.now(), 50);
    EXPECT_FALSE(c.quiescent());
    const Tick done = c.run();
    EXPECT_GT(done, 50);
    EXPECT_TRUE(c.quiescent());

    // Identical to a one-shot run of the same script.
    ParallelCluster whole(irregular_graph(),
                          topo::make_topology_maintenance(23, maintenance_options()),
                          base_config(3, 1));
    whole.start_all(0);
    EXPECT_EQ(whole.run(), done);
}

}  // namespace
}  // namespace fastnet::node
