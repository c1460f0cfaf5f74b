// Memory as a metered resource: ParallelCluster::sample_memory feeding the
// cost::Metrics ledger (MemoryBreakdown, peak bytes/node, the sampled
// bytes_per_node series), the kMemory monitor events, and the
// MemoryBudgetMonitor's fire/clear semantics — including across
// crash/restart epochs, where a node's protocol bytes drop to zero and
// climb back. Companion doc: docs/PERF.md "Memory at scale".

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/json.hpp"
#include "obs/metrics_export.hpp"
#include "obs/monitor.hpp"

namespace fastnet {
namespace {

struct Ping final : hw::TypedPayload<Ping> {};

/// Forwards one ping up the node-id order — a minimal workload that
/// exercises queues and links without protocol state.
struct Relay final : node::Protocol {
    void on_start(node::Context& ctx) override { forward(ctx); }
    void on_message(node::Context& ctx, const hw::Delivery&) override { forward(ctx); }
    std::size_t memory_bytes() const override { return sizeof(*this); }

    static void forward(node::Context& ctx) {
        for (const node::LocalLink& l : ctx.links()) {
            if (l.neighbor > ctx.self()) {
                hw::AnrHeader h{hw::AnrLabel::normal(l.port),
                                hw::AnrLabel::normal(hw::kNcuPort)};
                ctx.send(std::move(h), std::make_shared<Ping>());
                return;
            }
        }
    }
};

/// Inflates its reported footprint once started — what a protocol whose
/// tables grow with traffic looks like to the memory ledger.
struct Bloat final : node::Protocol {
    void on_start(node::Context&) override { bytes_.resize(10000); }
    std::size_t memory_bytes() const override {
        return sizeof(*this) + bytes_.capacity();
    }
    std::vector<std::byte> bytes_;
};

// ---- MemoryBudgetMonitor unit behaviour ----------------------------------

obs::MonitorEvent mem_event(Tick at, NodeId node, std::uint64_t bytes) {
    obs::MonitorEvent ev;
    ev.kind = obs::MonitorEvent::Kind::kMemory;
    ev.at = at;
    ev.node = node;
    ev.a = bytes;
    return ev;
}

TEST(MemoryBudgetMonitor, FiresOnUpwardCrossingOnly) {
    obs::MonitorHub hub;
    hub.add(std::make_unique<obs::MemoryBudgetMonitor>(1000));
    hub.dispatch(mem_event(1, 0, 900));   // under: quiet
    EXPECT_EQ(hub.violation_count(), 0u);
    hub.dispatch(mem_event(2, 0, 1001));  // crossing: fires
    EXPECT_EQ(hub.violation_count(), 1u);
    hub.dispatch(mem_event(3, 0, 5000));  // still over: no re-fire
    EXPECT_EQ(hub.violation_count(), 1u);
    hub.dispatch(mem_event(4, 0, 800));   // back under: re-arms, quiet
    EXPECT_EQ(hub.violation_count(), 1u);
    hub.dispatch(mem_event(5, 0, 1200));  // second excursion: fires again
    EXPECT_EQ(hub.violation_count(), 2u);
    EXPECT_EQ(hub.violations()[0].monitor, "memory_budget");
    EXPECT_EQ(hub.violations()[0].node, 0u);
}

TEST(MemoryBudgetMonitor, TracksNodesIndependently) {
    obs::MonitorHub hub;
    hub.add(std::make_unique<obs::MemoryBudgetMonitor>(100));
    hub.dispatch(mem_event(1, 3, 200));
    hub.dispatch(mem_event(1, 7, 50));
    hub.dispatch(mem_event(2, 3, 200));  // 3 still over: quiet
    hub.dispatch(mem_event(2, 7, 200));  // 7 crosses now
    EXPECT_EQ(hub.violation_count(), 2u);
}

// ---- cluster sampling -----------------------------------------------------

/// Runs `cluster` to quiescence in steps of `every` ticks, sampling
/// memory after each step — the cadence a long run meters itself at.
Tick run_sampled(node::ParallelCluster& cluster, Tick every) {
    for (Tick t = every; !cluster.quiescent(); t += every) {
        cluster.run_until(t);
        cluster.sample_memory();
    }
    return cluster.run();
}

TEST(MemorySampling, LedgerPopulatedAndInternallyConsistent) {
    node::ParallelClusterConfig cfg;
    cfg.sample_window = 4;
    node::ParallelCluster cluster(
        graph::make_path(6), [](NodeId) { return std::make_unique<Relay>(); }, cfg);
    cluster.start(0, 0);
    run_sampled(cluster, 4);

    const cost::Metrics metrics = cluster.merged_metrics();
    const cost::MemorySample* mem = metrics.memory();
    ASSERT_NE(mem, nullptr);
    EXPECT_GE(metrics.memory_samples(), 1u);
    EXPECT_GT(mem->breakdown.graph, 0u);
    EXPECT_GT(mem->breakdown.network, 0u);
    EXPECT_GT(mem->breakdown.runtimes, 0u);
    EXPECT_GT(mem->breakdown.protocols, 0u);
    EXPECT_EQ(mem->breakdown.total(), mem->breakdown.graph + mem->breakdown.network +
                                          mem->breakdown.runtimes + mem->breakdown.protocols);
    // The runtime array and link tables live in the shard's arena: six
    // runtimes and the path's ten link ends.
    EXPECT_EQ(mem->breakdown.arena_used,
              6 * sizeof(node::NodeRuntime) + 10 * sizeof(node::LocalLink));
    EXPECT_GE(mem->breakdown.arena_reserved, mem->breakdown.arena_used);
    ASSERT_NE(mem->max_node, kNoNode);
    EXPECT_LE(mem->max_node_bytes, mem->breakdown.runtimes + mem->breakdown.protocols);
    EXPECT_GE(metrics.peak_node_bytes(), mem->max_node_bytes);

    // The windowed series saw the same samples.
    const cost::Sampling* s = metrics.sampling();
    ASSERT_NE(s, nullptr);
    std::uint64_t count = 0;
    for (const auto& w : s->bytes_per_node().windows()) count += w.count;
    EXPECT_EQ(count + s->bytes_per_node().overflow(), metrics.memory_samples());
}

TEST(MemorySampling, OffByDefaultAndJsonSaysNull) {
    node::ParallelCluster cluster(
        graph::make_path(3), [](NodeId) { return std::make_unique<Relay>(); });
    cluster.start(0, 0);
    cluster.run();
    const cost::Metrics metrics = cluster.merged_metrics();
    EXPECT_EQ(metrics.memory(), nullptr);

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::json_parse(obs::metrics_json(metrics, "m"), doc, &err)) << err;
    const obs::JsonValue* mem = doc.find("memory");
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(mem->type, obs::JsonValue::Type::kNull);
}

TEST(MemorySampling, JsonMemorySectionCarriesTheBreakdown) {
    node::ParallelCluster cluster(
        graph::make_cycle(5), [](NodeId) { return std::make_unique<Relay>(); });
    cluster.start(0, 0);
    run_sampled(cluster, 8);
    const cost::Metrics metrics = cluster.merged_metrics();

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::json_parse(obs::metrics_json(metrics, "m"), doc, &err)) << err;
    const obs::JsonValue* mem = doc.find("memory");
    ASSERT_NE(mem, nullptr);
    ASSERT_TRUE(mem->is_object());
    const cost::MemorySample* latest = metrics.memory();
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(mem->find("total")->uint_value, latest->breakdown.total());
    EXPECT_EQ(mem->find("graph")->uint_value, latest->breakdown.graph);
    EXPECT_EQ(mem->find("network")->uint_value, latest->breakdown.network);
    EXPECT_EQ(mem->find("runtimes")->uint_value, latest->breakdown.runtimes);
    EXPECT_EQ(mem->find("protocols")->uint_value, latest->breakdown.protocols);
    EXPECT_EQ(mem->find("arena_used")->uint_value, latest->breakdown.arena_used);
    EXPECT_EQ(mem->find("samples")->uint_value, metrics.memory_samples());
    EXPECT_EQ(mem->find("peak_node_bytes")->uint_value, metrics.peak_node_bytes());
    EXPECT_NE(mem->find("max_node"), nullptr);
}

TEST(MemorySampling, MeteringDoesNotPerturbTheSimulation) {
    // Sampling reads state between event batches and schedules nothing:
    // every cost the paper counts must be identical with metering on.
    auto run = [](Tick every) {
        node::ParallelCluster cluster(
            graph::make_grid(4, 5), [](NodeId) { return std::make_unique<Relay>(); });
        cluster.start(0, 0);
        const Tick done = every > 0 ? run_sampled(cluster, every) : cluster.run();
        const cost::Metrics m = cluster.merged_metrics();
        return std::tuple{done, m.net().hops, m.total_message_system_calls(),
                          m.total_invocations()};
    };
    EXPECT_EQ(run(0), run(3));
    EXPECT_EQ(run(0), run(64));
}

TEST(MemorySampling, BudgetMonitorSeesCrashRestartEpochs) {
    node::ParallelClusterConfig cfg;
    // Bloat reports ~10 KB once started; runtimes alone stay far under.
    cfg.monitor_setup = [](obs::MonitorHub& hub) {
        hub.add(std::make_unique<obs::MemoryBudgetMonitor>(5000));
    };
    node::ParallelCluster cluster(
        graph::make_cycle(4), [](NodeId) { return std::make_unique<Bloat>(); }, cfg);
    cluster.start_all(0);
    Tick done = cluster.run();

    cluster.sample_memory();  // every node over budget -> 4 firings
    EXPECT_EQ(cluster.violation_count(), 4u);
    cluster.sample_memory();  // still over: no re-fire
    EXPECT_EQ(cluster.violation_count(), 4u);

    // A crash wipes the protocol: node 0 drops under the ceiling...
    cluster.crash_node(done + 1, 0);
    cluster.run_until(done + 1);
    cluster.sample_memory();
    EXPECT_EQ(cluster.violation_count(), 4u);

    // ...and the restarted incarnation bloats again: one new excursion.
    cluster.restart_node(done + 2, 0);
    done = cluster.run();
    cluster.sample_memory();
    EXPECT_EQ(cluster.violation_count(), 5u);
}

TEST(MemoryLedger, RecordTracksPeakAndResetClears) {
    cost::Metrics m(4);
    cost::MemorySample s;
    s.at = 10;
    s.breakdown.runtimes = 400;
    s.max_node_bytes = 120;
    s.max_node = 2;
    m.record_memory(s);
    s.at = 20;
    s.max_node_bytes = 80;
    m.record_memory(s);
    ASSERT_NE(m.memory(), nullptr);
    EXPECT_EQ(m.memory()->at, 20);        // latest wins...
    EXPECT_EQ(m.peak_node_bytes(), 120u);  // ...peak remembers
    EXPECT_EQ(m.memory_samples(), 2u);
    m.reset();
    EXPECT_EQ(m.memory(), nullptr);
    EXPECT_EQ(m.memory_samples(), 0u);
    EXPECT_EQ(m.peak_node_bytes(), 0u);
}

TEST(MemoryLedger, FabricCountedOnceAtAnyShardCount) {
    // Every shard reads one fabric, so more shards add only the
    // partition's per-shard vectors to the network line — never another
    // copy of the link state or the per-node arrays.
    struct Line {
        std::uint64_t network = 0;
        std::size_t partition_vectors = 0;
    };
    const auto measure = [](unsigned shards) {
        node::ParallelClusterConfig cfg;
        cfg.params.hop_delay = 1;
        cfg.shards = shards;
        cfg.threads = 1;
        node::ParallelCluster cluster(
            graph::make_cycle(4096), [](NodeId) { return std::make_unique<Relay>(); }, cfg);
        EXPECT_EQ(cluster.shard_count(), shards);
        cluster.sample_memory();
        const cost::Metrics metrics = cluster.merged_metrics();
        const graph::Partition& part = cluster.partition();
        return Line{metrics.memory()->breakdown.network,
                    part.boundary_edges.capacity() * sizeof(EdgeId) +
                        part.shard_size.capacity() * sizeof(std::uint32_t)};
    };
    const Line one = measure(1);
    ASSERT_GT(one.network, 0u);
    for (unsigned shards : {2u, 4u, 8u}) {
        const Line line = measure(shards);
        EXPECT_LE(line.network, one.network + line.partition_vectors) << shards << " shards";
    }
}

}  // namespace
}  // namespace fastnet
