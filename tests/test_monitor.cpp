// Live invariant monitors (src/obs/monitor.hpp): unit-level checks of
// each built-in monitor via manual event dispatch, the violation
// bookkeeping (one trace record per violation, the first ones kept in
// merge order, the fold across per-shard hubs), and the integration
// path — a hub attached to a real ParallelCluster run stays clean on
// healthy workloads and trips deterministically on a rigged one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"
#include "sim/trace.hpp"
#include "topo/broadcast_protocols.hpp"

namespace fastnet::obs {
namespace {

MonitorEvent ev(MonitorEvent::Kind kind, Tick at, NodeId node, std::uint64_t lineage = 0,
                std::uint64_t a = 0, std::uint64_t b = 0) {
    MonitorEvent e;
    e.kind = kind;
    e.at = at;
    e.node = node;
    e.lineage = lineage;
    e.a = a;
    e.b = b;
    return e;
}

// ---- hub bookkeeping ----------------------------------------------------

TEST(Monitor, EmptyHubIsInactiveAndOk) {
    MonitorHub hub;
    EXPECT_FALSE(hub.active());
    EXPECT_EQ(hub.monitor_count(), 0u);
    EXPECT_TRUE(hub.ok());
    hub.finish(100);  // no monitors, no effect
    EXPECT_TRUE(hub.violations().empty());
}

TEST(Monitor, StorageCapCountsBeyondStoredViolations) {
    MonitorHub hub;
    hub.add(std::make_unique<QueueDepthMonitor>(0));
    for (Tick t = 0; t < 40; ++t)
        hub.dispatch(ev(MonitorEvent::Kind::kEnqueue, t, 1, 0, /*depth=*/5));
    EXPECT_EQ(hub.violation_count(), 40u);
    EXPECT_EQ(hub.violations().size(), MonitorHub::kMaxStoredPerMonitor);
    EXPECT_FALSE(hub.ok());
}

TEST(Monitor, EveryViolationLandsInTheAttachedTrace) {
    MonitorHub hub;
    hub.add(std::make_unique<LineageConservationMonitor>());
    hub.add(std::make_unique<QueueDepthMonitor>(2));
    sim::Trace trace(128);
    hub.attach_trace(&trace);

    // More than the storage cap: the trace still gets every one.
    constexpr Tick kCount = MonitorHub::kMaxStoredPerMonitor + 4;
    for (Tick t = 0; t < kCount; ++t)
        hub.dispatch(ev(MonitorEvent::Kind::kEnqueue, 7 + t, 3, 0, /*depth=*/9));

    const auto records = trace.snapshot();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(kCount));
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].kind, sim::TraceKind::kViolation);
        EXPECT_EQ(records[i].at, 7 + static_cast<Tick>(i));
        EXPECT_EQ(records[i].node, 3u);
        EXPECT_EQ(records[i].a, 1u);  // registration index of the queue monitor
        EXPECT_EQ(records[i].detail.rfind("queue_depth: ", 0), 0u) << records[i].detail;
    }
    EXPECT_EQ(hub.violation_count(), static_cast<std::uint64_t>(kCount));
    EXPECT_EQ(hub.violations().size(), MonitorHub::kMaxStoredPerMonitor);
}

TEST(Monitor, KeepsTheFirstViolationsInMergeOrder) {
    // 31 violations at one tick, at five nodes reported out of node order
    // and with falling lineages. The hub keeps the first 16 by (at, node,
    // lineage), and two at the same (at, node, lineage) in the order they
    // were reported.
    MonitorHub hub;
    hub.add(std::make_unique<QueueDepthMonitor>(0));
    const NodeId nodes[] = {9, 2, 7, 0, 5};
    for (std::uint64_t lineage = 6; lineage-- > 0;)
        for (NodeId u : nodes)
            hub.dispatch(ev(MonitorEvent::Kind::kEnqueue, 4, u, lineage, /*depth=*/1));
    hub.dispatch(ev(MonitorEvent::Kind::kEnqueue, 4, 0, 0, /*depth=*/2));
    EXPECT_EQ(hub.violation_count(), 31u);

    struct Key {
        NodeId node;
        std::uint64_t lineage;
        std::uint64_t depth;
    };
    std::vector<Key> expected = {{0, 0, 1}, {0, 0, 2}};
    for (std::uint64_t lineage = 1; lineage < 6; ++lineage) expected.push_back({0, lineage, 1});
    for (std::uint64_t lineage = 0; lineage < 6; ++lineage) expected.push_back({2, lineage, 1});
    for (std::uint64_t lineage = 0; lineage < 3; ++lineage) expected.push_back({5, lineage, 1});
    ASSERT_EQ(expected.size(), MonitorHub::kMaxStoredPerMonitor);

    const std::vector<Violation> kept = hub.violations();
    ASSERT_EQ(kept.size(), expected.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(kept[i].at, 4);
        EXPECT_EQ(kept[i].node, expected[i].node);
        EXPECT_EQ(kept[i].lineage, expected[i].lineage);
        EXPECT_EQ(kept[i].message.rfind("queue depth " + std::to_string(expected[i].depth), 0),
                  0u)
            << kept[i].message;
    }
}

TEST(Monitor, FoldOverShardHubsKeepsWhatOneHubKeeps) {
    // The same violations, split across two hubs by node, fold to what a
    // single hub that saw them all keeps: the first 16 of each monitor.
    MonitorHub whole, even, odd;
    for (MonitorHub* hub : {&whole, &even, &odd}) {
        hub->add(std::make_unique<QueueDepthMonitor>(0));
        hub->add(std::make_unique<QueueDepthMonitor>(1));
    }
    for (Tick t = 0; t < 10; ++t) {
        for (NodeId u : {3u, 1u, 2u, 0u}) {
            const MonitorEvent e = ev(MonitorEvent::Kind::kEnqueue, t, u, 10 - t,
                                      /*depth=*/1 + static_cast<std::uint64_t>(t + u) % 2);
            whole.dispatch(e);
            (u % 2 == 0 ? even : odd).dispatch(e);
        }
    }
    ASSERT_EQ(whole.violation_count(), 60u);  // 40 past ceiling 0, 20 past 1
    const MonitorHub* shards[] = {&even, &odd};
    const std::vector<Violation> folded = MonitorHub::fold(shards);
    EXPECT_EQ(folded.size(), 2 * MonitorHub::kMaxStoredPerMonitor);
    EXPECT_EQ(violations_json(2, even.violation_count() + odd.violation_count(), folded, "f"),
              violations_json(whole, "f"));
}

// ---- lineage conservation -----------------------------------------------

TEST(Monitor, LineageConservationBalancedBooksStayClean) {
    MonitorHub hub;
    hub.add(std::make_unique<LineageConservationMonitor>());
    hub.dispatch(ev(MonitorEvent::Kind::kSend, 1, 0, /*lineage=*/10));
    hub.dispatch(ev(MonitorEvent::Kind::kDup, 2, 0, 10));  // link-layer duplicate
    hub.dispatch(ev(MonitorEvent::Kind::kRetire, 5, kNoNode, 10));
    hub.dispatch(ev(MonitorEvent::Kind::kRetire, 6, kNoNode, 10));
    hub.finish(10);
    EXPECT_TRUE(hub.ok()) << violations_json(hub, "t");
}

TEST(Monitor, RetireWithoutLiveCopyFiresImmediately) {
    MonitorHub hub;
    hub.add(std::make_unique<LineageConservationMonitor>());
    hub.dispatch(ev(MonitorEvent::Kind::kRetire, 3, kNoNode, /*lineage=*/42));
    ASSERT_EQ(hub.violation_count(), 1u);
    EXPECT_EQ(hub.violations()[0].monitor, std::string("lineage_conservation"));
    EXPECT_EQ(hub.violations()[0].lineage, 42u);
    EXPECT_EQ(hub.violations()[0].at, 3);
}

TEST(Monitor, UnretiredCopiesFireAtFinish) {
    MonitorHub hub;
    hub.add(std::make_unique<LineageConservationMonitor>());
    hub.dispatch(ev(MonitorEvent::Kind::kSend, 1, 0, /*lineage=*/7));
    hub.dispatch(ev(MonitorEvent::Kind::kSend, 2, 0, 9));
    hub.dispatch(ev(MonitorEvent::Kind::kRetire, 4, kNoNode, 9));
    EXPECT_TRUE(hub.ok());  // nothing wrong until the books close
    hub.finish(50);
    ASSERT_EQ(hub.violation_count(), 1u);
    EXPECT_EQ(hub.violations()[0].lineage, 7u);
    EXPECT_EQ(hub.violations()[0].at, 50);
}

// ---- queue depth ---------------------------------------------------------

TEST(Monitor, QueueDepthCeilingIsInclusive) {
    MonitorHub hub;
    hub.add(std::make_unique<QueueDepthMonitor>(3));
    hub.dispatch(ev(MonitorEvent::Kind::kEnqueue, 1, 0, 0, /*depth=*/3));
    EXPECT_TRUE(hub.ok());
    hub.dispatch(ev(MonitorEvent::Kind::kEnqueue, 2, 0, 0, 4));
    EXPECT_EQ(hub.violation_count(), 1u);
}

// ---- busy-window monotonicity -------------------------------------------

TEST(Monitor, BusyWindowsSerialPerNodeStayClean) {
    MonitorHub hub;
    hub.add(std::make_unique<BusyWindowMonitor>());
    using K = MonitorEvent::Kind;
    hub.dispatch(ev(K::kInvoke, 10, 0, 0, 0, /*busy=*/4));  // [6, 10] on node 0
    hub.dispatch(ev(K::kInvoke, 12, 1, 0, 0, 6));           // [6, 12] on node 1 — fine
    hub.dispatch(ev(K::kInvoke, 15, 0, 0, 0, 5));           // [10, 15] abuts exactly
    EXPECT_TRUE(hub.ok()) << violations_json(hub, "t");
}

TEST(Monitor, OverlappingBusyWindowViolates) {
    MonitorHub hub;
    hub.add(std::make_unique<BusyWindowMonitor>());
    using K = MonitorEvent::Kind;
    hub.dispatch(ev(K::kInvoke, 10, 0, 0, 0, /*busy=*/4));  // ends at 10
    hub.dispatch(ev(K::kInvoke, 12, 0, 0, 0, 4));           // [8, 12] overlaps
    ASSERT_EQ(hub.violation_count(), 1u);
    EXPECT_EQ(hub.violations()[0].monitor, std::string("busy_window"));
}

TEST(Monitor, CompletionTimeGoingBackwardsViolates) {
    MonitorHub hub;
    hub.add(std::make_unique<BusyWindowMonitor>());
    using K = MonitorEvent::Kind;
    hub.dispatch(ev(K::kInvoke, 20, 0));
    hub.dispatch(ev(K::kInvoke, 15, 1));  // the simulator never runs backwards
    EXPECT_EQ(hub.violation_count(), 1u);
}

// ---- integration: a hub riding a real simulation -------------------------

/// One broadcast of `scheme` from `origin`, run to quiescence; the
/// cluster is kept so its hubs and trace can be read.
std::unique_ptr<node::ParallelCluster> run_broadcast_cluster(const graph::Graph& g,
                                                             topo::BroadcastScheme scheme,
                                                             NodeId origin,
                                                             node::ParallelClusterConfig cfg) {
    auto c = std::make_unique<node::ParallelCluster>(
        g,
        [&g, scheme](NodeId) { return std::make_unique<topo::BroadcastProtocol>(g, scheme); },
        cfg);
    c->start(origin, 0);
    c->run();
    return c;
}

bool all_received(node::ParallelCluster& c) {
    for (NodeId u = 0; u < c.node_count(); ++u)
        if (!c.protocol_as<topo::BroadcastProtocol>(u).received()) return false;
    return true;
}

TEST(Monitor, StandardMonitorsStayCleanOnRealBroadcasts) {
    Rng rng(17);
    const graph::Graph g = graph::make_random_connected(40, 1, 15, rng);
    for (auto scheme : {topo::BroadcastScheme::kBranchingPaths,
                        topo::BroadcastScheme::kFlooding}) {
        node::ParallelClusterConfig cfg;
        cfg.monitor_setup = [](MonitorHub& hub) { add_standard_monitors(hub); };
        const auto c = run_broadcast_cluster(g, scheme, 0, cfg);
        ASSERT_TRUE(all_received(*c));
        EXPECT_TRUE(c->monitors_ok())
            << violations_json(c->monitor_count(), c->violation_count(),
                               c->merged_violations(), topo::scheme_name(scheme));
    }
}

TEST(Monitor, RiggedCeilingTripsOnARealRunAndHitsTheTrace) {
    // A star flood hammers the hub node's NCU queue; a zero ceiling must
    // trip, and the first violating event must land in the trace with
    // the kViolation kind.
    const graph::Graph g = graph::make_star(24);
    node::ParallelClusterConfig cfg;
    cfg.monitor_setup = [](MonitorHub& hub) {
        hub.add(std::make_unique<QueueDepthMonitor>(0));
    };
    cfg.trace_capacity = std::size_t{1} << 12;
    const auto c = run_broadcast_cluster(g, topo::BroadcastScheme::kFlooding, 1, cfg);
    ASSERT_TRUE(all_received(*c));
    EXPECT_FALSE(c->monitors_ok());

    bool saw_violation_record = false;
    for (const sim::TraceRecord& r : c->merged_trace())
        if (r.kind == sim::TraceKind::kViolation) {
            saw_violation_record = true;
            EXPECT_EQ(r.detail.rfind("queue_depth: ", 0), 0u) << r.detail;
        }
    EXPECT_TRUE(saw_violation_record);
}

TEST(Monitor, ViolationsJsonIsWellFormedAndDeterministic) {
    auto make = [] {
        MonitorHub hub;
        hub.add(std::make_unique<LineageConservationMonitor>());
        hub.dispatch(ev(MonitorEvent::Kind::kSend, 1, 2, 5));
        hub.finish(9);
        return violations_json(hub, "vj");
    };
    const std::string a = make();
    EXPECT_EQ(a, make());
    EXPECT_NE(a.find("\"fastnet_monitors\": 1"), std::string::npos);
    EXPECT_NE(a.find("\"violation_count\": 1"), std::string::npos);
    EXPECT_NE(a.find("lineage_conservation"), std::string::npos);
}

TEST(Monitor, ViolationsJsonEscapesControlCharacters) {
    // A monitor's message is free text: a raw control character in the
    // export would make the document unparseable.
    struct Noisy : Monitor {
        const char* name() const override { return "noisy"; }
        void on_event(MonitorHub& hub, const MonitorEvent& e) override {
            hub.report(*this, e.at, e.node, e.lineage, "line\rfeed \x01 bell");
        }
    };
    MonitorHub hub;
    hub.add(std::make_unique<Noisy>());
    hub.dispatch(ev(MonitorEvent::Kind::kSend, 1, 2, 5));
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(violations_json(hub, "vj"), doc, &error)) << error;
    const JsonValue* list = doc.find("violations");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->array.size(), 1u);
    const JsonValue* message = list->array[0].find("message");
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message->string, "line\rfeed \x01 bell");
}

}  // namespace
}  // namespace fastnet::obs
