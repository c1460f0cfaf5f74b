// Tests for the observational trace facility and its wiring through the
// cluster / network / runtime.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "sim/trace.hpp"
#include "topo/broadcast_protocols.hpp"

namespace fastnet::sim {
namespace {

TEST(Trace, RecordsInOrder) {
    Trace t;
    t.record(5, 0, TraceKind::kStart);
    t.record_detail(7, 1, TraceKind::kDeliver, "x", {.a = 3});
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].at, 5);
    EXPECT_EQ(snap[1].detail, "x");
    EXPECT_EQ(snap[1].a, 3u);
}

TEST(Trace, TypedArgsRoundTrip) {
    Trace t;
    t.record(9, 4, TraceKind::kDrop,
             {.lineage = 17, .a = 2, .b = 0,
              .flag = static_cast<std::uint8_t>(DropReason::kStaleEpoch)});
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].lineage, 17u);
    EXPECT_EQ(snap[0].a, 2u);
    EXPECT_EQ(static_cast<DropReason>(snap[0].flag), DropReason::kStaleEpoch);
    EXPECT_TRUE(snap[0].detail.empty());
}

TEST(Trace, RingDiscardsOldest) {
    Trace t(3);
    for (std::uint64_t i = 0; i < 5; ++i)
        t.record(static_cast<Tick>(i), 0, TraceKind::kCustom, {.a = i});
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.total_recorded(), 5u);
    EXPECT_EQ(t.dropped(), 2u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].a, 2u);
    EXPECT_EQ(snap[2].a, 4u);
}

TEST(Trace, DroppedAccountingAcrossManyWraps) {
    Trace t(4);
    const std::uint64_t total = 4 * 7 + 3;  // several full wraps + a partial one
    for (std::uint64_t i = 0; i < total; ++i)
        t.record(static_cast<Tick>(i), 0, TraceKind::kCustom, {.a = i});
    EXPECT_EQ(t.total_recorded(), total);
    EXPECT_EQ(t.dropped(), total - 4);
    EXPECT_EQ(t.size(), 4u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Survivors are exactly the newest `capacity` records, oldest first.
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].a, total - 4 + i);
        EXPECT_EQ(snap[i].at, static_cast<Tick>(total - 4 + i));
    }
}

TEST(Trace, PerNodeSnapshotAcrossWrap) {
    Trace t(4);
    // Alternate nodes 0/1; by the end only records 6..9 survive.
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(static_cast<Tick>(i), static_cast<NodeId>(i % 2), TraceKind::kCustom,
                 {.a = i});
    const auto n0 = t.snapshot(0);
    const auto n1 = t.snapshot(1);
    ASSERT_EQ(n0.size(), 2u);
    ASSERT_EQ(n1.size(), 2u);
    EXPECT_EQ(n0[0].a, 6u);
    EXPECT_EQ(n0[1].a, 8u);
    EXPECT_EQ(n1[0].a, 7u);
    EXPECT_EQ(n1[1].a, 9u);
    EXPECT_TRUE(t.snapshot(9).empty());
}

TEST(Trace, KindFilteringVsTotalRecorded) {
    Trace t;
    t.set_enabled(TraceKind::kSend, false);
    t.record(1, 0, TraceKind::kSend);
    t.record(2, 0, TraceKind::kDeliver);
    // A filtered-out record never reaches the ring: it counts neither as
    // recorded nor as dropped.
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.total_recorded(), 1u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_FALSE(t.enabled(TraceKind::kSend));
    EXPECT_TRUE(t.enabled(TraceKind::kDeliver));
    EXPECT_EQ(t.snapshot()[0].kind, TraceKind::kDeliver);
    t.set_enabled(TraceKind::kSend, true);
    t.record(3, 0, TraceKind::kSend);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.total_recorded(), 2u);
}

TEST(Trace, DisableAllSilencesEverything) {
    Trace t;
    t.disable_all();
    for (unsigned k = 0; k < kTraceKindCount; ++k) {
        EXPECT_FALSE(t.enabled(static_cast<TraceKind>(k)));
        t.record(1, 0, static_cast<TraceKind>(k));
    }
    EXPECT_EQ(t.total_recorded(), 0u);
    t.enable_all();
    for (unsigned k = 0; k < kTraceKindCount; ++k)
        EXPECT_TRUE(t.enabled(static_cast<TraceKind>(k)));
}

TEST(Trace, DetailArenaBoundsAndDropCounter) {
    Trace t(16, /*detail_capacity=*/8);
    t.record_detail(1, 0, TraceKind::kCustom, "abcd");
    t.record_detail(2, 0, TraceKind::kCustom, "efgh");
    // Arena full: the record still lands, the detail is dropped.
    t.record_detail(3, 0, TraceKind::kCustom, "ijkl");
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.detail_dropped(), 1u);
    const auto snap = t.snapshot();
    EXPECT_EQ(snap[0].detail, "abcd");
    EXPECT_EQ(snap[1].detail, "efgh");
    EXPECT_TRUE(snap[2].detail.empty());
}

TEST(Trace, ClearResets) {
    Trace t;
    t.record_detail(1, 0, TraceKind::kStart, "d");
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.total_recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.detail_dropped(), 0u);
}

TEST(Trace, PrintIsHumanReadable) {
    Trace t;
    t.record(4, 2, TraceKind::kDeliver, {.lineage = 5, .a = 3, .b = 10});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("[t=4] node 2 deliver lin=5 hops=3 busy=10"),
              std::string::npos);
}

TEST(Trace, FormatRecordCoversKinds) {
    TraceRecord drop;
    drop.at = 7;
    drop.node = kNoNode;
    drop.kind = TraceKind::kDrop;
    drop.lineage = 3;
    drop.a = 2;
    drop.flag = static_cast<std::uint8_t>(DropReason::kInactiveLink);
    EXPECT_EQ(format_record(drop), "[t=7] net drop lin=3 edge=2 reason=inactive_link");

    TraceRecord phase;
    phase.at = 100;
    phase.node = kNoNode;
    phase.kind = TraceKind::kPhase;
    phase.a = 2;
    EXPECT_EQ(format_record(phase), "[t=100] net phase phase=2");
}

TEST(Trace, KindNamesRoundTrip) {
    EXPECT_STREQ(trace_kind_name(TraceKind::kStart), "start");
    EXPECT_STREQ(trace_kind_name(TraceKind::kDrop), "drop");
    for (unsigned k = 0; k < kTraceKindCount; ++k) {
        TraceKind parsed;
        ASSERT_TRUE(trace_kind_from_name(trace_kind_name(static_cast<TraceKind>(k)), parsed));
        EXPECT_EQ(parsed, static_cast<TraceKind>(k));
    }
    TraceKind parsed;
    EXPECT_FALSE(trace_kind_from_name("no_such_kind", parsed));
}

TEST(TraceWiring, ClusterRecordsProtocolLifecycle) {
    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = 65536;
    const graph::Graph g = graph::make_path(4);
    node::ParallelCluster c(g, [&g](NodeId) {
        return std::make_unique<topo::BroadcastProtocol>(
            g, topo::BroadcastScheme::kBranchingPaths);
    }, cfg);
    c.start(0, 0);
    c.run();
    unsigned starts = 0, sends = 0, delivers = 0;
    for (const auto& r : c.merged_trace()) {
        if (r.kind == TraceKind::kStart) ++starts;
        if (r.kind == TraceKind::kSend) ++sends;
        if (r.kind == TraceKind::kDeliver) ++delivers;
    }
    EXPECT_EQ(starts, 1u);
    EXPECT_EQ(sends, 1u);     // a path broadcast is a single message
    EXPECT_EQ(delivers, 3u);  // n-1 receptions
}

TEST(TraceWiring, DropsAreRecordedWithReason) {
    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = 65536;
    const graph::Graph g = graph::make_path(3);
    node::ParallelCluster c(g, [&g](NodeId) {
        return std::make_unique<topo::BroadcastProtocol>(
            g, topo::BroadcastScheme::kBranchingPaths);
    }, cfg);
    c.fail_link(0, 1);  // edge (1,2)
    c.start(0, 1);
    c.run();
    bool saw_drop = false;
    for (const auto& r : c.merged_trace()) {
        if (r.kind != TraceKind::kDrop) continue;
        saw_drop = true;
        EXPECT_NE(static_cast<DropReason>(r.flag), DropReason::kNone);
        EXPECT_NE(r.lineage, 0u);
    }
    EXPECT_TRUE(saw_drop);
}

TEST(TraceWiring, PhaseMarkerLandsInTrace) {
    node::ParallelClusterConfig cfg;
    cfg.trace_capacity = 65536;
    const graph::Graph g = graph::make_path(3);
    node::ParallelCluster c(g, [&g](NodeId) {
        return std::make_unique<topo::BroadcastProtocol>(
            g, topo::BroadcastScheme::kBranchingPaths);
    }, cfg);
    c.mark_phase(5, 2);
    c.start(0, 0);
    c.run();
    bool saw_phase = false;
    for (const auto& r : c.merged_trace()) {
        if (r.kind == TraceKind::kPhase) {
            saw_phase = true;
            EXPECT_EQ(r.node, kNoNode);
            EXPECT_EQ(r.a, 2u);
            EXPECT_EQ(r.at, 5);
        }
    }
    EXPECT_TRUE(saw_phase);
    EXPECT_EQ(c.merged_metrics().phase(), 2u);
}

}  // namespace
}  // namespace fastnet::sim
