// Causal critical-path engine (src/obs/critical_path.hpp): unit-level
// checks on handcrafted record streams — the exact-sum conservation law,
// segment classification (hop splits, timer wait vs retry backoff),
// witness and top-N selection, the bounded-memory controls (horizon
// pruning, live/blame caps) and their confidence counters — plus the
// BoundAudit bridge and the spill-side checks: LineageIndex ancestry
// under link-layer duplication (dup_ppm) and spill inputs split across
// multiple directories.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/audit.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace_query.hpp"
#include "paris/call_setup.hpp"
#include "paris/workload.hpp"
#include "sim/record_source.hpp"
#include "sim/trace.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::obs {
namespace {

sim::TraceRecord rec(sim::TraceKind kind, Tick at, NodeId node, std::uint64_t lineage,
                     std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0) {
    sim::TraceRecord r;
    r.kind = kind;
    r.at = at;
    r.node = node;
    r.lineage = lineage;
    r.a = a;
    r.b = b;
    r.c = c;
    return r;
}

Tick seg(const SegmentTotals& t, SegmentKind k) {
    return t.ticks[static_cast<unsigned>(k)];
}

/// critical_path over records held in memory.
CriticalPathReport report_of(std::span<const sim::TraceRecord> rs,
                             const CriticalPathConfig& cfg = {}) {
    sim::SpanSource src(rs);
    CriticalPathReport report;
    EXPECT_TRUE(critical_path(src, cfg, report));
    return report;
}

// ---- exact-sum attribution on handcrafted chains ------------------------

TEST(CriticalPath, TwoLegChainTilesExactly) {
    // Root send at t=0, delivered at t=10 (busy 2): transit 8, handler 2.
    // Child injected in the delivery handler, delivered at t=25 (busy 3):
    // transit 12, handler 3. Latency 25 = 8+2+12+3.
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kSend, 0, 0, 1, 0, /*parent=*/0, /*sent=*/0));
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, /*busy=*/2, /*sent=*/0));
    rs.push_back(rec(sim::TraceKind::kSend, 10, 1, 2, 0, /*parent=*/1, /*sent=*/10));
    rs.push_back(rec(sim::TraceKind::kDeliver, 25, 2, 2, 0, /*busy=*/3, /*sent=*/10));

    const CriticalPathReport report = report_of(rs);
    ASSERT_TRUE(report.has_witness);
    const PathSummary& w = report.witness;
    EXPECT_EQ(w.root, 1u);
    EXPECT_EQ(w.root_start, 0);
    EXPECT_EQ(w.end, 25);
    EXPECT_EQ(w.terminal, 2u);
    EXPECT_EQ(w.terminal_node, 2u);
    EXPECT_EQ(w.depth, 2u);
    EXPECT_EQ(w.latency(), 25);
    EXPECT_EQ(seg(w.totals, SegmentKind::kTransit), 20);
    EXPECT_EQ(seg(w.totals, SegmentKind::kHandler), 5);
    EXPECT_EQ(seg(w.totals, SegmentKind::kQueueing), 0);
    EXPECT_EQ(w.totals.total(), w.latency());
    EXPECT_EQ(report.clamped, 0u);
    EXPECT_EQ(report.unanchored_sends, 0u);
}

TEST(CriticalPath, DeferredSendGapIsQueueing) {
    // The child is injected 4 ticks after its parent's completion (A1
    // serialization): the gap must be priced as queueing, and the sum
    // must still tile.
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 2, 0));
    rs.push_back(rec(sim::TraceKind::kSend, 14, 1, 2, 0, 1, 14));
    rs.push_back(rec(sim::TraceKind::kDeliver, 20, 2, 2, 0, 1, 14));

    const CriticalPathReport report = report_of(rs);
    const PathSummary& w = report.witness;
    EXPECT_EQ(w.latency(), 20);
    EXPECT_EQ(seg(w.totals, SegmentKind::kQueueing), 4);
    EXPECT_EQ(w.totals.total(), w.latency());
}

TEST(CriticalPath, HopRecordSplitsTransitFromSwitchQueueing) {
    // Last hop lands at t=6; handler starts at t=8. With the hop record:
    // transit [0,6], queueing [6,8], handler [8,10]. Without it, the
    // whole pre-handler span folds into transit.
    std::vector<sim::TraceRecord> with_hop;
    with_hop.push_back(rec(sim::TraceKind::kSend, 0, 0, 1, 0, 0, 0));
    with_hop.push_back(rec(sim::TraceKind::kHop, 6, 1, 1, /*edge=*/7, 0, /*hop_sent=*/0));
    with_hop.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 2, 0));
    const CriticalPathReport split = report_of(with_hop);
    EXPECT_EQ(seg(split.witness.totals, SegmentKind::kTransit), 6);
    EXPECT_EQ(seg(split.witness.totals, SegmentKind::kQueueing), 2);
    EXPECT_EQ(seg(split.witness.totals, SegmentKind::kHandler), 2);
    EXPECT_EQ(split.witness.totals.total(), split.witness.latency());
    // The hop also prices its edge in link blame.
    ASSERT_EQ(split.link_blame.size(), 1u);
    EXPECT_EQ(split.link_blame[0].key, kLinkBlameBit | 7u);
    EXPECT_EQ(seg(split.link_blame[0].totals, SegmentKind::kTransit), 6);

    std::vector<sim::TraceRecord> no_hop = {with_hop[0], with_hop[2]};
    const CriticalPathReport folded = report_of(no_hop);
    EXPECT_EQ(seg(folded.witness.totals, SegmentKind::kTransit), 8);
    EXPECT_EQ(seg(folded.witness.totals, SegmentKind::kQueueing), 0);
}

TEST(CriticalPath, TimerCookieKindSelectsRetryBackoff) {
    // A timer armed at the delivery (t=10) fires at t=30 (busy 1, wait
    // 19) and its handler sends a child delivered at t=35 — the witness
    // path crosses the timer leg. Cookie low nibble 5 = paris retry =>
    // the wait is retry backoff; any other nibble stays timer wait.
    const auto run = [](std::uint64_t cookie) {
        std::vector<sim::TraceRecord> rs;
        rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 2, 0));
        rs.push_back(rec(sim::TraceKind::kTimer, 30, 1, 1, cookie, /*busy=*/1,
                         /*armed=*/10));
        rs.push_back(rec(sim::TraceKind::kSend, 30, 1, 2, 0, /*parent=*/1, 30));
        rs.push_back(rec(sim::TraceKind::kDeliver, 35, 2, 2, 0, /*busy=*/2, 30));
        return report_of(rs);
    };
    const CriticalPathReport retry = run(0x25);  // kind nibble 5
    EXPECT_EQ(retry.witness.latency(), 35);
    EXPECT_EQ(seg(retry.witness.totals, SegmentKind::kRetryBackoff), 19);
    EXPECT_EQ(seg(retry.witness.totals, SegmentKind::kTimerWait), 0);
    EXPECT_EQ(retry.witness.totals.total(), retry.witness.latency());
    EXPECT_EQ(retry.timer_fires, 1u);

    const CriticalPathReport lease = run(0x26);  // kind nibble 6
    EXPECT_EQ(seg(lease.witness.totals, SegmentKind::kTimerWait), 19);
    EXPECT_EQ(seg(lease.witness.totals, SegmentKind::kRetryBackoff), 0);
    EXPECT_EQ(lease.witness.totals.total(), lease.witness.latency());
}

TEST(CriticalPath, UnanchoredTimerWithoutRootEntries) {
    // With anchor_root_deliveries off, the root delivery leaves no live
    // entry, so a later timer on that lineage self-anchors at its arming
    // tick and is counted as unanchored. The downstream delivery then
    // reports a path rooted at the arming anchor — shorter, never wrong.
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 2, 0));
    rs.push_back(rec(sim::TraceKind::kTimer, 30, 1, 1, 0, 1, 10));
    rs.push_back(rec(sim::TraceKind::kSend, 30, 1, 2, 0, /*parent=*/1, 30));
    rs.push_back(rec(sim::TraceKind::kDeliver, 35, 2, 2, 0, /*busy=*/1, 30));
    CriticalPathConfig cfg;
    cfg.anchor_root_deliveries = false;
    const CriticalPathReport report = report_of(rs, cfg);
    EXPECT_EQ(report.unanchored_timers, 1u);
    EXPECT_EQ(report.witness.root_start, 10);
    EXPECT_EQ(report.witness.latency(), 25);
    EXPECT_EQ(report.witness.totals.total(), 25);
}

TEST(CriticalPath, AnchorClampsAreCountedNotSmeared) {
    // A delivery claiming it was sent *after* it arrived (c > at) must
    // clamp, count, and keep the tiling exact.
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 5, 1, 1, 0, /*busy=*/0, /*sent=*/9));
    const CriticalPathReport report = report_of(rs);
    EXPECT_GE(report.clamped, 1u);
    EXPECT_EQ(report.witness.totals.total(), report.witness.latency());
}

// ---- witness and top-N selection ----------------------------------------

TEST(CriticalPath, WitnessTieKeepsFirstInMergeOrder) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 1, 0));
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 2, 2, 0, 1, 3));
    const CriticalPathReport report = report_of(rs);
    EXPECT_EQ(report.witness.root, 1u);  // strict > keeps the first
    EXPECT_EQ(report.witness.end, 10);
}

TEST(CriticalPath, TopNSortsByLatencyThenRootAndTruncates) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 5, 0, 1, 0));   // latency 10
    rs.push_back(rec(sim::TraceKind::kDeliver, 30, 2, 3, 0, 1, 0));   // latency 30
    rs.push_back(rec(sim::TraceKind::kDeliver, 40, 3, 7, 0, 1, 20));  // latency 20
    CriticalPathConfig cfg;
    cfg.top = 2;
    const CriticalPathReport report = report_of(rs, cfg);
    ASSERT_EQ(report.top.size(), 2u);
    EXPECT_EQ(report.top[0].root, 3u);
    EXPECT_EQ(report.top[0].latency(), 30);
    EXPECT_EQ(report.top[1].root, 7u);
    EXPECT_EQ(report.top[1].latency(), 20);
    EXPECT_EQ(report.roots_tracked, 3u);
    // The witness is the max-completion delivery, independent of top-N.
    EXPECT_EQ(report.witness.root, 7u);
}

TEST(CriticalPath, WitnessOnlyModeTracksNoTrees) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 1, 0));
    rs.push_back(rec(sim::TraceKind::kDeliver, 30, 2, 2, 0, 1, 0));
    CriticalPathConfig cfg;
    cfg.top = 0;
    const CriticalPathReport report = report_of(rs, cfg);
    EXPECT_TRUE(report.top.empty());
    EXPECT_EQ(report.roots_tracked, 0u);
    EXPECT_EQ(report.witness.latency(), 30);
}

// ---- bounded-memory controls --------------------------------------------

TEST(CriticalPath, HorizonPrunesStaleChainsAndCountsThem) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 0, 1, 1, 0, 0, 0));
    // Far in the future: the sweep fires and evicts lineage 1's entry.
    rs.push_back(rec(sim::TraceKind::kDeliver, 10'000, 2, 2, 0, 0, 9'990));
    rs.push_back(rec(sim::TraceKind::kTimer, 10'050, 1, 1, 0, 1, 10'040));
    CriticalPathConfig cfg;
    cfg.horizon = 100;
    const CriticalPathReport report = report_of(rs, cfg);
    EXPECT_GE(report.live_pruned, 1u);
    EXPECT_EQ(report.unanchored_timers, 1u);  // its chain state was swept
}

TEST(CriticalPath, BlameIsExactUnderPruning) {
    // Blame is priced per record, so sweeping chain state must not change
    // it: same records, aggressive horizon vs none, identical blame.
    std::vector<sim::TraceRecord> rs;
    for (Tick t = 0; t < 20; ++t) {
        const std::uint64_t lin = static_cast<std::uint64_t>(t) + 1;
        rs.push_back(rec(sim::TraceKind::kSend, t * 500, 0, lin, 0, 0, t * 500));
        rs.push_back(
            rec(sim::TraceKind::kDeliver, t * 500 + 9, 1, lin, 0, /*busy=*/3, t * 500));
    }
    CriticalPathConfig tight;
    tight.horizon = 50;
    const CriticalPathReport pruned = report_of(rs, tight);
    const CriticalPathReport full = report_of(rs);
    ASSERT_EQ(pruned.node_blame.size(), full.node_blame.size());
    for (std::size_t i = 0; i < full.node_blame.size(); ++i) {
        EXPECT_EQ(pruned.node_blame[i].key, full.node_blame[i].key);
        EXPECT_EQ(pruned.node_blame[i].totals.ticks, full.node_blame[i].totals.ticks);
    }
}

TEST(CriticalPath, LiveCapSkipsAndCounts) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 1, 0));  // entry for root 1
    rs.push_back(rec(sim::TraceKind::kSend, 10, 1, 2, 0, /*parent=*/1, 10));
    CriticalPathConfig cfg;
    cfg.max_live = 1;
    const CriticalPathReport report = report_of(rs, cfg);
    EXPECT_EQ(report.live_skipped, 1u);
}

TEST(CriticalPath, BlameCapEvictsAndCounts) {
    std::vector<sim::TraceRecord> rs;
    for (NodeId u = 0; u < 8; ++u)
        rs.push_back(rec(sim::TraceKind::kDeliver, 10, u, u + 1, 0, 1, 0));
    CriticalPathConfig cfg;
    cfg.blame_capacity = 3;
    const CriticalPathReport report = report_of(rs, cfg);
    EXPECT_EQ(report.node_blame.size(), 3u);
    EXPECT_GE(report.blame_evicted, 5u);
}

// ---- audit bridge and stats folding -------------------------------------

TEST(CriticalPath, ToPathStatsFoldsReportCounters) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 10, 1, 1, 0, 2, 0));
    rs.push_back(rec(sim::TraceKind::kTimer, 30, 1, 1, 0x25, 1, 10));
    const CriticalPathReport report = report_of(rs);
    const cost::CriticalPathStats stats = to_path_stats(report);
    EXPECT_TRUE(stats.computed);
    EXPECT_EQ(stats.witness.end, report.witness.end);
    EXPECT_EQ(stats.witness.segments, report.witness.totals.ticks);
    EXPECT_EQ(stats.witness.segment_sum(), stats.witness.latency());
    EXPECT_EQ(stats.deliveries, report.deliveries);
    EXPECT_EQ(stats.top.size(), report.top.size());
}

TEST(CriticalPath, BoundAuditPassesWithinBoundAndTripsBeyond) {
    std::vector<sim::TraceRecord> rs;
    rs.push_back(rec(sim::TraceKind::kDeliver, 25, 1, 1, 0, 2, 0));
    const cost::CriticalPathStats stats = to_path_stats(report_of(rs));

    BoundAudit ok("cp");
    ok.critical_path(stats, 25.0);
    EXPECT_TRUE(ok.pass());

    BoundAudit trip("cp");
    trip.critical_path(stats, 24.0);
    EXPECT_FALSE(trip.pass());
    EXPECT_EQ(trip.violation_count(), 1u);
}

// ---- spill satellites: duplication and multi-directory inputs -----------

/// A small sharded paris call scenario with link-layer duplication,
/// traced to a spill directory (one file per shard) and resident in
/// parallel for reference.
struct DupRun {
    std::vector<sim::TraceRecord> records;
    std::vector<std::string> spill_paths;
};

DupRun run_dup_scenario(const std::string& spill_dir) {
    Rng shape(1234);
    auto g = std::make_shared<graph::Graph>(graph::make_random_connected(10, 2, 4, shape));

    paris::CallAgentOptions aopt;
    aopt.setup_timeout = 24;
    aopt.max_retries = 2;
    aopt.retry_backoff = 8;
    aopt.workload.arrivals = paris::ArrivalProcess::kPoisson;
    aopt.workload.mean_interarrival = 40;
    aopt.workload.mean_hold = 60;
    aopt.workload.first_at = 5;
    aopt.workload.until = 300;

    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 2;
    cfg.seed = 99;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.net.dup_ppm = 80'000;  // the satellite under test: duplicate copies
    if (spill_dir.empty()) {
        cfg.trace_capacity = std::size_t{1} << 18;
        cfg.trace_detail_capacity = std::size_t{1} << 18;
    } else {
        cfg.trace_capacity = 256;
        cfg.trace_detail_capacity = 4096;
        cfg.trace_spill_dir = spill_dir;
        cfg.trace_budget_bytes = 16 * 1024;
    }
    node::ParallelCluster cluster(*g, paris::make_call_workload(g, aopt), cfg);
    cluster.start_all(0);
    cluster.run();

    DupRun out;
    if (spill_dir.empty()) {
        out.records = cluster.merged_trace();
    } else {
        std::string error;
        out.spill_paths = sim::spill_files(spill_dir, &error);
    }
    return out;
}

TEST(CriticalPath, LineageIndexAncestryUnderDuplication) {
    const std::string dir = "test_cp_dup.spill";
    std::filesystem::remove_all(dir);
    const DupRun resident = run_dup_scenario("");
    const DupRun spilled = run_dup_scenario(dir);
    ASSERT_EQ(spilled.spill_paths.size(), 2u);

    sim::SpillMerge merge;
    LineageIndex idx;
    std::string error;
    ASSERT_TRUE(merge.open(spilled.spill_paths, &error)) << error;
    ASSERT_TRUE(idx.build(merge, &error)) << error;
    ASSERT_GT(idx.size(), 0u);

    // Duplicated copies re-deliver existing lineages but never mint new
    // kSend records, so the index must still agree with the in-memory
    // ancestry walk for every lineage in the run.
    unsigned checked = 0;
    for (const sim::TraceRecord& r : resident.records) {
        if (r.kind != sim::TraceKind::kSend || checked >= 300) continue;
        ++checked;
        EXPECT_EQ(idx.ancestry(r.lineage), lineage_ancestry(resident.records, r.lineage))
            << "lineage " << r.lineage;
    }
    ASSERT_GT(checked, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CriticalPath, MultiDirectorySpillInputsMergeLikeOneDirectory) {
    const std::string dir = "test_cp_multi.spill";
    const std::string dir_a = dir + "/a";
    const std::string dir_b = dir + "/b";
    std::filesystem::remove_all(dir);
    const DupRun spilled = run_dup_scenario(dir + "/all");
    ASSERT_EQ(spilled.spill_paths.size(), 2u);

    // Split the per-shard files across two directories — the operator
    // handing fastnet_trace several spill locations of one run.
    std::filesystem::create_directories(dir_a);
    std::filesystem::create_directories(dir_b);
    std::filesystem::copy_file(spilled.spill_paths[0],
                               dir_a + "/shard0.fnspill");
    std::filesystem::copy_file(spilled.spill_paths[1],
                               dir_b + "/shard1.fnspill");
    std::string error;
    std::vector<std::string> multi = sim::spill_files(dir_a, &error);
    const std::vector<std::string> b = sim::spill_files(dir_b, &error);
    multi.insert(multi.end(), b.begin(), b.end());
    ASSERT_EQ(multi.size(), 2u);

    // Index, attribution and chain collection must all be invariant to
    // how the same files are spread over directories.
    // Each query reads a fresh merge of one of the two file lists.
    sim::SpillMerge merge;
    const auto one_dir = [&]() -> sim::RecordSource& {
        EXPECT_TRUE(merge.open(spilled.spill_paths, &error)) << error;
        return merge;
    };
    const auto two_dirs = [&]() -> sim::RecordSource& {
        EXPECT_TRUE(merge.open(multi, &error)) << error;
        return merge;
    };
    LineageIndex one, two;
    ASSERT_TRUE(one.build(one_dir(), &error)) << error;
    ASSERT_TRUE(two.build(two_dirs(), &error)) << error;
    ASSERT_EQ(one.size(), two.size());

    CriticalPathReport r_one, r_two;
    ASSERT_TRUE(critical_path(one_dir(), {}, r_one, &error)) << error;
    ASSERT_TRUE(critical_path(two_dirs(), {}, r_two, &error)) << error;
    EXPECT_EQ(format_critical_path(r_one), format_critical_path(r_two));
    ASSERT_TRUE(r_one.has_witness);

    std::vector<sim::TraceRecord> chain_one, chain_two;
    ASSERT_TRUE(chain_records(one_dir(), one.ancestry(r_one.witness.terminal), chain_one,
                              &error))
        << error;
    ASSERT_TRUE(chain_records(two_dirs(), two.ancestry(r_two.witness.terminal), chain_two,
                              &error))
        << error;
    ASSERT_FALSE(chain_one.empty());
    ASSERT_EQ(chain_one.size(), chain_two.size());
    for (std::size_t i = 0; i < chain_one.size(); ++i) {
        EXPECT_EQ(chain_one[i].at, chain_two[i].at);
        EXPECT_EQ(chain_one[i].lineage, chain_two[i].lineage);
    }

    // The witness chain supports an exact backward waterfall: segments
    // tile [root_start, end] with no gaps.
    const PathWaterfall wf = path_waterfall(chain_one, r_one.witness);
    ASSERT_FALSE(wf.segments.empty());
    Tick covered = 0;
    for (const PathSegment& s : wf.segments) covered += s.end - s.start;
    if (wf.elided == 0) {
        EXPECT_EQ(covered, r_one.witness.latency());
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastnet::obs
