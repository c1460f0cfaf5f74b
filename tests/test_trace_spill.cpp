// The spill reader (src/sim/trace_spill.hpp) on inputs the traced runs
// never produce: a version-1 file, records that straddle the read
// blocks, segments whose record count disagrees with their payload and
// a record of unknown kind. Every query over a corrupt segment must
// fail and name the file and the segment instead of streaming records
// decoded from the wrong bytes.
//
// The spill writer: the bytes of a traced run's spill file are pinned,
// and every segment of randomly shaped batches must be the stable sort
// of its slice of the recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fnv1a.hpp"
#include "graph/generators.hpp"
#include "node/parallel_cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/monitor.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"
#include "paris/call_setup.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::sim {
namespace {

void put_u32(std::string& buf, std::uint32_t v) {
    for (unsigned i = 0; i < 4; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& buf, std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Streams every record of `path` through SpillMerge; fails the test on
/// a decode error.
std::vector<TraceRecord> merge_all(const std::string& path) {
    SpillMerge merge;
    std::string error;
    EXPECT_TRUE(merge.open({path}, &error)) << error;
    std::vector<TraceRecord> out;
    for (TraceRecord r; merge.next(r);) out.push_back(r);
    EXPECT_EQ(merge.error(), "");
    return out;
}

TEST(SpillReader, ReadsVersion1File) {
    // A hand-built v1 file: 50-byte records without the `c` word.
    struct V1 {
        Tick at;
        std::uint64_t seq, lineage, a, b;
        NodeId node;
        TraceKind kind;
        std::uint8_t flag;
        std::string detail;
    };
    const std::vector<V1> records = {
        {3, 0, 7, 11, 13, 2, TraceKind::kSend, 0, ""},
        {5, 1, 7, 1, 2, kNoNode, TraceKind::kDrop, 4, ""},
        {9, 2, 0, 0, 0, 1, TraceKind::kViolation, 255, "node 1 saw \"two\" leaders"},
    };
    std::string payload;
    for (const V1& r : records) {
        put_u64(payload, static_cast<std::uint64_t>(r.at));
        put_u64(payload, r.seq);
        put_u64(payload, r.lineage);
        put_u64(payload, r.a);
        put_u64(payload, r.b);
        put_u32(payload, r.node);
        put_u32(payload, static_cast<std::uint32_t>(r.detail.size()));
        payload.push_back(static_cast<char>(r.kind));
        payload.push_back(static_cast<char>(r.flag));
        payload += r.detail;
    }
    ASSERT_EQ(payload.size(), 3 * 50 + records[2].detail.size());
    std::string file(kSpillMagic, sizeof(kSpillMagic));
    put_u32(file, kSpillMinVersion);
    put_u32(file, 5);  // shard
    put_u32(file, kSpillSegmentMagic);
    put_u32(file, static_cast<std::uint32_t>(records.size()));
    put_u64(file, payload.size());
    file += payload;
    put_u32(file, kSpillStatsMagic);
    put_u32(file, 0);
    put_u64(file, 32);
    put_u64(file, 3);  // total_recorded
    put_u64(file, 0);
    put_u64(file, 0);
    put_u64(file, 3);  // spilled_records
    const std::string path = "test_spill_reader_v1.fnspill";
    write_bytes(path, file);

    SpillFile spill;
    std::string error;
    ASSERT_TRUE(spill.open(path, &error)) << error;
    EXPECT_EQ(spill.version(), 1u);
    EXPECT_EQ(spill.shard(), 5u);
    EXPECT_FALSE(spill.truncated());
    ASSERT_EQ(spill.segments().size(), 1u);
    SpillSegmentCursor cursor;
    ASSERT_TRUE(cursor.open(spill, 0, &error)) << error;
    TraceRecord r;
    std::uint64_t seq = 0;
    for (const V1& want : records) {
        ASSERT_TRUE(cursor.next(r, seq)) << cursor.error();
        EXPECT_EQ(r.at, want.at);
        EXPECT_EQ(seq, want.seq);
        EXPECT_EQ(r.lineage, want.lineage);
        EXPECT_EQ(r.a, want.a);
        EXPECT_EQ(r.b, want.b);
        EXPECT_EQ(r.c, 0u);
        EXPECT_EQ(r.node, want.node);
        EXPECT_EQ(r.kind, want.kind);
        EXPECT_EQ(r.flag, want.flag);
        EXPECT_EQ(r.detail, want.detail);
    }
    EXPECT_FALSE(cursor.next(r, seq));
    EXPECT_EQ(cursor.error(), "");
    EXPECT_EQ(merge_all(path).size(), records.size());
    std::filesystem::remove(path);
}

TEST(SpillReader, RecordsStraddleBlocks) {
    // Details of many lengths move record boundaries across every offset
    // of a block; the long ones span one or several blocks whole.
    const std::vector<std::size_t> long_details = {
        kSpillReadBlockBytes - 1, kSpillReadBlockBytes, kSpillReadBlockBytes + 1,
        3 * kSpillReadBlockBytes + 17};
    std::vector<std::string> details;
    for (std::size_t i = 0; i < 700; ++i) details.push_back(std::string((i * 37) % 301, 'a'));
    for (std::size_t k = 0; k < long_details.size(); ++k)
        details[100 + 150 * k] = std::string(long_details[k], 'b');
    for (std::size_t i = 0; i < details.size(); ++i)
        for (std::size_t j = 0; j < details[i].size(); j += 7)
            details[i][j] = static_cast<char>('0' + (i + j) % 10);

    std::string arena;
    std::vector<RingRecord> records;
    for (std::size_t i = 0; i < details.size(); ++i) {
        RingRecord r;
        r.at = static_cast<Tick>(i / 3);
        r.lineage = i * 1'000'003;
        r.a = ~std::uint64_t{0} - i;
        r.b = i << 40;
        r.c = i % 5 == 0 ? 0 : i + 1;
        r.node = i % 11 == 0 ? kNoNode : static_cast<NodeId>(i % 17);
        r.kind = static_cast<TraceKind>(i % kTraceKindCount);
        r.flag = static_cast<std::uint8_t>(i * 7);
        r.detail_at = static_cast<std::uint32_t>(arena.size());
        r.detail_len = static_cast<std::uint32_t>(details[i].size());
        arena += details[i];
        records.push_back(r);
    }
    const std::string path = "test_spill_reader_blocks.fnspill";
    SpillWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, 0, &error)) << error;
    ASSERT_TRUE(writer.write_segment(records, arena, 0));  // record i has seq i
    ASSERT_TRUE(writer.finish({}));
    ASSERT_GT(writer.bytes_written(), 8 * kSpillReadBlockBytes);

    // The segment is one sorted run in (at, node_sort_key, seq) order.
    std::vector<std::size_t> order(records.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        const RingRecord& rx = records[x];
        const RingRecord& ry = records[y];
        if (rx.at != ry.at) return rx.at < ry.at;
        if (trace_node_sort_key(rx.node) != trace_node_sort_key(ry.node))
            return trace_node_sort_key(rx.node) < trace_node_sort_key(ry.node);
        return x < y;
    });
    const std::vector<TraceRecord> got = merge_all(path);
    ASSERT_EQ(got.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RingRecord& want = records[order[i]];
        EXPECT_EQ(got[i].at, want.at) << i;
        EXPECT_EQ(got[i].lineage, want.lineage) << i;
        EXPECT_EQ(got[i].a, want.a) << i;
        EXPECT_EQ(got[i].b, want.b) << i;
        EXPECT_EQ(got[i].c, want.c) << i;
        EXPECT_EQ(got[i].node, want.node) << i;
        EXPECT_EQ(got[i].kind, want.kind) << i;
        EXPECT_EQ(got[i].flag, want.flag) << i;
        EXPECT_EQ(got[i].detail, details[order[i]]) << i;
    }
    std::filesystem::remove(path);
}

/// Writes two SpillWriter segments of three records each.
void write_two_segments(const std::string& path) {
    SpillWriter writer;
    std::string error;
    EXPECT_TRUE(writer.open(path, 0, &error)) << error;
    for (Tick base : {Tick{100}, Tick{200}}) {
        std::vector<RingRecord> records;
        for (std::uint64_t i = 0; i < 3; ++i) {
            RingRecord r;
            r.at = base + static_cast<Tick>(i);
            r.lineage = i + 1;
            r.node = static_cast<NodeId>(i);
            r.kind = i == 0 ? TraceKind::kStart : TraceKind::kSend;
            records.push_back(r);
        }
        // Record i has seq base + i.
        EXPECT_TRUE(writer.write_segment(records, {}, static_cast<std::uint64_t>(base)));
    }
    SpillStats stats;
    stats.total_recorded = stats.spilled_records = 6;
    EXPECT_TRUE(writer.finish(stats));
}

/// Overwrites `value` (little-endian) at byte `offset` of the file.
template <typename T>
void patch(const std::string& path, std::size_t offset, T value) {
    std::string bytes = read_bytes(path);
    ASSERT_LE(offset + sizeof(T), bytes.size());
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
    write_bytes(path, bytes);
}

/// Byte offsets in a write_two_segments file: the first segment's
/// record count (after the 16-byte file header and the segment magic)
/// and its first record; the kind byte and the size of a record without
/// a detail.
constexpr std::size_t kFirstCount = 16 + 4;
constexpr std::size_t kFirstRecord = 16 + 16;
constexpr std::size_t kKindInRecord = 8 * 6 + 4 + 4;
constexpr std::size_t kRecordBytes = kKindInRecord + 2;

/// Every query over a merge of `path` must fail with an error naming the
/// file, its first segment and `reason`.
void expect_every_query_fails(const std::string& path, const std::string& reason) {
    const auto names_segment = [&](const std::string& error) {
        return error.find(path) != std::string::npos &&
               error.find("segment 0") != std::string::npos &&
               error.find(reason) != std::string::npos;
    };
    // Each query reads a fresh merge; the file opens, and the corruption
    // surfaces part-way through the stream.
    SpillMerge merge;
    std::string error;
    const auto reopened = [&]() -> RecordSource& {
        EXPECT_TRUE(merge.open({path}, &error)) << error;
        error.clear();
        return merge;
    };
    obs::TraceSummary summary;
    EXPECT_FALSE(obs::summarize(reopened(), summary, &error))
        << summary.records << " record(s) read as valid";
    EXPECT_TRUE(names_segment(error)) << error;

    const obs::ExportMeta meta{"miscounted", 3, {}};
    std::ostringstream canonical, chrome;
    EXPECT_FALSE(obs::write_canonical(reopened(), meta, 0, 0, 0, canonical, &error));
    EXPECT_TRUE(names_segment(error)) << error;
    EXPECT_FALSE(obs::write_chrome(reopened(), meta, chrome, &error));
    EXPECT_TRUE(names_segment(error)) << error;

    std::vector<TraceRecord> kept;
    EXPECT_FALSE(obs::filter_records(reopened(), {}, kept, &error));
    EXPECT_TRUE(names_segment(error)) << error;

    obs::CriticalPathReport report;
    EXPECT_FALSE(obs::critical_path(reopened(), {}, report, &error));
    EXPECT_TRUE(names_segment(error)) << error;

    obs::LineageIndex index;
    EXPECT_FALSE(index.build(reopened(), &error));
    EXPECT_TRUE(names_segment(error)) << error;
}

TEST(SpillReader, RecordCountAbovePayloadIsAnError) {
    // The fourth "record" would be decoded from the next segment's header.
    const std::string path = "test_spill_reader_over.fnspill";
    write_two_segments(path);
    patch(path, kFirstCount, std::uint32_t{4});
    expect_every_query_fails(path, "payload ends inside record 4 of 4");
    std::filesystem::remove(path);
}

TEST(SpillReader, RecordCountBelowPayloadIsAnError) {
    // The third record's bytes would be left unread and silently skipped.
    const std::string path = "test_spill_reader_under.fnspill";
    write_two_segments(path);
    patch(path, kFirstCount, std::uint32_t{2});
    expect_every_query_fails(path, "58 payload byte(s) left after its 2 record(s)");
    std::filesystem::remove(path);
}

TEST(SpillReader, UnknownKindIsAnError) {
    // The queries index per-kind tables by the kind byte.
    const std::string path = "test_spill_reader_kind.fnspill";
    write_two_segments(path);
    patch(path, kFirstRecord + kRecordBytes + kKindInRecord, std::uint8_t{200});
    expect_every_query_fails(path, "record 2 has unknown kind 200");
    std::filesystem::remove(path);
}

TEST(SpillReader, PayloadShorterThanFirstRecordFailsOpen) {
    // One record promised, ten payload bytes given: the merge cannot
    // produce the segment's first head, so open() itself fails.
    std::string file(kSpillMagic, sizeof(kSpillMagic));
    put_u32(file, kSpillVersion);
    put_u32(file, 0);
    put_u32(file, kSpillSegmentMagic);
    put_u32(file, 1);
    put_u64(file, 10);
    file += std::string(10, '\x7f');
    put_u32(file, kSpillStatsMagic);
    put_u32(file, 0);
    put_u64(file, 32);
    for (std::uint64_t v : {1, 0, 0, 1}) put_u64(file, v);
    const std::string path = "test_spill_reader_short.fnspill";
    write_bytes(path, file);

    SpillMerge merge;
    std::string error;
    EXPECT_FALSE(merge.open({path}, &error));
    EXPECT_NE(error.find(path + ": segment 0: payload ends inside record 1 of 1"),
              std::string::npos)
        << error;
    EXPECT_EQ(merge.error(), error);
    std::filesystem::remove(path);
}

TEST(SpillReader, QueryOverAFailedOpenFails) {
    // A merge whose files do not open is an empty stream that carries the
    // reason, so a query handed it fails instead of answering from zero
    // records.
    SpillMerge merge;
    std::string error;
    EXPECT_FALSE(merge.open({"test_spill_reader_missing.fnspill"}, &error));
    EXPECT_EQ(merge.error(), error);
    obs::TraceSummary summary;
    std::string query_error;
    EXPECT_FALSE(obs::summarize(merge, summary, &query_error));
    EXPECT_EQ(query_error, error);
    EXPECT_EQ(summary.records, 0u);
}

TEST(SpillWriter, PinnedSegmentBytes) {
    // A small traced PARIS run at one shard: loss, one crash and restart,
    // and a link spacing the run breaches, so violation details spill too.
    // A 256-record ring drains it into many segments. The fingerprint
    // pins the whole file: header, segment order, record encoding and
    // the stats trailer.
    Rng shape(77);
    auto g = std::make_shared<graph::Graph>(graph::make_random_connected(12, 2, 4, shape));
    paris::CallAgentOptions aopt;
    aopt.link_capacity = 3;
    aopt.setup_timeout = 24;
    aopt.max_retries = 3;
    aopt.retry_backoff = 8;
    aopt.retry_jitter = 4;
    aopt.reservation_ttl = 150;
    aopt.refresh_interval = 50;
    aopt.workload.arrivals = paris::ArrivalProcess::kPoisson;
    aopt.workload.mean_interarrival = 30;
    aopt.workload.mean_hold = 80;
    aopt.workload.first_at = 5;
    aopt.workload.until = 500;

    const std::string dir = "test_spill_writer_pinned";
    std::filesystem::remove_all(dir);
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;
    cfg.params.ncu_delay = 2;
    cfg.seed = 1988;
    cfg.shards = 1;
    cfg.net.loss_ppm = 20'000;
    cfg.trace_capacity = 256;
    cfg.trace_detail_capacity = 2048;
    cfg.trace_spill_dir = dir;
    cfg.monitor_setup = [](obs::MonitorHub& hub) {
        hub.add(std::make_unique<obs::LinkFifoMonitor>(/*link_spacing=*/3));
    };
    node::ParallelCluster cluster(*g, paris::make_call_workload(g, aopt), cfg);
    cluster.start_all(0);
    cluster.crash_node(150, 5);
    cluster.restart_node(260, 5);
    cluster.run();
    ASSERT_EQ(cluster.spill_paths().size(), 1u);
    const std::string path = cluster.spill_paths()[0];
    EXPECT_EQ(cluster.trace_dropped(), 0u);
    EXPECT_EQ(cluster.trace_spilled_records(), cluster.trace_total_recorded());

    // What the pin covers: many segments, crash records and details.
    SpillFile file;
    std::string error;
    ASSERT_TRUE(file.open(path, &error)) << error;
    EXPECT_GE(file.segments().size(), 8u);
    std::uint64_t crashes = 0, violations = 0;
    for (const TraceRecord& r : merge_all(path)) {
        crashes += r.kind == TraceKind::kCrash;
        violations += r.kind == TraceKind::kViolation && !r.detail.empty();
    }
    EXPECT_EQ(crashes, 1u);
    EXPECT_GT(violations, 0u);

    const std::string bytes = read_bytes(path);
    EXPECT_EQ(test_util::fnv1a(bytes), 0xe035e9b8fefa3ec4ULL) << bytes.size() << " bytes";
    std::filesystem::remove_all(dir);
}

TEST(SpillWriter, SegmentOrderMatchesReference) {
    // Randomly shaped batches drain through a spilling Trace. Ticks rise
    // with repeats, fall, sit around zero, spread wider than 2^32 or span
    // the whole Tick range; nodes include kNoNode and ids up to 2^32 - 2;
    // a few details straddle or exceed the writer's block. Every segment
    // must hold its slice of the recording (seq = recording index) in
    // std::stable_sort order by (at, trace_node_sort_key).
    constexpr std::size_t kRing = 700;
    constexpr std::size_t kBlock = kSpillWriteBlockBytes;
    const std::vector<std::size_t> long_details = {kBlock - 58, kBlock - 1, kBlock, kBlock + 1,
                                                   3 * kBlock + 17};
    const std::string path = "test_spill_writer_order.fnspill";
    Trace trace(kRing, 8 * kBlock);
    std::string error;
    ASSERT_TRUE(trace.enable_spill({path, 3, 0}, &error)) << error;

    Rng rng(20261020);
    const auto any_word = [&] { return rng.next(); };
    std::vector<TraceRecord> recorded;
    for (unsigned batch = 0; batch < 48; ++batch) {
        const std::size_t n = 1 + rng.below(2 * kRing);
        const Tick base = rng.range(-1'000'000, 1'000'000);
        for (std::size_t i = 0; i < n; ++i) {
            const auto step = static_cast<Tick>(i);
            TraceRecord r;
            switch (batch % 6) {
                case 0: r.at = base + step / 3; break;                   // rising, repeats
                case 1: r.at = base - step / 2; break;                   // falling, repeats
                case 2: r.at = rng.range(-40, 40); break;                // around zero
                case 3: r.at = base + rng.range(0, Tick{1} << 40); break;  // wider than 2^32
                case 4:
                    r.at = rng.chance(1, 4) ? std::numeric_limits<Tick>::min()
                           : rng.chance(1, 3) ? std::numeric_limits<Tick>::max()
                                              : static_cast<Tick>(any_word());
                    break;
                default: r.at = base; break;  // one tick: nodes and seq decide
            }
            const std::uint64_t pick = rng.below(8);
            r.node = pick == 0   ? kNoNode
                     : pick == 1 ? kNoNode - 1
                     : pick == 2 ? static_cast<NodeId>(rng.below(kNoNode))
                                 : static_cast<NodeId>(rng.below(16));
            r.kind = static_cast<TraceKind>(rng.below(kTraceKindCount));
            r.flag = static_cast<std::uint8_t>(rng.below(256));
            r.lineage = any_word();
            r.a = any_word();
            r.b = any_word();
            r.c = any_word();
            if (rng.chance(1, 40)) {
                const std::size_t len = rng.chance(1, 4)
                                            ? long_details[rng.below(long_details.size())]
                                            : 1 + rng.below(300);
                r.detail.resize(len);
                for (std::size_t j = 0; j < len; ++j)
                    r.detail[j] = static_cast<char>('a' + (i + j) % 26);
            }
            trace.record_detail(r.at, r.node, r.kind, r.detail,
                                {r.lineage, r.a, r.b, r.c, r.flag});
            recorded.push_back(std::move(r));
        }
        trace.flush_spill();
    }
    ASSERT_TRUE(trace.finish_spill());
    ASSERT_EQ(trace.dropped(), 0u);
    ASSERT_EQ(trace.detail_dropped(), 0u);
    ASSERT_EQ(trace.spilled_records(), recorded.size());

    SpillFile file;
    ASSERT_TRUE(file.open(path, &error)) << error;
    EXPECT_EQ(file.shard(), 3u);
    EXPECT_GT(file.segments().size(), 48u);
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < file.segments().size(); ++s) {
        std::vector<std::uint64_t> want(file.segments()[s].records);
        std::iota(want.begin(), want.end(), first);
        std::stable_sort(want.begin(), want.end(), [&](std::uint64_t x, std::uint64_t y) {
            const TraceRecord& rx = recorded[x];
            const TraceRecord& ry = recorded[y];
            if (rx.at != ry.at) return rx.at < ry.at;
            return trace_node_sort_key(rx.node) < trace_node_sort_key(ry.node);
        });
        SpillSegmentCursor cursor;
        ASSERT_TRUE(cursor.open(file, s, &error)) << error;
        TraceRecord got;
        std::uint64_t seq = 0;
        for (const std::uint64_t w : want) {
            ASSERT_TRUE(cursor.next(got, seq)) << cursor.error();
            ASSERT_EQ(seq, w) << "segment " << s;
            const TraceRecord& r = recorded[w];
            EXPECT_EQ(got.at, r.at);
            EXPECT_EQ(got.node, r.node);
            EXPECT_EQ(got.kind, r.kind);
            EXPECT_EQ(got.flag, r.flag);
            EXPECT_EQ(got.lineage, r.lineage);
            EXPECT_EQ(got.a, r.a);
            EXPECT_EQ(got.b, r.b);
            EXPECT_EQ(got.c, r.c);
            EXPECT_EQ(got.detail, r.detail);
        }
        EXPECT_FALSE(cursor.next(got, seq));
        EXPECT_EQ(cursor.error(), "");
        first += want.size();
    }
    EXPECT_EQ(first, recorded.size());
    std::filesystem::remove(path);
}

TEST(SpillWriter, FailedWriteCountsAsDropped) {
    // Every segment write to /dev/full fails. Its records must count as
    // dropped, never as spilled, so the trace stats, the kTraceDrop
    // monitor event and the metrics report the loss.
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    Trace trace(1024);
    std::string error;
    ASSERT_TRUE(trace.enable_spill({"/dev/full", 0, 0}, &error)) << error;
    for (std::uint64_t i = 0; i < 5000; ++i)
        trace.record(static_cast<Tick>(i), static_cast<NodeId>(i % 7), TraceKind::kHop,
                     {i + 1, i, 0, 0, 0});
    EXPECT_FALSE(trace.finish_spill());
    EXPECT_EQ(trace.total_recorded(), 5000u);
    EXPECT_EQ(trace.dropped(), trace.total_recorded());
    EXPECT_EQ(trace.spilled_records(), 0u);
    EXPECT_EQ(trace.spill_segments(), 0u);
}

}  // namespace
}  // namespace fastnet::sim
