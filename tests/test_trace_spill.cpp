// The spill reader (src/sim/trace_spill.hpp) on inputs the traced runs
// never produce: a version-1 file, records that straddle the read
// blocks, segments whose record count disagrees with their payload and
// a record of unknown kind. Every query over a corrupt segment must
// fail and name the file and the segment instead of streaming records
// decoded from the wrong bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/spill_query.hpp"
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

    std::vector<SpillWriter::Item> items;
    for (std::size_t i = 0; i < details.size(); ++i) {
        SpillWriter::Item it;
        it.at = static_cast<Tick>(i / 3);
        it.seq = i;
        it.lineage = i * 1'000'003;
        it.a = ~std::uint64_t{0} - i;
        it.b = i << 40;
        it.c = i % 5 == 0 ? 0 : i + 1;
        it.node = i % 11 == 0 ? kNoNode : static_cast<NodeId>(i % 17);
        it.kind = static_cast<TraceKind>(i % kTraceKindCount);
        it.flag = static_cast<std::uint8_t>(i * 7);
        it.detail = details[i];
        items.push_back(it);
    }
    const std::string path = "test_spill_reader_blocks.fnspill";
    SpillWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, 0, &error)) << error;
    std::vector<SpillWriter::Item> batch = items;  // write_segment sorts its argument
    ASSERT_TRUE(writer.write_segment(batch));
    ASSERT_TRUE(writer.finish({}));
    ASSERT_GT(writer.bytes_written(), 8 * kSpillReadBlockBytes);

    // The segment is one sorted run in (at, node_sort_key, seq) order.
    std::sort(items.begin(), items.end(), [](const auto& x, const auto& y) {
        if (x.at != y.at) return x.at < y.at;
        if (trace_node_sort_key(x.node) != trace_node_sort_key(y.node))
            return trace_node_sort_key(x.node) < trace_node_sort_key(y.node);
        return x.seq < y.seq;
    });
    const std::vector<TraceRecord> got = merge_all(path);
    ASSERT_EQ(got.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const SpillWriter::Item& want = items[i];
        EXPECT_EQ(got[i].at, want.at) << i;
        EXPECT_EQ(got[i].lineage, want.lineage) << i;
        EXPECT_EQ(got[i].a, want.a) << i;
        EXPECT_EQ(got[i].b, want.b) << i;
        EXPECT_EQ(got[i].c, want.c) << i;
        EXPECT_EQ(got[i].node, want.node) << i;
        EXPECT_EQ(got[i].kind, want.kind) << i;
        EXPECT_EQ(got[i].flag, want.flag) << i;
        EXPECT_EQ(got[i].detail, want.detail) << i;
    }
    std::filesystem::remove(path);
}

/// Writes two SpillWriter segments of three records each.
void write_two_segments(const std::string& path) {
    SpillWriter writer;
    std::string error;
    EXPECT_TRUE(writer.open(path, 0, &error)) << error;
    for (Tick base : {Tick{100}, Tick{200}}) {
        std::vector<SpillWriter::Item> items;
        for (std::uint64_t i = 0; i < 3; ++i) {
            SpillWriter::Item it;
            it.at = base + static_cast<Tick>(i);
            it.seq = static_cast<std::uint64_t>(base) + i;
            it.lineage = i + 1;
            it.node = static_cast<NodeId>(i);
            it.kind = i == 0 ? TraceKind::kStart : TraceKind::kSend;
            items.push_back(it);
        }
        EXPECT_TRUE(writer.write_segment(items));
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

/// Every streaming query over `path` must fail with an error naming the
/// file, its first segment and `reason`.
void expect_every_query_fails(const std::string& path, const std::string& reason) {
    const std::vector<std::string> paths = {path};
    const auto names_segment = [&](const std::string& error) {
        return error.find(path) != std::string::npos &&
               error.find("segment 0") != std::string::npos &&
               error.find(reason) != std::string::npos;
    };
    std::string error;
    obs::SpillSummary summary;
    EXPECT_FALSE(obs::spill_summarize(paths, summary, &error))
        << summary.records << " record(s) read as valid";
    EXPECT_TRUE(names_segment(error)) << error;

    const obs::ExportMeta meta{"miscounted", 3, {}};
    std::ostringstream canonical, chrome;
    error.clear();
    EXPECT_FALSE(obs::spill_canonical_json(paths, meta, canonical, &error));
    EXPECT_TRUE(names_segment(error)) << error;
    error.clear();
    EXPECT_FALSE(obs::spill_chrome_json(paths, meta, chrome, &error));
    EXPECT_TRUE(names_segment(error)) << error;

    std::vector<TraceRecord> kept;
    error.clear();
    EXPECT_FALSE(obs::spill_collect(paths, [](const TraceRecord&) { return true; }, kept,
                                    &error));
    EXPECT_TRUE(names_segment(error)) << error;

    obs::CriticalPathReport report;
    error.clear();
    EXPECT_FALSE(obs::spill_critical_path(paths, {}, report, &error));
    EXPECT_TRUE(names_segment(error)) << error;

    obs::LineageIndex index;
    error.clear();
    EXPECT_FALSE(index.build(paths, &error));
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

}  // namespace
}  // namespace fastnet::sim
