#include "sim/trace_spill.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/expect.hpp"

namespace fastnet::sim {

namespace {

/// Fixed-size part of one on-disk record (the detail bytes follow).
constexpr std::size_t kRecordFixedBytes = 8 * 6 + 4 + 4 + 1 + 1;
/// v1 records lacked the `c` word.
constexpr std::size_t kRecordFixedBytesV1 = 8 * 5 + 4 + 4 + 1 + 1;
constexpr std::size_t kSegmentHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4;
constexpr std::size_t kStatsPayloadBytes = 8 * 4;

static_assert(std::endian::native == std::endian::little,
              "spill files store and load each little-endian field with one plain copy");

/// Reads one little-endian field of an on-disk record or header.
template <typename T>
T load(const void* p) {
    T v{};
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/// Writes one little-endian field of an on-disk record or header.
template <typename T>
void store(char* p, T v) {
    std::memcpy(p, &v, sizeof(v));
}

/// One stable counting-sort pass of src[0, n) into dst by the byte
/// `digit` picks from each key; `count` is that byte's histogram.
template <typename Key, typename Digit>
void scatter(const Key* src, Key* dst, std::size_t n, const std::uint32_t* count,
             Digit digit) {
    std::uint32_t offset[256];
    std::uint32_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
        offset[b] = sum;
        sum += count[b];
    }
    for (std::size_t i = 0; i < n; ++i) dst[offset[digit(src[i])]++] = src[i];
}

bool fail(std::string* error, const std::string& message) {
    if (error) *error = message;
    return false;
}

}  // namespace

bool SpillWriter::open(const std::string& path, std::uint32_t shard, std::string* error) {
    FASTNET_EXPECTS(!out_.is_open());
    // Unbuffered: every write goes straight from block_, which is the
    // only write buffer this writer keeps.
    out_.rdbuf()->pubsetbuf(nullptr, 0);
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) return fail(error, "cannot open spill file " + path);
    path_ = path;
    block_ = std::make_unique_for_overwrite<char[]>(kSpillWriteBlockBytes);
    block_used_ = 0;
    // The header waits in the block for the first segment or the trailer.
    char header[kFileHeaderBytes];
    std::memcpy(header, kSpillMagic, sizeof(kSpillMagic));
    store(header + 8, kSpillVersion);
    store(header + 12, shard);
    put(header, sizeof(header));
    bytes_ = sizeof(header);
    return true;
}

void SpillWriter::emit() {
    if (block_used_ == 0) return;
    out_.write(block_.get(), static_cast<std::streamsize>(block_used_));
    block_used_ = 0;
}

void SpillWriter::put(const char* data, std::size_t size) {
    if (size > kSpillWriteBlockBytes - block_used_) {
        emit();
        if (size > kSpillWriteBlockBytes) {
            out_.write(data, static_cast<std::streamsize>(size));
            return;
        }
    }
    std::memcpy(block_.get() + block_used_, data, size);
    block_used_ += size;
}

const SpillWriter::SortKey* SpillWriter::sort_keys(std::span<const RingRecord> records,
                                                   Tick min_at, std::uint64_t at_span,
                                                   std::uint32_t node_max) {
    // Stable LSD radix over (at - min_at, node rank), one byte a pass:
    // the node's bytes first, then the tick's. Bytes above a span's
    // width are zero in every key, and a byte that is the same in every
    // key costs no pass either.
    const std::size_t n = records.size();
    const auto node_bytes = static_cast<unsigned>(std::bit_width(node_max) + 7) / 8;
    const auto at_bytes = static_cast<unsigned>(std::bit_width(at_span) + 7) / 8;
    std::uint32_t count[12][256] = {};  // node bytes 0-3, then tick bytes 0-7
    SortKey* src = keys_.get();
    SortKey* dst = keys_.get() + key_capacity_;
    for (std::size_t i = 0; i < n; ++i) {
        const RingRecord& r = records[i];
        SortKey& k = src[i];
        k.at = static_cast<std::uint64_t>(r.at) - static_cast<std::uint64_t>(min_at);
        k.node = r.node == kNoNode ? node_max : r.node;
        k.index = static_cast<std::uint32_t>(i);
        for (unsigned d = 0; d < node_bytes; ++d) ++count[d][(k.node >> (8 * d)) & 0xff];
        for (unsigned d = 0; d < at_bytes; ++d) ++count[4 + d][(k.at >> (8 * d)) & 0xff];
    }
    for (unsigned d = 0; d < node_bytes; ++d) {
        const unsigned shift = 8 * d;
        if (count[d][(src[0].node >> shift) & 0xff] == n) continue;
        scatter(src, dst, n, count[d],
                [shift](const SortKey& k) { return (k.node >> shift) & 0xff; });
        std::swap(src, dst);
    }
    for (unsigned d = 0; d < at_bytes; ++d) {
        const unsigned shift = 8 * d;
        if (count[4 + d][(src[0].at >> shift) & 0xff] == n) continue;
        scatter(src, dst, n, count[4 + d],
                [shift](const SortKey& k) { return (k.at >> shift) & 0xff; });
        std::swap(src, dst);
    }
    return src;
}

bool SpillWriter::write_segment(std::span<const RingRecord> records, std::string_view arena,
                                std::uint64_t first_seq) {
    FASTNET_EXPECTS(out_.is_open());
    const std::size_t n = records.size();
    if (n == 0) return true;
    FASTNET_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
    if (!out_) return false;  // an earlier write failed; the file ends there

    Tick min_at = records[0].at;
    Tick max_at = records[0].at;
    NodeId max_node = 0;
    bool network_scope = false;
    std::uint64_t payload = n * kRecordFixedBytes;
    for (const RingRecord& r : records) {
        min_at = std::min(min_at, r.at);
        max_at = std::max(max_at, r.at);
        if (r.node == kNoNode)
            network_scope = true;
        else
            max_node = std::max(max_node, r.node);
        payload += r.detail_len;
    }
    if (key_capacity_ < n) {
        keys_.reset();
        keys_ = std::make_unique_for_overwrite<SortKey[]>(2 * n);
        key_capacity_ = n;
    }
    // kNoNode ranks right after the segment's largest real node: the
    // order of trace_node_sort_key, over the narrowest node span.
    const SortKey* sorted =
        sort_keys(records, min_at,
                  static_cast<std::uint64_t>(max_at) - static_cast<std::uint64_t>(min_at),
                  network_scope ? max_node + 1 : max_node);

    char header[kSegmentHeaderBytes];
    store(header, kSpillSegmentMagic);
    store(header + 4, static_cast<std::uint32_t>(n));
    store(header + 8, payload);
    put(header, sizeof(header));
    for (std::size_t i = 0; i < n; ++i) {
        const RingRecord& r = records[sorted[i].index];
        if (kSpillWriteBlockBytes - block_used_ < kRecordFixedBytes) emit();
        char* p = block_.get() + block_used_;
        store(p, r.at);
        store(p + 8, first_seq + sorted[i].index);
        store(p + 16, r.lineage);
        store(p + 24, r.a);
        store(p + 32, r.b);
        store(p + 40, r.c);
        store(p + 48, r.node);
        store(p + 52, r.detail_len);
        store(p + 56, r.kind);
        store(p + 57, r.flag);
        block_used_ += kRecordFixedBytes;
        if (r.detail_len != 0) put(arena.data() + r.detail_at, r.detail_len);
    }
    // The segment reaches the file whole before the drain returns.
    emit();
    if (!out_) return false;
    ++segments_;
    records_ += n;
    bytes_ += kSegmentHeaderBytes + payload;
    return true;
}

bool SpillWriter::finish(const SpillStats& stats) {
    FASTNET_EXPECTS(out_.is_open());
    char trailer[kSegmentHeaderBytes + kStatsPayloadBytes];
    store(trailer, kSpillStatsMagic);
    store(trailer + 4, std::uint32_t{0});
    store(trailer + 8, std::uint64_t{kStatsPayloadBytes});
    store(trailer + 16, stats.total_recorded);
    store(trailer + 24, stats.dropped);
    store(trailer + 32, stats.detail_dropped);
    store(trailer + 40, stats.spilled_records);
    put(trailer, sizeof(trailer));
    emit();
    bytes_ += sizeof(trailer);
    out_.close();
    return static_cast<bool>(out_);
}

bool SpillFile::open(const std::string& path, std::string* error) {
    path_ = path;
    segments_.clear();
    stats_ = {};
    truncated_ = false;
    std::ifstream in(path, std::ios::binary);
    if (!in) return fail(error, "cannot open spill file " + path);
    in.seekg(0, std::ios::end);
    const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    unsigned char header[kFileHeaderBytes];
    if (!in.read(reinterpret_cast<char*>(header), sizeof(header)))
        return fail(error, path + ": not a spill file (short header)");
    if (std::memcmp(header, kSpillMagic, sizeof(kSpillMagic)) != 0)
        return fail(error, path + ": not a spill file (bad magic)");
    version_ = load<std::uint32_t>(header + 8);
    if (version_ < kSpillMinVersion || version_ > kSpillVersion)
        return fail(error,
                    path + ": unsupported spill version " + std::to_string(version_));
    shard_ = load<std::uint32_t>(header + 12);

    std::uint64_t offset = kFileHeaderBytes;
    bool saw_stats = false;
    while (offset + kSegmentHeaderBytes <= file_size) {
        unsigned char seg[kSegmentHeaderBytes];
        in.seekg(static_cast<std::streamoff>(offset));
        if (!in.read(reinterpret_cast<char*>(seg), sizeof(seg))) break;
        const std::uint32_t magic = load<std::uint32_t>(seg);
        const std::uint32_t count = load<std::uint32_t>(seg + 4);
        const std::uint64_t payload = load<std::uint64_t>(seg + 8);
        if (offset + kSegmentHeaderBytes + payload > file_size) {
            // Crash mid-segment: drop the partial tail.
            truncated_ = true;
            break;
        }
        if (magic == kSpillSegmentMagic) {
            Segment s;
            s.offset = offset + kSegmentHeaderBytes;
            s.records = count;
            s.payload_bytes = payload;
            segments_.push_back(s);
        } else if (magic == kSpillStatsMagic) {
            if (payload != kStatsPayloadBytes)
                return fail(error, path + ": malformed stats trailer");
            unsigned char body[kStatsPayloadBytes];
            if (!in.read(reinterpret_cast<char*>(body), sizeof(body))) break;
            stats_.total_recorded = load<std::uint64_t>(body);
            stats_.dropped = load<std::uint64_t>(body + 8);
            stats_.detail_dropped = load<std::uint64_t>(body + 16);
            stats_.spilled_records = load<std::uint64_t>(body + 24);
            saw_stats = true;
        } else {
            return fail(error, path + ": corrupt segment header at offset " +
                                   std::to_string(offset));
        }
        offset += kSegmentHeaderBytes + payload;
    }
    if (offset < file_size && !truncated_) truncated_ = true;
    if (!saw_stats) {
        // Crash before the trailer: rebuild what the segments prove.
        truncated_ = true;
        stats_.recovered = true;
        for (const Segment& s : segments_) stats_.spilled_records += s.records;
        stats_.total_recorded = stats_.spilled_records;
    }
    return true;
}

bool SpillSegmentCursor::open(const SpillFile& file, std::size_t segment_index,
                              std::string* error) {
    FASTNET_EXPECTS(segment_index < file.segments().size());
    const SpillFile::Segment& seg = file.segments()[segment_index];
    // Unbuffered: every read goes straight into block_, which is the
    // only read buffer this cursor keeps resident.
    in_.rdbuf()->pubsetbuf(nullptr, 0);
    in_.open(file.path(), std::ios::binary);
    if (!in_) return fail(error, "cannot open spill file " + file.path());
    in_.seekg(static_cast<std::streamoff>(seg.offset));
    block_ = std::make_unique_for_overwrite<char[]>(kSpillReadBlockBytes);
    unread_ = seg.payload_bytes;
    remaining_ = records_ = seg.records;
    has_c_ = file.version() >= 2;
    path_ = file.path();
    segment_ = segment_index;
    return true;
}

bool SpillSegmentCursor::fail_segment(const std::string& what) {
    error_ = path_ + ": segment " + std::to_string(segment_) + ": " + what;
    remaining_ = 0;
    pos_ = end_ = 0;
    unread_ = 0;
    return false;
}

bool SpillSegmentCursor::refill(std::size_t need) {
    std::memmove(block_.get(), block_.get() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kSpillReadBlockBytes - end_, unread_));
    if (want != 0) {
        if (!in_.read(block_.get() + end_, static_cast<std::streamsize>(want)))
            return fail_segment("short read inside segment");
        end_ += want;
        unread_ -= want;
    }
    if (end_ >= need) return true;
    return fail_segment("payload ends inside record " +
                        std::to_string(records_ - remaining_ + 1) + " of " +
                        std::to_string(records_));
}

bool SpillSegmentCursor::next(TraceRecord& out, std::uint64_t& seq) {
    if (remaining_ == 0) {
        const std::uint64_t left = end_ - pos_ + unread_;
        if (left != 0)
            return fail_segment(std::to_string(left) + " payload byte(s) left after its " +
                                std::to_string(records_) + " record(s)");
        return false;
    }
    // Past `b` the v1 layout simply omits the 8-byte `c` word.
    const std::size_t fixed_bytes = has_c_ ? kRecordFixedBytes : kRecordFixedBytesV1;
    if (end_ - pos_ < fixed_bytes && !refill(fixed_bytes)) return false;
    const char* p = block_.get() + pos_;
    out.at = static_cast<Tick>(load<std::uint64_t>(p));
    seq = load<std::uint64_t>(p + 8);
    out.lineage = load<std::uint64_t>(p + 16);
    out.a = load<std::uint64_t>(p + 24);
    out.b = load<std::uint64_t>(p + 32);
    const std::size_t tail = has_c_ ? 40 : 32;
    out.c = has_c_ ? load<std::uint64_t>(p + 40) : 0;
    out.node = load<std::uint32_t>(p + tail + 8);
    const std::uint32_t detail_len = load<std::uint32_t>(p + tail + 12);
    const std::uint8_t kind = load<std::uint8_t>(p + tail + 16);
    if (kind >= kTraceKindCount)  // queries index per-kind tables with it
        return fail_segment("record " + std::to_string(records_ - remaining_ + 1) +
                            " has unknown kind " + std::to_string(kind));
    out.kind = static_cast<TraceKind>(kind);
    out.flag = load<std::uint8_t>(p + tail + 17);
    pos_ += fixed_bytes;
    if (detail_len == 0) {
        out.detail.clear();
    } else if (detail_len <= kSpillReadBlockBytes) {
        if (end_ - pos_ < detail_len && !refill(detail_len)) return false;
        out.detail.assign(block_.get() + pos_, detail_len);
        pos_ += detail_len;
    } else {
        // Longer than a block: take what the block holds, read the rest
        // straight into the record.
        const std::size_t held = end_ - pos_;
        if (detail_len > held + unread_)
            return fail_segment("detail of record " +
                                std::to_string(records_ - remaining_ + 1) +
                                " runs past the payload");
        out.detail.resize(detail_len);
        std::memcpy(out.detail.data(), block_.get() + pos_, held);
        pos_ = end_ = 0;
        if (!in_.read(out.detail.data() + held, static_cast<std::streamsize>(detail_len - held)))
            return fail_segment("short detail read inside segment");
        unread_ -= detail_len - held;
    }
    --remaining_;
    return true;
}

std::string spill_shard_path(const std::string& dir, std::uint32_t shard) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04u.fnspill", shard);
    return (std::filesystem::path(dir) / name).string();
}

bool is_spill_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    char magic[sizeof(kSpillMagic)];
    if (!in.read(magic, sizeof(magic))) return false;
    return std::memcmp(magic, kSpillMagic, sizeof(kSpillMagic)) == 0;
}

std::vector<std::string> spill_files(const std::string& path, std::string* error) {
    std::vector<std::string> out;
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
        for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
            if (!entry.is_regular_file()) continue;
            if (entry.path().extension() == ".fnspill")
                out.push_back(entry.path().string());
        }
        std::sort(out.begin(), out.end());
        if (out.empty()) fail(error, path + ": no *.fnspill files in directory");
        return out;
    }
    if (!std::filesystem::is_regular_file(path, ec)) {
        fail(error, path + ": no such file or directory");
        return out;
    }
    out.push_back(path);
    return out;
}

bool SpillMerge::open(const std::vector<std::string>& paths, std::string* error) {
    files_.clear();
    cursors_.clear();
    heap_.clear();
    totals_ = {};
    truncated_ = false;
    error_.clear();
    const auto failed = [&] {
        heap_.clear();
        return fail(error, error_);
    };
    if (paths.empty()) {
        error_ = "no spill files to merge";
        return failed();
    }
    for (const std::string& p : paths) {
        auto file = std::make_unique<SpillFile>();
        if (!file->open(p, &error_)) return failed();
        totals_.total_recorded += file->stats().total_recorded;
        totals_.dropped += file->stats().dropped;
        totals_.detail_dropped += file->stats().detail_dropped;
        totals_.spilled_records += file->stats().spilled_records;
        totals_.recovered = totals_.recovered || file->stats().recovered;
        truncated_ = truncated_ || file->truncated();
        for (std::size_t s = 0; s < file->segments().size(); ++s) {
            cursors_.emplace_back();
            Cursor& c = cursors_.back();
            c.shard = file->shard();
            if (!c.reader.open(*file, s, &error_)) return failed();
        }
        files_.push_back(std::move(file));
    }
    for (std::size_t i = 0; i < cursors_.size(); ++i) {
        Cursor& c = cursors_[i];
        if (c.reader.next(c.head, c.seq)) {
            heap_.push_back(i);
        } else if (!c.reader.error().empty()) {
            error_ = c.reader.error();
            return failed();
        }
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [this](std::size_t x, std::size_t y) { return before(y, x); });
    return true;
}

bool SpillMerge::before(std::size_t x, std::size_t y) const {
    const Cursor& a = cursors_[x];
    const Cursor& b = cursors_[y];
    if (a.head.at != b.head.at) return a.head.at < b.head.at;
    const std::uint64_t ak = trace_node_sort_key(a.head.node);
    const std::uint64_t bk = trace_node_sort_key(b.head.node);
    if (ak != bk) return ak < bk;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
}

void SpillMerge::sift_down() {
    const std::size_t n = heap_.size();
    const std::size_t moving = heap_[0];
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
        if (!before(heap_[child], moving)) break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = moving;
}

bool SpillMerge::next(TraceRecord& out) {
    if (heap_.empty()) return false;
    // Replace the top in place: the popped cursor's next record usually
    // still precedes every other head (segments overlap only at a drain
    // tick), so one sift-down costs two comparisons.
    Cursor& top = cursors_[heap_[0]];
    std::swap(out, top.head);
    if (!top.reader.next(top.head, top.seq)) {
        if (!top.reader.error().empty()) {
            error_ = top.reader.error();
            heap_.clear();
            return false;
        }
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (heap_.empty()) return true;
    }
    sift_down();
    return true;
}

}  // namespace fastnet::sim
