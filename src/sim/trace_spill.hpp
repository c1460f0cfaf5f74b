// Spill-to-disk backing store for sim::Trace — the piece that lets a
// million-node traced run keep a bounded resident footprint.
//
// A Trace with spill enabled never overwrites its ring: whenever the
// ring (or the configured resident budget) fills, the resident records
// and their detail-arena slices are drained to an append-only binary
// *spill file* as one chunked segment, and the ring restarts empty.
// Each segment is sorted by (at, node_sort_key, seq) at drain time,
// where `seq` is the per-shard recording index — so every segment is a
// sorted run, and a k-way merge over all segments of all shards
// (SpillMerge, ordered by (at, node_sort_key, shard, seq)) reproduces
// exactly the order `node::ParallelCluster::merged_trace` produces with
// std::stable_sort over concatenated in-memory snapshots. That identity
// is what makes spilled exports byte-identical to the in-memory path
// (see docs/OBSERVABILITY.md, "Tracing at scale").
//
// On-disk layout (all integers little-endian):
//   file   := header segment* stats?
//   header := "FNSPILL1" u32 version=2 u32 shard
//   segment:= u32 0x46534547 ("GESF") u32 record_count u64 payload_bytes
//             record*            — payload_bytes of records
//   record := i64 at  u64 seq  u64 lineage  u64 a  u64 b  u64 c
//             u32 node  u32 detail_len  u8 kind  u8 flag  detail bytes
//   stats  := u32 0x46535354 ("TSSF") u32 0 u64 32
//             u64 total_recorded  u64 dropped  u64 detail_dropped
//             u64 spilled_records
//
// Version history: v1 records had no `c` word (50 fixed bytes instead
// of 58). Readers accept both; v1 records materialize with c = 0.
// Writers always emit the current version.
//
// A reader tolerates a truncated tail (crash mid-segment): complete
// segments are kept, the partial one is discarded, and when the stats
// trailer is missing the totals are rebuilt from the surviving segments
// and flagged `recovered`. A complete segment whose record count
// disagrees with its payload_bytes is corrupt, not truncated: the
// reader stops with an error naming the file and the segment.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sim/record_source.hpp"
#include "sim/trace.hpp"

namespace fastnet::sim {

/// Sort key that places network-scope records (node == kNoNode) after
/// every real node at the same tick — the merged-trace ordering contract
/// shared by ParallelCluster::merged_trace and SpillMerge.
inline std::uint64_t trace_node_sort_key(NodeId node) {
    return node == kNoNode ? ~0ULL : static_cast<std::uint64_t>(node);
}

inline constexpr char kSpillMagic[8] = {'F', 'N', 'S', 'P', 'I', 'L', 'L', '1'};
inline constexpr std::uint32_t kSpillVersion = 2;
/// Oldest version the readers still accept (records without `c`).
inline constexpr std::uint32_t kSpillMinVersion = 1;
inline constexpr std::uint32_t kSpillSegmentMagic = 0x46534547;  // "GESF"
inline constexpr std::uint32_t kSpillStatsMagic = 0x46535354;    // "TSSF"

/// Run totals carried in the stats trailer (or rebuilt by the reader
/// after a crash-truncated file).
struct SpillStats {
    std::uint64_t total_recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t detail_dropped = 0;
    std::uint64_t spilled_records = 0;
    bool recovered = false;  ///< Reader-side: trailer missing, totals rebuilt.
};

/// Appends segments to one shard's spill file. Owned by sim::Trace when
/// spill is enabled; also usable directly by tests.
class SpillWriter {
public:
    /// One record as drained from the ring; `detail` views the trace's
    /// arena and is copied into the segment payload.
    struct Item {
        Tick at = 0;
        std::uint64_t seq = 0;
        std::uint64_t lineage = 0;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::uint64_t c = 0;
        NodeId node = kNoNode;
        TraceKind kind = TraceKind::kCustom;
        std::uint8_t flag = 0;
        std::string_view detail{};
    };

    SpillWriter() = default;

    bool open(const std::string& path, std::uint32_t shard, std::string* error = nullptr);
    bool is_open() const { return out_.is_open(); }
    const std::string& path() const { return path_; }

    /// Sorts `items` by (at, node_sort_key, seq) and appends them as one
    /// segment. Empty batches write nothing.
    bool write_segment(std::vector<Item>& items);

    /// Writes the stats trailer and closes the file.
    bool finish(const SpillStats& stats);

    std::uint64_t segments() const { return segments_; }
    std::uint64_t records() const { return records_; }
    std::uint64_t bytes_written() const { return bytes_; }

private:
    std::ofstream out_;
    std::string path_;
    std::string buf_;  ///< Reused segment build buffer.
    std::uint64_t segments_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t bytes_ = 0;
};

/// Directory of one spill file: segment table + stats, parsed up front.
class SpillFile {
public:
    struct Segment {
        std::uint64_t offset = 0;  ///< File offset of the first record.
        std::uint32_t records = 0;
        std::uint64_t payload_bytes = 0;
    };

    bool open(const std::string& path, std::string* error = nullptr);
    const std::string& path() const { return path_; }
    std::uint32_t shard() const { return shard_; }
    /// Format version of this file (see kSpillVersion history note).
    std::uint32_t version() const { return version_; }
    const std::vector<Segment>& segments() const { return segments_; }
    const SpillStats& stats() const { return stats_; }
    /// True when the file ended mid-segment (crash); the partial segment
    /// was discarded.
    bool truncated() const { return truncated_; }

private:
    std::string path_;
    std::uint32_t shard_ = 0;
    std::uint32_t version_ = kSpillVersion;
    std::vector<Segment> segments_;
    SpillStats stats_;
    bool truncated_ = false;
};

/// Bytes one open segment cursor holds resident. Each refill reads at
/// most one block, so a merge over k segments reads with k blocks and
/// never maps or loads a whole segment.
inline constexpr std::size_t kSpillReadBlockBytes = std::size_t{16} << 10;

/// Streams the records of one segment of one spill file. Reads exactly
/// the segment's payload, one block at a time; a record count that
/// disagrees with the payload size, or a kind byte that names no
/// TraceKind, is a decode error.
class SpillSegmentCursor {
public:
    bool open(const SpillFile& file, std::size_t segment_index,
              std::string* error = nullptr);
    /// False at end of segment or on a decode error (see error()).
    bool next(TraceRecord& out, std::uint64_t& seq);
    /// Why next() stopped early, naming the file and the segment; empty
    /// after a clean end.
    const std::string& error() const { return error_; }

private:
    /// Moves the unread bytes to the front of the block and reads up to
    /// a block of payload behind them; false unless `need` (at most
    /// kSpillReadBlockBytes) bytes are then unread.
    bool refill(std::size_t need);
    /// Records `what` as this segment's error and ends the stream.
    bool fail_segment(const std::string& what);

    std::ifstream in_;
    std::unique_ptr<char[]> block_;
    std::size_t pos_ = 0;          ///< First unread byte in block_.
    std::size_t end_ = 0;          ///< End of the bytes read into block_.
    std::uint64_t unread_ = 0;     ///< Payload bytes not yet read from the file.
    std::uint32_t remaining_ = 0;  ///< Records not yet decoded.
    std::uint32_t records_ = 0;    ///< The segment's record count, for error messages.
    bool has_c_ = true;  ///< False for v1 files (no `c` word; reads 0).
    std::string path_;
    std::size_t segment_ = 0;
    std::string error_;
};

/// Canonical per-shard spill file name inside `dir`:
/// `<dir>/shard-NNNN.fnspill` (zero-padded, so lexicographic directory
/// order equals shard order).
std::string spill_shard_path(const std::string& dir, std::uint32_t shard);

/// True when `path` names a file starting with the spill magic.
bool is_spill_file(const std::string& path);

/// Expands `path` to the spill files it names: the file itself, or every
/// `*.fnspill` in the directory (sorted by name, which matches shard
/// order for writer-produced files). Empty result + error on failure.
std::vector<std::string> spill_files(const std::string& path, std::string* error = nullptr);

/// Deterministic k-way merge over every segment of every given spill
/// file, ordered by (at, node_sort_key, shard, seq) — the stable-sort
/// order of the in-memory merged trace. Streams one record at a time;
/// resident memory is one read block per segment, not O(total records).
class SpillMerge final : public RecordSource {
public:
    /// Opens the files and restarts the stream. On failure the merge is
    /// an empty stream whose error() says why, so a query handed it
    /// fails instead of reading zero records.
    bool open(const std::vector<std::string>& paths, std::string* error = nullptr);
    /// Pops the next record in merged order; false at end of stream or
    /// once any segment fails to decode (see error()).
    bool next(TraceRecord& out) override;
    /// Why open() failed, or the first segment decode error, naming the
    /// file and the segment; empty while the stream is valid. A query
    /// that ends with a non-empty error() read a corrupt file and must
    /// not report success.
    const std::string& error() const override { return error_; }
    /// Summed trailer stats of every input file.
    const SpillStats& totals() const { return totals_; }
    /// True when any input file was crash-truncated.
    bool truncated() const { return truncated_; }
    std::size_t file_count() const { return files_.size(); }

private:
    struct Cursor {
        SpillSegmentCursor reader;
        TraceRecord head;
        std::uint64_t seq = 0;
        std::uint32_t shard = 0;
    };

    /// Merge order of two cursor heads.
    bool before(std::size_t x, std::size_t y) const;
    /// Restores the heap below slot 0 after its cursor's head changed.
    void sift_down();

    std::vector<std::unique_ptr<SpillFile>> files_;
    std::vector<Cursor> cursors_;
    std::vector<std::size_t> heap_;  ///< Indices into cursors_, min-heap.
    SpillStats totals_;
    bool truncated_ = false;
    std::string error_;
};

}  // namespace fastnet::sim
