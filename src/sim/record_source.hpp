// One pull interface over trace records, so that every trace query is
// written once. The records come in merged order ((at, node_sort_key,
// shard, seq), the order of ParallelCluster::merged_trace) from any of:
//
//  * a spill merge (sim::SpillMerge over spill files or directories);
//  * records already in memory (SpanSource over a Trace snapshot, a
//    merged trace or a canonical export read back with load_canonical).
//
// A source is read once, front to back; a query that needs a second
// pass opens a second source.
#pragma once

#include <span>
#include <string>

#include "sim/trace.hpp"

namespace fastnet::sim {

class RecordSource {
public:
    /// The next record; false at the end of the stream or once the
    /// source failed (see error()).
    virtual bool next(TraceRecord& out) = 0;
    /// Why the stream failed; empty while it is valid and after a clean
    /// end.
    virtual const std::string& error() const = 0;

protected:
    /// Sources are owned by their concrete type, never through this one.
    ~RecordSource() = default;
};

/// Records already in memory. Never fails.
class SpanSource final : public RecordSource {
public:
    explicit SpanSource(std::span<const TraceRecord> records) : records_(records) {}

    bool next(TraceRecord& out) override {
        if (pos_ == records_.size()) return false;
        out = records_[pos_++];
        return true;
    }
    const std::string& error() const override { return no_error_; }

private:
    std::span<const TraceRecord> records_;
    std::size_t pos_ = 0;
    std::string no_error_;
};

/// Calls `f` on every record of `src` in stream order: the one loop over
/// records that every query runs. False, with the source's error in
/// `error`, when the stream failed part-way; what `f` saw until then is
/// not a result.
template <typename F>
bool drain(RecordSource& src, std::string* error, F&& f) {
    TraceRecord r;
    while (src.next(r)) f(r);
    if (src.error().empty()) return true;
    if (error != nullptr) *error = src.error();
    return false;
}

}  // namespace fastnet::sim
