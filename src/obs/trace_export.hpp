// Trace exporters + loaders: the bridge from sim::Trace to files.
//
// Two formats, both deterministic (byte-identical for identical traces,
// regardless of thread count or host — scripts/trace_smoke.sh diffs
// them across runs):
//
//  * Canonical JSON — the repo's own flat schema. Every record with all
//    typed fields; exact integers; loadable back (load_canonical) for
//    offline querying by fastnet_trace and the tests. Schema:
//      {"fastnet_trace": 1, "name": ..., "nodes": N,
//       "edges": [[a,b], ...], "total_recorded": T, "dropped": D,
//       "detail_dropped": DD, "records": [
//         {"at":..,"node":..,"kind":"send","lineage":..,"a":..,"b":..,
//          "flag":..}, ...]}
//    ("node": -1 encodes a network-scope record; "detail" appears only
//     when non-empty.)
//
//  * Chrome trace-event JSON — loadable in Perfetto / chrome://tracing.
//    pid 1 ("ncu") has one thread track per node carrying "X" complete
//    events for handler executions (ts = completion − busy, dur = busy)
//    and instants for sends/crashes/restarts; pid 2 ("links") has one
//    thread track per edge carrying instants for hops, drops and
//    duplicates. One tick renders as one microsecond. Lineage ids ride
//    in each event's "args".
//
// check_canonical / check_chrome are strict schema validators (used by
// `fastnet_trace --check` and the tests): they parse with obs::json and
// verify every required key, type and enum value.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "sim/record_source.hpp"
#include "sim/trace.hpp"

namespace fastnet::obs {

/// Static context an exported trace carries along: where it came from
/// and the topology needed to label tracks / resolve edge endpoints.
struct ExportMeta {
    std::string name;     ///< Scenario / case name.
    NodeId nodes = 0;     ///< Node count.
    /// Edge endpoints, indexed by EdgeId.
    std::vector<std::pair<NodeId, NodeId>> edges;
};

/// Builds the meta block from a topology.
ExportMeta make_meta(const graph::Graph& g, std::string name);

/// The canonical flat serialization (schema above).
std::string canonical_trace_json(const sim::Trace& trace, const ExportMeta& meta);

/// The Chrome trace-event serialization (schema above).
std::string chrome_trace_json(const sim::Trace& trace, const ExportMeta& meta);

/// Canonical serialization over an already-merged record list — the
/// parallel kernel sorts its per-shard snapshots and exports them with
/// this overload. The counters are the summed per-shard totals, so the
/// output is byte-identical to a single-shard export of the same run.
std::string canonical_trace_json(const std::vector<sim::TraceRecord>& records,
                                 const ExportMeta& meta, std::uint64_t total_recorded,
                                 std::uint64_t dropped, std::uint64_t detail_dropped);

/// Chrome serialization over an already-merged record list.
std::string chrome_trace_json(const std::vector<sim::TraceRecord>& records,
                              const ExportMeta& meta);

/// Streams `src` as a canonical export into `os`, one record at a time.
/// Every canonical export is written by this function, so a spill merge
/// and the in-memory records of the same run give the same bytes. False,
/// with the reason in `error`, when the stream failed part-way (what was
/// written is not an export) or `os` failed.
bool write_canonical(sim::RecordSource& src, const ExportMeta& meta,
                     std::uint64_t total_recorded, std::uint64_t dropped,
                     std::uint64_t detail_dropped, std::ostream& os,
                     std::string* error = nullptr);

/// Streams `src` as a Chrome trace-event export into `os`; the same
/// contract as write_canonical.
bool write_chrome(sim::RecordSource& src, const ExportMeta& meta, std::ostream& os,
                  std::string* error = nullptr);

/// One canonical record object (no separator).
void append_canonical_record(std::string& out, const sim::TraceRecord& r);

/// The closing metadata event + array/object terminators of a Chrome
/// export; extra events (the critical-path overlay) go right before it.
std::string chrome_trace_footer(const ExportMeta& meta);

/// A canonical export read back from disk.
struct LoadedTrace {
    ExportMeta meta;
    std::uint64_t total_recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t detail_dropped = 0;
    std::vector<sim::TraceRecord> records;
};

/// Parses + validates a canonical export. Returns false (with a message
/// in `error` when non-null) on malformed JSON or schema violations.
bool load_canonical(std::string_view json_text, LoadedTrace& out,
                    std::string* error = nullptr);

/// Validates a canonical export without keeping the records.
bool check_canonical(std::string_view json_text, std::string* error = nullptr);

/// Validates a Chrome trace-event export: traceEvents array, known
/// phases, required per-phase fields, non-negative integer timestamps.
bool check_chrome(std::string_view json_text, std::string* error = nullptr);

}  // namespace fastnet::obs
