// Query and export over spill files (sim/trace_spill.hpp) without ever
// materializing the full trace.
//
// The exporters stream a SpillMerge through the shared per-record
// serializer pieces of obs/trace_export.hpp — the output is
// byte-identical to canonical_trace_json / chrome_trace_json over the
// in-memory merged trace of the same run (scripts/trace_spill_smoke.sh
// diffs exactly this across shard and thread counts).
//
// Causal queries (--chain / --violations in fastnet_trace) need the
// lineage parent map: the `b` field of each lineage's first kSend
// record. LineageIndex builds that map in one streaming pass and can
// persist it as a tiny sidecar file next to the spill data, so repeated
// queries against a large spill directory skip the scan entirely.
//
// Sidecar layout (little-endian): "FNLIDX01" u64 count, then count
// (u64 lineage, u64 parent) pairs sorted by lineage.
//
// Every streaming query below returns false, with `error` naming the
// file and the segment, when a segment fails to decode part-way
// (sim::SpillMerge::error()); what it wrote or collected up to then is
// not a result.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::obs {

/// Streams the merged records of `paths` (spill files; see
/// sim::spill_files for directory expansion) as a canonical trace
/// export. The header counters come from the files' stats trailers.
/// Byte-identical to canonical_trace_json over the merged trace.
bool spill_canonical_json(const std::vector<std::string>& paths, const ExportMeta& meta,
                          std::ostream& os, std::string* error = nullptr);

/// Streams the merged records as a Chrome trace-event export,
/// byte-identical to chrome_trace_json over the merged trace.
bool spill_chrome_json(const std::vector<std::string>& paths, const ExportMeta& meta,
                       std::ostream& os, std::string* error = nullptr);

/// Streams the merge and collects only the records `keep` accepts —
/// resident memory scales with the match set, not the trace.
bool spill_collect(const std::vector<std::string>& paths,
                   const std::function<bool(const sim::TraceRecord&)>& keep,
                   std::vector<sim::TraceRecord>& out, std::string* error = nullptr);

/// Streams the merged records of `paths` through a CriticalPathBuilder
/// in one bounded-memory pass — the spill-side twin of
/// obs::critical_path over in-memory records. `peak_memory_bytes`
/// (optional) receives the builder's maximum resident footprint, what
/// bench_critical_path gates against the 4 MiB budget.
bool spill_critical_path(const std::vector<std::string>& paths,
                         const CriticalPathConfig& config, CriticalPathReport& out,
                         std::string* error = nullptr,
                         std::size_t* peak_memory_bytes = nullptr);

/// One-pass summary of a spill data set.
struct SpillSummary {
    sim::SpillStats stats;
    std::array<std::uint64_t, sim::kTraceKindCount> counts{};
    Tick first_at = 0;
    Tick last_at = 0;
    std::uint64_t records = 0;  ///< Records actually present in segments.
    std::size_t files = 0;
    bool truncated = false;  ///< Any input crash-truncated (tail recovered).
};

bool spill_summarize(const std::vector<std::string>& paths, SpillSummary& out,
                     std::string* error = nullptr);

/// The lineage -> causal parent map of a spill data set: for each
/// lineage, the `b` of its first kSend record in merge order — the
/// exact relation obs::lineage_ancestry walks on in-memory records.
class LineageIndex {
public:
    /// Builds the map by streaming `paths` (kSend records only).
    bool build(const std::vector<std::string>& paths, std::string* error = nullptr);

    /// Sidecar I/O (format in the header comment above).
    bool save(const std::string& path, std::string* error = nullptr) const;
    bool load(const std::string& path, std::string* error = nullptr);

    /// Causal parent of `lineage`; 0 = root / unknown.
    std::uint64_t parent_of(std::uint64_t lineage) const;

    /// Ancestry path, oldest first, ending with `lineage` — the same
    /// walk (including the cycle guard) as obs::lineage_ancestry.
    std::vector<std::uint64_t> ancestry(std::uint64_t lineage) const;

    std::size_t size() const { return pairs_.size(); }

private:
    /// Sorted by lineage; binary-searched by parent_of.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs_;
};

/// Collects the full record set of one reported chain (every record of
/// the terminal lineage's ancestry, merge order) — exactly the
/// chain_records input obs::path_waterfall wants. Streams the spill
/// once; resident memory scales with the chain, not the trace.
bool spill_chain_records(const std::vector<std::string>& paths, const LineageIndex& index,
                         std::uint64_t terminal, std::vector<sim::TraceRecord>& out,
                         std::string* error = nullptr);

/// Canonical sidecar location for a spill file or directory:
/// `<file>.fnlidx` / `<dir>/lineage.fnlidx`.
std::string lineage_index_path(const std::string& spill_path);

}  // namespace fastnet::obs
