// Spill-file entry points kept for perfbench/workloads.cpp, which may
// not change until the next benchmark revision. Each opens a
// sim::SpillMerge over `paths` and runs the query of the same name over
// it; new code calls those queries with a source of its own. The fourth
// entry point, LineageIndex::build(paths), is declared with its class.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_query.hpp"
#include "sim/trace_spill.hpp"

namespace fastnet::obs {

/// write_canonical over the merge, with the files' trailer counters.
inline bool spill_canonical_json(const std::vector<std::string>& paths,
                                 const ExportMeta& meta, std::ostream& os,
                                 std::string* error = nullptr) {
    sim::SpillMerge merge;
    return merge.open(paths, error) &&
           write_canonical(merge, meta, merge.totals().total_recorded,
                           merge.totals().dropped, merge.totals().detail_dropped, os, error);
}

/// critical_path over the merge.
inline bool spill_critical_path(const std::vector<std::string>& paths,
                                const CriticalPathConfig& config, CriticalPathReport& out,
                                std::string* error = nullptr,
                                std::size_t* peak_memory_bytes = nullptr) {
    sim::SpillMerge merge;
    return merge.open(paths, error) &&
           critical_path(merge, config, out, error, peak_memory_bytes);
}

using SpillSummary = TraceSummary;

/// summarize over the merge.
inline bool spill_summarize(const std::vector<std::string>& paths, SpillSummary& out,
                            std::string* error = nullptr) {
    sim::SpillMerge merge;
    return merge.open(paths, error) && summarize(merge, out, error);
}

}  // namespace fastnet::obs
