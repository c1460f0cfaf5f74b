// Offline trace querying: filtering, causal reconstruction, timelines.
//
// Every query reads a sim::RecordSource (sim/record_source.hpp) once,
// front to back: a spill merge, a live Trace::snapshot() or a canonical
// export read back via load_canonical. The same functions serve the
// tests and the fastnet_trace CLI, so anything diagnosable in-process
// is diagnosable from the exported file or the spill files alone, and
// no query holds more than it answers with.
//
// Each query returns false, with the source's error in `error`, when
// the stream failed part-way (a corrupt spill segment); what it
// collected until then is not a result.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/record_source.hpp"
#include "sim/trace.hpp"

namespace fastnet::obs {

/// Conjunctive record filter; unset fields match everything.
struct TraceFilter {
    std::optional<NodeId> node{};
    std::optional<sim::TraceKind> kind{};
    std::optional<std::uint64_t> lineage{};
    std::optional<Tick> from{};  ///< at >= from
    std::optional<Tick> to{};    ///< at <= to

    bool matches(const sim::TraceRecord& r) const;
};

/// The records of `src` that `f` matches, in stream order.
bool filter_records(sim::RecordSource& src, const TraceFilter& f,
                    std::vector<sim::TraceRecord>& out, std::string* error = nullptr);

/// The lineage -> causal parent relation: for each lineage, the `b` (the
/// lineage whose handler performed the send) of its first kSend record
/// in stream order. Built in memory during a pass over the records.
class LineageIndex {
public:
    /// Notes `r` if it is a send; call finish() after the last record.
    void add(const sim::TraceRecord& r) {
        if (r.kind != sim::TraceKind::kSend) return;
        pairs_.emplace_back(r.lineage, r.b);
        finished_ = false;
    }
    /// Keeps the first send of each lineage and makes the index
    /// queryable.
    void finish();
    /// add() over a whole stream, then finish(). On failure the index is
    /// empty.
    bool build(sim::RecordSource& src, std::string* error = nullptr);
    /// The same over a merge of spill files: one of the entry points
    /// obs/spill_query.hpp keeps for perfbench.
    bool build(const std::vector<std::string>& paths, std::string* error = nullptr);

    /// Causal parent of `lineage`; 0 = root / unknown.
    std::uint64_t parent_of(std::uint64_t lineage) const;

    /// The ancestry path of `lineage`, oldest ancestor first, ending with
    /// `lineage` itself (empty only for lineage 0). A lineage with no
    /// recorded send parent is a root.
    std::vector<std::uint64_t> ancestry(std::uint64_t lineage) const;

    std::size_t size() const { return pairs_.size(); }

private:
    /// Sorted by lineage after finish(); binary-searched by parent_of.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs_;
    bool finished_ = true;
};

/// Every record of the given lineages (an ancestry, say) in stream
/// order: the causal history of a lineage when `lineages` is its
/// ancestry, and the chain_records input obs::path_waterfall wants.
bool chain_records(sim::RecordSource& src, std::vector<std::uint64_t> lineages,
                   std::vector<sim::TraceRecord>& out, std::string* error = nullptr);

/// LineageIndex::ancestry by a linear scan per step: the reference the
/// index is tested against.
std::vector<std::uint64_t> lineage_ancestry(std::span<const sim::TraceRecord> records,
                                            std::uint64_t lineage);

/// Per-kind record counts and the time span of a stream.
struct TraceSummary {
    std::array<std::uint64_t, sim::kTraceKindCount> counts{};  ///< By TraceKind value.
    Tick first_at = 0;
    Tick last_at = 0;
    std::uint64_t records = 0;
};

bool summarize(sim::RecordSource& src, TraceSummary& out, std::string* error = nullptr);

/// One crash episode of one node, as reconstructed from the trace.
struct CrashEpisode {
    NodeId node = kNoNode;
    Tick crashed_at = 0;
    Tick restarted_at = kNever;       ///< kNever = never restarted in-trace.
    /// Last trace activity (any kind, any node) at/after the restart —
    /// an upper bound on when the network reconverged.
    Tick settled_at = kNever;
    std::uint64_t drops_while_down = 0;       ///< Network-wide kDrop count in the gap.
    std::uint64_t deliveries_after_restart = 0;  ///< At this node, post-restart.
};

/// Crash/restart episodes in crash order (pairs each kCrash with the
/// next kRestart of the same node).
bool crash_episodes(sim::RecordSource& src, std::vector<CrashEpisode>& out,
                    std::string* error = nullptr);

/// Renders records one per line via sim::format_record.
std::string format_records(std::span<const sim::TraceRecord> records);

/// Human-readable reconvergence report: every crash episode with its
/// down-window, drop count and post-restart delivery count.
std::string format_reconvergence(std::span<const CrashEpisode> episodes);

}  // namespace fastnet::obs
