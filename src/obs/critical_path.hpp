// Causal critical-path extraction: streaming latency attribution over a
// completed run's trace — "where did the time go?" answered from the
// records alone.
//
// ## The attribution model
//
// Every handler completion record carries a *causal anchor* `c`
// (sim::TraceArgs): a kDeliver's packet was injected at `c`, a kTimer
// was armed at `c`, a kHop's transmit started at `c`. Because a handler
// executes at the end of its busy window and its sends/timer-arms
// happen at that same instant, consecutive legs of a causal chain tile
// the interval [root injection, terminal completion] exactly:
//
//   root kSend at t0  ──transit──▶ last kHop ──queueing──▶ busy window
//   ──[handler completes at t1, child kSend at t1]──▶ ... ──▶ t_end
//
// Each leg decomposes into PathSegmentKind pieces (cost/metrics.hpp):
// queueing / transit / handler / timer-wait / retry-backoff. The
// builder maintains the invariant  sum(segments) == end - root_start
// *by construction*: every chain extension adds exactly (new_end -
// old_end) ticks across segments, with non-negative clamps counted in
// anomaly counters rather than silently skewing the sum. Gaps the
// records cannot explain (ablation A1's serialized sends, disabled
// record kinds) are deterministically classified: send-side gaps as
// queueing, timer-side gaps as timer-wait.
//
// ## Bounded memory
//
// One forward pass in merge order ((at, node_sort_key, shard, seq) —
// the SpillMerge / merged_trace contract). Chain state is keyed by
// lineage and created only at a *child* kSend (parent != 0): root
// injections and root deliveries are self-describing through `c`, so a
// million-node t=0 broadcast burst costs nothing. Entries age out via
// `horizon` (live_pruned counter); a delivery whose entry is gone
// re-anchors as a fresh root (loud counters flag the reduced
// confidence, the exact-sum invariant holds per reported path
// regardless). With `top == 0` the pass keeps only the global witness
// — O(1) chain state — which is how the 10^6-node election fits the
// bench_memory_scale 4 MiB budget (bench/bench_critical_path.cpp gates
// this).
//
// Everything is a pure function of the merged record stream, so output
// is byte-identical across shard x thread counts
// (scripts/critical_path_smoke.sh diffs exactly this).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cost/metrics.hpp"
#include "sim/record_source.hpp"
#include "sim/trace.hpp"
#include "util/flat_map.hpp"

namespace fastnet::obs {

using SegmentKind = cost::PathSegmentKind;
inline constexpr unsigned kSegmentKindCount = cost::kPathSegmentKindCount;

/// Per-kind tick totals of one chain (or one blame bucket).
struct SegmentTotals {
    std::array<Tick, kSegmentKindCount> ticks{};

    Tick total() const {
        Tick s = 0;
        for (const Tick t : ticks) s += t;
        return s;
    }
    void add(SegmentKind k, Tick t) { ticks[static_cast<unsigned>(k)] += t; }
    Tick operator[](SegmentKind k) const { return ticks[static_cast<unsigned>(k)]; }
};

struct CriticalPathConfig {
    /// Slowest root chains to report (latency-descending). 0 = witness
    /// only, which needs no per-root aggregates — the bounded-memory
    /// mode the million-node bench runs in.
    std::size_t top = 8;
    /// Age (ticks since last touch) after which live chain entries are
    /// pruned. 0 = never prune. Must exceed the longest send->delivery
    /// leg for full-confidence attribution.
    Tick horizon = 0;
    /// Keep chain state for delivered *root* lineages too, so timers
    /// armed inside root handlers chain onto the delivery (paris call
    /// setup). Costs one live entry per delivered root — turn off for
    /// witness-only passes at extreme scale (the million-node bench
    /// traces no timers, so nothing is lost there).
    bool anchor_root_deliveries = true;
};

/// Root aggregates tracked when top > 0; further roots are skipped
/// (roots_skipped counter).
inline constexpr std::size_t kMaxRoots = 1 << 16;
/// Last-hop contexts (queueing/transit split) kept concurrently.
inline constexpr std::size_t kHopCtxCapacity = 1 << 12;
/// Per-node + per-link blame buckets kept (first-seen wins,
/// blame_evicted counts the rest).
inline constexpr std::size_t kBlameCapacity = 1 << 12;
/// Timer cookies whose low nibble equals this are classified
/// kRetryBackoff instead of kTimerWait (paris::kCookieRetry).
inline constexpr unsigned kRetryCookieKind = 5;
/// Waterfall segment cap (head/tail elision; totals stay exact).
inline constexpr std::size_t kMaxPathSegments = 256;

/// One reported chain: root injection -> terminal handler completion.
struct PathSummary {
    std::uint64_t root = 0;
    Tick root_start = 0;
    Tick end = 0;
    std::uint64_t terminal = 0;      ///< Lineage of the terminal delivery.
    NodeId terminal_node = kNoNode;
    std::uint32_t depth = 0;         ///< Handler completions on the chain.
    std::uint64_t deliveries = 0;    ///< Deliveries attributed to this root
                                     ///< (0 when not tracked: witness at top=0).
    SegmentTotals totals;            ///< Sums exactly to latency().

    Tick latency() const { return end - root_start; }
};

/// Blame key: a node id, or kLinkBlameBit | edge id.
inline constexpr std::uint64_t kLinkBlameBit = 1ULL << 63;

struct BlameEntry {
    std::uint64_t key = 0;
    SegmentTotals totals;
};

struct CriticalPathReport {
    bool computed = false;
    bool has_witness = false;
    PathSummary witness;            ///< Chain ending at the last delivery.
    std::vector<PathSummary> top;   ///< Latency-descending, root ascending.
    std::vector<BlameEntry> node_blame;  ///< Total-descending, key ascending.
    std::vector<BlameEntry> link_blame;  ///< Total-descending, key ascending.

    // ---- pass bookkeeping (deterministic) -----------------------------
    std::uint64_t records = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t timer_fires = 0;
    std::uint64_t roots_tracked = 0;   ///< Root aggregates seen (top > 0).
    // ---- confidence counters: nonzero means some attribution was
    // reconstructed without full chain context -------------------------
    std::uint64_t live_pruned = 0;     ///< Entries aged out by horizon.
    std::uint64_t roots_skipped = 0;   ///< Roots beyond kMaxRoots.
    std::uint64_t hop_ctx_evicted = 0;
    std::uint64_t blame_evicted = 0;
    std::uint64_t unanchored_sends = 0;  ///< Child sends with no parent context.
    std::uint64_t unanchored_timers = 0; ///< Timer fires with no chain entry.
    std::uint64_t clamped = 0;           ///< Anchor/busy clamps applied.
};

/// Streaming builder: feed records in merge order, then finish().
class CriticalPathBuilder {
public:
    explicit CriticalPathBuilder(CriticalPathConfig config = {});

    void add(const sim::TraceRecord& r);
    CriticalPathReport finish();

    /// Resident footprint of the pass (capacity-based) — what the
    /// million-node bench gates against the 4 MiB budget.
    std::size_t memory_bytes() const;

    const CriticalPathConfig& config() const { return config_; }

private:
    /// Accumulated chain context: totals cover [root_start, end].
    struct ChainCtx {
        std::uint64_t root = 0;
        Tick root_start = 0;
        Tick end = 0;
        std::uint32_t depth = 0;
        SegmentTotals totals;
    };

    /// Live chain state of one lineage (FlatMap64 value; trivially
    /// copyable). `prefix` is the immutable chain snapshot at this
    /// lineage's send instant — every delivery of every copy prices
    /// against it. `last` is the chain after this lineage's most recent
    /// handler completion — what timers and A1-deferred child sends
    /// anchor to.
    struct LiveEntry {
        std::uint64_t root = 0;
        Tick root_start = 0;
        Tick prefix_end = 0;
        Tick last_end = 0;
        Tick last_seen = 0;
        std::array<Tick, kSegmentKindCount> prefix{};
        std::array<Tick, kSegmentKindCount> last{};
        std::uint32_t prefix_depth = 0;
        std::uint32_t last_depth = 0;
    };

    /// Per-root aggregate (top > 0 only).
    struct TreeEntry {
        Tick root_start = 0;
        Tick last_end = 0;
        std::uint64_t terminal = 0;
        std::uint32_t terminal_node = 0;
        std::uint32_t depth = 0;
        std::uint64_t deliveries = 0;
        std::array<Tick, kSegmentKindCount> totals{};
    };

    void on_send(const sim::TraceRecord& r);
    void on_hop(const sim::TraceRecord& r);
    void on_deliver(const sim::TraceRecord& r);
    void on_timer(const sim::TraceRecord& r);
    /// Extends `ctx` to a completion at `at` with busy window `busy` and
    /// anchor `c`; `wait_kind` classifies the pre-handler remainder
    /// (transit+queueing split for deliveries via the hop context).
    void extend(ChainCtx& ctx, Tick at, Tick busy, Tick c, bool is_delivery,
                SegmentKind wait_kind, std::uint64_t lineage);
    void blame_add(std::uint64_t key, SegmentKind kind, Tick ticks);
    void maybe_prune(Tick now);

    CriticalPathConfig config_;
    CriticalPathReport report_;

    util::FlatMap64<LiveEntry> live_;
    util::FlatMap64<TreeEntry> trees_;
    util::FlatMap64<Tick> hop_ctx_;      ///< lineage -> last kHop arrival.
    util::FlatMap64<std::array<Tick, kSegmentKindCount>> blame_;

    // Transient context of the completion record last processed: child
    // kSends at the same (at, node) with a matching parent lineage
    // anchor here (merge order guarantees completion-before-sends).
    bool cur_valid_ = false;
    Tick cur_at_ = 0;
    NodeId cur_node_ = kNoNode;
    std::uint64_t cur_lineage_ = 0;
    ChainCtx cur_ctx_;

    bool has_witness_ = false;
    ChainCtx witness_;
    std::uint64_t witness_terminal_ = 0;
    NodeId witness_node_ = kNoNode;

    Tick last_prune_ = 0;
    bool finished_ = false;
};

/// Streams `src` (merged order) through a CriticalPathBuilder in one
/// bounded-memory pass. `peak_memory_bytes` (optional) receives the
/// builder's maximum resident footprint, what bench_critical_path gates
/// against the 4 MiB budget. False, with the source's error, when the
/// stream failed part-way.
bool critical_path(sim::RecordSource& src, const CriticalPathConfig& config,
                   CriticalPathReport& out, std::string* error = nullptr,
                   std::size_t* peak_memory_bytes = nullptr);

// ---- pass 2: exact leg-by-leg waterfall of one chain --------------------

/// One drawn segment of a chain waterfall, chronological.
struct PathSegment {
    SegmentKind kind = SegmentKind::kQueueing;
    Tick start = 0;
    Tick end = 0;
    NodeId node = kNoNode;       ///< NCU the leg ends at.
    std::uint64_t lineage = 0;   ///< Lineage of the leg being travelled.
};

struct PathWaterfall {
    PathSummary summary;
    std::vector<PathSegment> segments;  ///< Chronological; capped (elided).
    std::uint64_t elided = 0;           ///< Segments dropped by the cap.
};

/// Rebuilds the exact leg-by-leg waterfall of the chain ending at
/// `path.terminal` / `path.terminal_node` / `path.end` by walking the
/// chain's records backward (records: every record of the chain's
/// ancestry lineages, chronological — obs::chain_records over the
/// terminal's LineageIndex ancestry provides exactly that).
PathWaterfall path_waterfall(std::span<const sim::TraceRecord> chain_records,
                             const PathSummary& path);

// ---- rendering ----------------------------------------------------------

/// Deterministic text report (the `fastnet_trace --critical-path` body).
std::string format_critical_path(const CriticalPathReport& report);

/// Deterministic text waterfall (the `--waterfall` addition).
std::string format_waterfall(const PathWaterfall& wf);

/// Appends the waterfall's segments as Chrome trace-event complete
/// events under their own process (pid 3, "critical path") — the flame
/// overlay merged before chrome_trace_footer.
void append_chrome_path_overlay(std::string& out, const PathWaterfall& wf);

/// Folds a report into the metrics-ledger form ("critical_path" JSON
/// section; see cost::CriticalPathStats).
cost::CriticalPathStats to_path_stats(const CriticalPathReport& report);

}  // namespace fastnet::obs
