// The paper's cost measures, counted exactly.
//
// Two resource costs (Section 2):
//   * communication complexity — hops traversed by messages (hardware);
//   * system-call complexity  — number of NCU involvements (software).
// Time is tracked by the simulator clock; completion times are recorded
// by the harnesses. Counters are split finely so benches can report both
// the paper's headline quantities and diagnostic detail.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "cost/series.hpp"

namespace fastnet::cost {

/// Per-node NCU accounting.
struct NodeCounters {
    std::uint64_t message_deliveries = 0;  ///< Packets handed to this NCU.
    std::uint64_t starts = 0;              ///< Spontaneous protocol starts.
    std::uint64_t timer_fires = 0;
    std::uint64_t link_events = 0;         ///< Data-link state notifications.
    std::uint64_t sends = 0;               ///< Packets this NCU injected.
    std::uint64_t crashes = 0;             ///< Hard failures (soft state lost).
    std::uint64_t restarts = 0;            ///< Recoveries (on_restart invocations).
    Tick busy_time = 0;                    ///< Total time the NCU was occupied.

    /// System-call complexity contribution of this node: the number of
    /// times the NCU was involved. Message deliveries are what Theorems
    /// 2/3/5 count; starts/timers/link events are tracked separately and
    /// reported alongside (they are O(n) one-offs in all our protocols).
    std::uint64_t invocations() const {
        return message_deliveries + starts + restarts + timer_fires + link_events;
    }
};

/// Network-wide hardware accounting.
struct NetCounters {
    std::uint64_t injections = 0;             ///< send() calls (direct messages).
    std::uint64_t hops = 0;                   ///< Link traversals.
    std::uint64_t ncu_deliveries = 0;         ///< Deliveries into any NCU.
    std::uint64_t drops_inactive_link = 0;    ///< Lost to failed links.
    std::uint64_t drops_no_match = 0;         ///< Label matched no port.
    std::uint64_t drops_empty_header = 0;     ///< Header exhausted mid-switch.
    std::size_t max_header_len = 0;           ///< Longest ANR header injected.
    /// Total ANR header bits carried across links (labels in flight x
    /// the network's label width k = O(log m) bits). This is the
    /// hardware bandwidth consumed by source routing itself — the
    /// quantity whose growth motivates the dmax restriction.
    std::uint64_t header_bits = 0;
    std::uint64_t drops_injected = 0;  ///< Fault injection: lossy-link drops.
    std::uint64_t dup_copies = 0;      ///< Fault injection: duplicated packets.
};

/// Where the bytes of a cluster live at one instant. All quantities are
/// *logical* capacity-based bytes (what the data structures asked for,
/// not what the allocator rounded to): deterministic and portable, so
/// benches can gate on them across machines.
struct MemoryBreakdown {
    std::uint64_t graph = 0;      ///< Topology: edges and CSR.
    std::uint64_t network = 0;    ///< Fabric: ports, links, packet slabs.
    std::uint64_t runtimes = 0;   ///< NCU runtimes incl. link tables/queues.
    std::uint64_t protocols = 0;  ///< Protocol instances (self-reported).
    /// Arena occupancy. `arena_used` overlaps `runtimes` (link tables and
    /// the runtime array are arena-resident) — it is reported for
    /// allocator visibility, NOT added into total().
    std::uint64_t arena_used = 0;
    std::uint64_t arena_reserved = 0;
    /// Resident trace footprint (ring + detail arena capacity; see
    /// sim::Trace::resident_bytes). Observability memory, reported
    /// separately from the per-node total() so traced and untraced runs
    /// gate the same bytes/node quantity.
    std::uint64_t trace = 0;

    std::uint64_t total() const { return graph + network + runtimes + protocols; }
};

/// One memory observation (ParallelCluster::sample_memory).
struct MemorySample {
    Tick at = 0;
    MemoryBreakdown breakdown;
    std::uint64_t max_node_bytes = 0;  ///< Heaviest runtime+protocol pair.
    NodeId max_node = kNoNode;
};

/// Optional windowed samplers riding the ledger (enable_sampling).
/// Totals answer "how much"; these answer "when, where, and on which
/// budget" — each tick of work is attributed to the hardware-C or
/// software-P side per node, matching the (C, P) split of Section 5.
class Sampling {
public:
    Sampling(NodeId node_count, Tick window);

    Tick window() const { return window_; }

    struct NodeSeries {
        TimeSeries busy;         ///< Software (P) ticks spent per window.
        TimeSeries hw_time;      ///< Hardware (C) ticks of hops carrying
                                 ///< packets *this node injected*.
        TimeSeries deliveries;   ///< System calls completed per window.
        TimeSeries queue_depth;  ///< NCU queue depth at enqueue (see max).
    };

    NodeSeries& node(NodeId u) { return nodes_[u]; }
    const NodeSeries& node(NodeId u) const { return nodes_[u]; }
    NodeId node_count() const { return static_cast<NodeId>(nodes_.size()); }

    TimeSeries& hops() { return hops_; }
    const TimeSeries& hops() const { return hops_; }
    TimeSeries& sends() { return sends_; }
    const TimeSeries& sends() const { return sends_; }
    TimeSeries& drops() { return drops_; }
    const TimeSeries& drops() const { return drops_; }

    LogHistogram& hop_latency() { return hop_latency_; }
    const LogHistogram& hop_latency() const { return hop_latency_; }
    LogHistogram& delivery_latency() { return delivery_latency_; }
    const LogHistogram& delivery_latency() const { return delivery_latency_; }
    LogHistogram& header_len() { return header_len_; }
    const LogHistogram& header_len() const { return header_len_; }
    LogHistogram& ncu_busy() { return ncu_busy_; }
    const LogHistogram& ncu_busy() const { return ncu_busy_; }
    LogHistogram& queue_depth() { return queue_depth_; }
    const LogHistogram& queue_depth() const { return queue_depth_; }

    /// Mean bytes/node at each memory sample (fed by
    /// ParallelCluster::sample_memory; empty until it runs).
    TimeSeries& bytes_per_node() { return bytes_per_node_; }
    const TimeSeries& bytes_per_node() const { return bytes_per_node_; }

    /// Counts one system call under experiment phase `phase` (phases are
    /// marked by the harness — Scenario::mark_phase / Metrics::set_phase).
    /// Stored in first-use order, so serialization is deterministic.
    void phase_call(std::uint64_t phase);

    /// Accumulates another sampler with the same window and node count
    /// into this one. Merged phase_calls are re-sorted by phase id —
    /// per-shard first-use order depends on the partition, phase ids do
    /// not (see Metrics::merge_from).
    void merge_from(const Sampling& o);
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& phase_calls() const {
        return phase_calls_;
    }

private:
    Tick window_;
    std::vector<NodeSeries> nodes_;
    TimeSeries hops_, sends_, drops_, bytes_per_node_;
    LogHistogram hop_latency_, delivery_latency_, header_len_, ncu_busy_, queue_depth_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> phase_calls_;
};

/// Call-level accounting for the PARIS workload (ROADMAP item 3): final
/// outcome counters plus latency/retry distributions. Sources tally
/// their own calls; the harness folds per-agent stats into the run's
/// ledger in node order (paris::fold_call_stats), so the serialized
/// result is independent of thread and shard counts. All-integer, so
/// merge_from is exact.
struct CallStats {
    std::uint64_t offered = 0;    ///< Arrivals (scripted + generated).
    std::uint64_t shed = 0;       ///< Refused by admission control.
    std::uint64_t placed = 0;     ///< Setup attempts injected (incl. retries).
    std::uint64_t accepted = 0;   ///< Went active.
    std::uint64_t blocked = 0;    ///< Final capacity/timeout rejection.
    std::uint64_t completed = 0;  ///< Released after a full holding time.
    std::uint64_t failed = 0;     ///< Lost to link failure after activation.
    std::uint64_t timeouts = 0;   ///< Setup timer expiries.
    std::uint64_t retries = 0;    ///< Re-placements after backoff.
    std::uint64_t reaped = 0;     ///< Orphaned reservations reclaimed by lease expiry.
    LogHistogram setup_latency;   ///< Ticks from first placement to active.
    LogHistogram retries_per_call;  ///< Per finally-resolved call.

    bool any() const { return offered != 0 || placed != 0; }
    /// Erlang-style blocking: offered calls that never went active.
    double blocking_probability() const {
        return offered == 0 ? 0.0
                            : static_cast<double>(shed + blocked) /
                                  static_cast<double>(offered);
    }
    void merge_from(const CallStats& o);
};

/// Which NCU handler a profiled invocation ran (mirrors
/// obs::MonitorEvent::InvokeKind — cost:: stays below obs:: in the layer
/// order, so the enum is duplicated here).
enum class HandlerKind : std::uint8_t { kStart = 0, kRestart, kDelivery, kLink, kTimer };

inline constexpr unsigned kHandlerKindCount = 5;

const char* handler_kind_name(HandlerKind k);

/// Always-on sampling profiler: per-protocol × per-handler-kind busy-tick
/// histograms, fed by NodeRuntime on every completed handler. The hot
/// path is one bounds check plus a LogHistogram::add — no allocation, no
/// branch on configuration — so it stays on in production runs (gated ≤5%
/// overhead in bench_obs_overhead). Protocols register once at cluster
/// construction; an unregistered runtime (id kNoProtocol) records
/// nothing.
class Profiler {
public:
    static constexpr std::uint16_t kNoProtocol = 0xffff;

    struct Entry {
        std::string name;
        std::array<LogHistogram, kHandlerKindCount> by_kind;

        std::uint64_t invocations() const {
            std::uint64_t total = 0;
            for (const LogHistogram& h : by_kind) total += h.count();
            return total;
        }
        Tick busy_ticks() const {
            std::uint64_t total = 0;
            for (const LogHistogram& h : by_kind) total += h.sum();
            return static_cast<Tick>(total);
        }
    };

    /// Registers (or finds) the entry for `name`; returns its id.
    std::uint16_t register_protocol(std::string_view name);

    /// Hot path: counts one completed handler invocation.
    void record(std::uint16_t id, HandlerKind kind, Tick busy) {
        if (id >= entries_.size()) return;
        entries_[id].by_kind[static_cast<unsigned>(kind)].add(
            static_cast<std::uint64_t>(busy < 0 ? 0 : busy));
    }

    const std::vector<Entry>& entries() const { return entries_; }
    bool any() const;

    /// Entry indices sorted by protocol name — per-shard registration
    /// order depends on the partition, names do not, so serialization
    /// goes through this view.
    std::vector<std::size_t> sorted() const;

    /// Accumulates another profiler, matching entries by name (exact:
    /// all-integer histograms).
    void merge_from(const Profiler& o);
    void reset();

private:
    std::vector<Entry> entries_;
};

/// One latency-attribution segment kind on a causal critical path
/// (mirrors obs::SegmentKind — cost:: stays below obs:: in the layer
/// order, so the enum lives here and obs reuses it). The five kinds
/// tile a chain's end-to-end latency exactly: every tick between the
/// root injection and the terminal handler completion is attributed to
/// exactly one of them (see src/obs/critical_path.hpp).
enum class PathSegmentKind : std::uint8_t {
    kQueueing = 0,   ///< Waiting for an NCU slot (or A1 send serialization).
    kTransit,        ///< In flight on the fabric (hops, link delays).
    kHandler,        ///< Inside a handler's busy window.
    kTimerWait,      ///< Armed timer waiting to fire.
    kRetryBackoff,   ///< Timer wait reclassified as retry backoff (cookie kind).
};

inline constexpr unsigned kPathSegmentKindCount = 5;

const char* path_segment_kind_name(PathSegmentKind k);

/// Critical-path attribution of one completed run, folded into the
/// ledger post-run by whoever computed it (obs::CriticalPathBuilder via
/// obs::to_path_stats). Serialized as the "critical_path" section of
/// metrics JSON; null until computed.
struct CriticalPathStats {
    /// One root chain: root injection -> terminal handler completion.
    struct Path {
        std::uint64_t root = 0;       ///< Root lineage id.
        Tick root_start = 0;          ///< Root injection tick.
        Tick end = 0;                 ///< Terminal handler completion tick.
        std::uint64_t terminal = 0;   ///< Terminal lineage id.
        NodeId terminal_node = kNoNode;
        std::uint32_t depth = 0;      ///< Handler completions on the chain.
        /// Per-kind tick totals, indexed by PathSegmentKind; sums
        /// exactly to latency().
        std::array<Tick, kPathSegmentKindCount> segments{};

        Tick latency() const { return end - root_start; }
        Tick segment_sum() const {
            Tick s = 0;
            for (const Tick t : segments) s += t;
            return s;
        }
    };

    bool computed = false;
    Path witness;               ///< The chain ending at the last delivery.
    std::vector<Path> top;      ///< Slowest root chains, latency-descending.
    std::uint64_t deliveries = 0;      ///< Deliveries the pass attributed.
    std::uint64_t unanchored = 0;      ///< Legs priced without chain context.
    std::uint64_t clamped = 0;         ///< Anchor/busy clamps applied.
    std::uint64_t pruned = 0;          ///< Live chain entries aged out.

    bool any() const { return computed; }
};

/// Trace-ledger totals folded in by the cluster at the end of a run —
/// the explicit answer to "did the ring silently truncate?" plus the
/// spill subsystem's footprint (see sim/trace_spill.hpp). Serialized as
/// the "trace" section of metrics JSON.
struct TraceStats {
    std::uint64_t total_recorded = 0;
    std::uint64_t dropped = 0;          ///< Lost to ring overwrite.
    std::uint64_t detail_dropped = 0;   ///< Detail strings the arena refused.
    std::uint64_t spilled_records = 0;
    std::uint64_t spill_segments = 0;
    std::uint64_t spilled_bytes = 0;
    std::uint64_t resident_bytes = 0;   ///< Ring + arena capacity at fold time.

    bool any() const { return total_recorded != 0 || dropped != 0 || detail_dropped != 0; }
    void merge_from(const TraceStats& o);
};

/// One experiment's ledger (one per shard of a ParallelCluster).
class Metrics {
public:
    explicit Metrics(NodeId node_count) : nodes_(node_count) {}

    NodeCounters& node(NodeId u) { return nodes_[u]; }
    const NodeCounters& node(NodeId u) const { return nodes_[u]; }
    NodeId node_count() const { return static_cast<NodeId>(nodes_.size()); }

    NetCounters& net() { return net_; }
    const NetCounters& net() const { return net_; }

    /// Sum over nodes of message-delivery system calls — the paper's
    /// system-call complexity for message-driven algorithms.
    std::uint64_t total_message_system_calls() const;

    /// Sum over nodes of all NCU involvements.
    std::uint64_t total_invocations() const;

    /// Total direct messages injected by NCUs.
    std::uint64_t total_direct_messages() const { return net_.injections; }

    /// Resets all counters (e.g. after a warm-up phase) without
    /// disturbing the simulation state. Sampling windows (if enabled)
    /// restart empty with the same window width.
    void reset();

    /// Accumulates another ledger of the same node count into this one —
    /// how the kernel folds per-shard ledgers into the one a single-shard
    /// run would have produced. Counters add (max_header_len takes the
    /// max); sampling merges window-wise when both sides have it; the
    /// memory ledger keeps the later latest sample, adds sample counts and
    /// takes the larger peak. Everything is integer or integral-double
    /// arithmetic, so the result is exact and independent of merge order.
    void merge_from(const Metrics& o);

    // ---- windowed samplers (optional; see Sampling) -------------------
    /// Turns on time-series/histogram sampling with `window`-tick
    /// windows. Off by default: an unsampled run pays only one null
    /// check per hook.
    void enable_sampling(Tick window);
    Sampling* sampling() { return sampling_.get(); }
    const Sampling* sampling() const { return sampling_.get(); }

    /// Current experiment phase label; system calls completed while the
    /// phase is `p` are counted under `p` when sampling is enabled.
    void set_phase(std::uint64_t p) { phase_ = p; }
    std::uint64_t phase() const { return phase_; }

    // ---- call ledger (fed by paris::fold_call_stats post-run) ---------
    CallStats& calls() { return calls_; }
    const CallStats& calls() const { return calls_; }

    // ---- handler profiler (always on; fed by NodeRuntime) -------------
    Profiler& profiler() { return profiler_; }
    const Profiler& profiler() const { return profiler_; }

    // ---- trace ledger (fed by the cluster at end of run) --------------
    void set_trace_stats(const TraceStats& s) { trace_stats_ = s; }
    const TraceStats& trace_stats() const { return trace_stats_; }

    // ---- critical-path ledger (fed post-run by the attribution pass) --
    void set_critical_path(CriticalPathStats s) { critical_path_ = std::move(s); }
    const CriticalPathStats& critical_path() const { return critical_path_; }

    // ---- memory ledger (optional; fed by ParallelCluster::sample_memory)
    /// Records one observation: keeps it as the latest, bumps the sample
    /// count, tracks the peak per-node footprint seen, and (when windowed
    /// sampling is on) appends mean bytes/node to the sampling series.
    void record_memory(const MemorySample& s);
    /// Latest observation, or nullptr when none was ever recorded.
    const MemorySample* memory() const {
        return memory_samples_ > 0 ? &memory_latest_ : nullptr;
    }
    std::uint64_t memory_samples() const { return memory_samples_; }
    std::uint64_t peak_node_bytes() const { return peak_node_bytes_; }

private:
    std::vector<NodeCounters> nodes_;
    NetCounters net_;
    CallStats calls_;
    Profiler profiler_;
    TraceStats trace_stats_;
    CriticalPathStats critical_path_;
    std::unique_ptr<Sampling> sampling_;
    std::uint64_t phase_ = 0;
    MemorySample memory_latest_;
    std::uint64_t memory_samples_ = 0;
    std::uint64_t peak_node_bytes_ = 0;
};

/// Snapshot of the headline costs for reporting.
struct CostReport {
    std::uint64_t system_calls = 0;      ///< Message deliveries to NCUs.
    std::uint64_t invocations = 0;       ///< All NCU involvements.
    std::uint64_t direct_messages = 0;   ///< NCU send() injections.
    std::uint64_t hops = 0;              ///< Hardware link traversals.
    std::size_t max_header_len = 0;
    Tick completion_time = 0;
};

CostReport snapshot(const Metrics& m, Tick completion_time);

std::ostream& operator<<(std::ostream& os, const CostReport& r);

}  // namespace fastnet::cost
