// Structured, low-overhead event tracing — the repo's causal record of
// what the hardware and the NCUs actually did.
//
// A Trace is a bounded ring of typed records. Each record is a small
// fixed-size POD — a timestamp, a node, a kind, a lineage id and three
// kind-specific argument words — so the hot paths (per-hop, per-send)
// never build a std::string. Free-form text goes through an optional
// bounded detail *arena* (record_detail); callers must check
// enabled(kind) before formatting such a detail, so a filtered-out or
// detached trace costs nothing.
//
// Lineage: every packet injected into the network is stamped with a
// monotonically assigned lineage id (hw::Network::send). The id rides
// the packet through SS hops, selective copies, link-layer duplicates,
// drops and NCU deliveries, and handler-caused sends record their
// causal parent — so any delivery can be traced back to the send that
// caused it, and any timer back to the invocation that armed it (see
// docs/OBSERVABILITY.md for the full model and src/obs/ for the
// exporters and the query toolchain).
//
// Traces are purely observational: they never influence the simulation,
// and with recording disabled the steady-state hop path stays
// zero-allocation (bench/bench_obs_overhead.cpp guards the cost).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace fastnet::sim {

class SpillWriter;

enum class TraceKind : std::uint8_t {
    kStart,       ///< Spontaneous protocol start ran.       b = busy ticks
    kSend,        ///< NCU injected a packet.                a = header len, b = parent lineage
    kHop,         ///< Packet traversed a link.              a = edge, b = hops so far, c = hop sent at
    kDeliver,     ///< Delivery handler completed.           a = hops, b = busy ticks, c = packet sent at
    kTimer,       ///< Timer handler completed.              a = cookie, b = busy ticks, c = armed at
    kLinkChange,  ///< Data-link notification processed.     a = edge, flag = up, b = busy ticks
    kDrop,        ///< Packet died.                          a = edge (kNoEdge off-link), flag = DropReason
    kCrash,       ///< Node hard-crashed.                    a = incarnation being killed
    kRestart,     ///< Node came back.                       a = new incarnation
    kDup,         ///< Link-layer duplicate was minted.      a = edge, b = new packet id
    kPhase,       ///< Experiment phase marker.              a = phase id (node = kNoNode)
    kViolation,   ///< Invariant monitor tripped.            a = monitor index, detail = message
    kCallEvent,   ///< Call state-machine transition.        a = packed call id, b = event code, flag = attempt
    kCustom,      ///< Free-form (detail arena).
};

inline constexpr unsigned kTraceKindCount = 14;

/// The bit of `k` in a kind mask (node::ParallelClusterConfig::trace_kinds).
constexpr std::uint16_t trace_kind_bit(TraceKind k) {
    return static_cast<std::uint16_t>(1u << static_cast<unsigned>(k));
}

const char* trace_kind_name(TraceKind k);

/// Parses a kind name as printed by trace_kind_name; returns false on an
/// unknown name (used by the obs loaders and the fastnet_trace CLI).
bool trace_kind_from_name(std::string_view name, TraceKind& out);

/// Why a packet died (TraceRecord::flag of a kDrop record).
enum class DropReason : std::uint8_t {
    kNone = 0,
    kInactiveLink,  ///< Transmit attempted over a down link.
    kStaleEpoch,    ///< Link failed/flapped while the packet was in flight.
    kInjectedLoss,  ///< Fault injection: data-link CRC rejected the frame.
    kNoMatch,       ///< Label matched no port at the switch.
    kEmptyHeader,   ///< Header exhausted mid-switch.
};

const char* drop_reason_name(DropReason r);

/// Spill-to-disk configuration for one Trace (see sim/trace_spill.hpp
/// for the file format and the merge contract). With spill enabled the
/// ring never overwrites: a full ring (or an exceeded resident budget)
/// drains to the spill file as one sorted segment and restarts empty.
struct TraceSpillConfig {
    std::string path;     ///< Spill file to create (truncated on enable).
    std::uint32_t shard = 0;  ///< Stamped into the file header; merge tie-break.
    /// Optional cap on resident trace bytes (ring + detail arena). 0
    /// keeps the default drain point (a full ring). When set, the drain
    /// threshold shrinks so ring + arena capacity stay within budget.
    std::size_t resident_budget_bytes = 0;
};

/// Kind-specific arguments of one record; see the TraceKind table above
/// for what each kind stores where.
///
/// The third word `c` is the *causal anchor*: the simulated instant the
/// interval ending at this record began (kDeliver: when the packet was
/// injected; kTimer: when the timer was armed; kHop: when this hop's
/// transmit started). It makes every record self-describing for latency
/// attribution (obs/critical_path.hpp) — no cross-record state is
/// needed to price a leg. 0 = not applicable.
struct TraceArgs {
    std::uint64_t lineage = 0;  ///< Causal lineage id (0 = none).
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;        ///< Causal anchor tick (see above).
    std::uint8_t flag = 0;
};

/// One record as the ring holds it and the spill writer drains it:
/// fixed size, no heap per record. A detail, if any, is `detail_len`
/// bytes at `detail_at` in the trace's detail arena. A record's `seq`
/// (its per-shard recording index) is not stored: it is the first
/// `seq` of the drain plus the record's ring index.
struct RingRecord {
    Tick at = 0;
    std::uint64_t lineage = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    NodeId node = kNoNode;
    std::uint32_t detail_at = 0;
    std::uint32_t detail_len = 0;  ///< 0 = no detail.
    TraceKind kind = TraceKind::kCustom;
    std::uint8_t flag = 0;
};

/// One materialized record, as returned by snapshot(). The in-ring
/// representation is a RingRecord; the detail string (if any) is
/// copied out of the arena here.
struct TraceRecord {
    Tick at = 0;
    NodeId node = kNoNode;
    TraceKind kind = TraceKind::kCustom;
    std::uint8_t flag = 0;
    std::uint64_t lineage = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;  ///< Causal anchor tick (see TraceArgs).
    std::string detail{};
};

class Trace {
public:
    /// `capacity` bounds the record ring; older records are discarded
    /// first. `detail_capacity` bounds the detail arena (bytes); once
    /// full, further details are silently omitted (detail_dropped()).
    explicit Trace(std::size_t capacity = 65536, std::size_t detail_capacity = 1 << 16);
    ~Trace();
    // Movable, not copyable (the spill writer owns an open file).
    Trace(Trace&&) noexcept;
    Trace& operator=(Trace&&) noexcept;

    /// Appends one typed record. No allocation beyond amortized ring
    /// growth up to `capacity`.
    void record(Tick at, NodeId node, TraceKind kind, TraceArgs args = {});

    /// Appends a record with a free-form detail. Callers on any path that
    /// formats the detail must check enabled(kind) *before* building the
    /// string — this function only pays for the arena copy.
    void record_detail(Tick at, NodeId node, TraceKind kind, std::string_view detail,
                       TraceArgs args = {});

    /// Enables/disables recording of one kind (all enabled initially).
    void set_enabled(TraceKind kind, bool enabled);
    bool enabled(TraceKind kind) const;
    /// Disables every kind at once (an attached-but-silent trace; the
    /// overhead gate runs in this configuration).
    void disable_all() { enabled_mask_ = 0; }
    void enable_all() { enabled_mask_ = 0xffff; }

    /// Records in chronological order (oldest first).
    std::vector<TraceRecord> snapshot() const;

    /// Records for one node, chronological.
    std::vector<TraceRecord> snapshot(NodeId node) const;

    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t total_recorded() const { return count_; }
    /// Records lost to ring overwrite or to a spill segment whose write
    /// failed. With spill enabled the ring never overwrites: overflow
    /// drains to disk instead of truncating.
    std::uint64_t dropped() const {
        const std::uint64_t kept = spilled_records_ + ring_.size();
        return count_ > kept ? count_ - kept : 0;
    }
    std::uint64_t detail_dropped() const { return detail_dropped_; }
    void clear();

    /// Switches overflow handling from ring overwrite to disk spill.
    /// Must be called on an empty trace (before any record). Returns
    /// false (with `error`) when the spill file cannot be created.
    bool enable_spill(const TraceSpillConfig& config, std::string* error = nullptr);
    bool spill_enabled() const { return spill_ != nullptr; }

    /// Drains every resident record (and its detail bytes) to the spill
    /// file as one sorted segment; the ring and arena restart empty.
    /// Records of a segment whose write fails count as dropped(). No-op
    /// without spill or with an empty ring.
    void flush_spill();

    /// Final flush + stats trailer; closes the spill file and frees the
    /// writer's sort keys and block. The trace reverts to plain ring
    /// behaviour afterwards. Returns false when a write failed.
    bool finish_spill();

    std::uint64_t spilled_records() const { return spilled_records_; }
    std::uint64_t spill_segments() const { return spill_segments_; }
    std::uint64_t spilled_bytes() const { return spilled_bytes_; }
    const std::string& spill_path() const { return spill_path_; }

    /// Resident trace footprint right now: ring + detail arena capacity
    /// (capacity-based, so it is an upper bound that never shrinks —
    /// the quantity the spill budget constrains).
    std::size_t resident_bytes() const;

    /// Human-readable dump (one line per record).
    void print(std::ostream& os) const;

private:
    void push(const RingRecord& rec);
    TraceRecord materialize(const RingRecord& r) const;

    std::size_t capacity_;
    std::size_t detail_capacity_;
    std::uint64_t count_ = 0;  ///< Total ever recorded.
    std::uint64_t detail_dropped_ = 0;
    std::size_t next_ = 0;     ///< Oldest record once the ring is full.
    std::vector<RingRecord> ring_;
    std::vector<char> arena_;  ///< Append-only bounded detail storage.
    std::uint16_t enabled_mask_ = 0xffff;

    // Spill state (null without enable_spill).
    std::unique_ptr<SpillWriter> spill_;
    std::string spill_path_;
    std::size_t drain_records_ = 0;   ///< Ring size that triggers a drain.
    std::uint64_t spilled_records_ = 0;
    std::uint64_t spill_segments_ = 0;
    std::uint64_t spilled_bytes_ = 0;
};

/// Renders one record the way Trace::print does (shared with the
/// fastnet_trace CLI, which renders records loaded from disk).
std::string format_record(const TraceRecord& r);

}  // namespace fastnet::sim
